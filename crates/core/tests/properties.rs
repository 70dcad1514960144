//! Property-based tests for the core primitives.
//!
//! Strategy: generate random schemas (mixed arities) and random conformant
//! datasets, then assert the algebraic invariants that must hold for *every*
//! input — equivalence of all build schedules, codec bijectivity,
//! marginalization consistency, and information-theoretic inequalities.

use proptest::prelude::*;
use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::{sequential_build, waitfree_build};
use wfbn_core::entropy::{conditional_mutual_information, entropy, mutual_information};
use wfbn_core::marginal::{marginalize, PackedTable};
use wfbn_core::stream::StreamingBuilder;
use wfbn_core::KeyCodec;
use wfbn_data::{Dataset, Schema};

/// A random schema of 1–6 variables with arities 2–5.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2u16..=5, 1..=6).prop_map(|arities| Schema::new(arities).unwrap())
}

/// A random dataset of 1–300 rows conforming to a random schema.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    schema_strategy().prop_flat_map(|schema| {
        let n = schema.num_vars();
        let arities: Vec<u16> = schema.arities().to_vec();
        prop::collection::vec(
            prop::collection::vec(0u16..5, n).prop_map(move |mut row| {
                for (s, &r) in row.iter_mut().zip(&arities) {
                    *s %= r;
                }
                row
            }),
            1..=300,
        )
        .prop_map(move |rows| {
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            Dataset::from_rows(schema.clone(), &refs).unwrap()
        })
    })
}

/// Schemas for the packed snapshot: 1–6 variables of arity 2–9 (so
/// scopes of one to four fall on both sides of the bit-slicing limit of 32
/// cells), 40 ternary variables (80 bits: two words), a 16-bit field
/// (arity above 256), or wide power-of-two fields (decoded by mask and
/// shift) between others.
fn packing_schema_strategy() -> impl Strategy<Value = Schema> {
    let small =
        prop::collection::vec(2u16..=9, 1..=6).prop_map(|arities| Schema::new(arities).unwrap());
    (0usize..4, small).prop_map(|(kind, small)| match kind {
        0 => small,
        1 => Schema::uniform(40, 3).unwrap(),
        2 => Schema::new(vec![2, 40_000, 3, 2, 2]).unwrap(),
        _ => Schema::new(vec![8, 3, 256, 32_768, 5, 2]).unwrap(),
    })
}

/// A table shape for the bit-sliced all-pairs kernel: 3–10 variables of
/// arity 2–9 (so pairs fall on both sides of the slicing limit), a number
/// of distinct entries that is below one 64-entry word, exactly one word, a
/// few words, or several 4096-entry blocks with a partial last word, and up
/// to two entries repeated 4096–8191 times (twelve or thirteen bit planes of
/// `count − 1`) beside others repeated up to three times.
fn sliced_case_strategy() -> impl Strategy<Value = Dataset> {
    let arities = prop::collection::vec(2u16..=9, 3..=10);
    let distinct = (0usize..4, 1usize..=63).prop_map(|(kind, jitter)| match kind {
        0 => jitter,
        1 => 64,
        2 => 64 * 3 + jitter,
        _ => 4096 * 2 + 64 * 5 + jitter,
    });
    let repeats = prop::collection::vec(0usize..=2, 0..=64);
    let heavy = prop::collection::vec((any::<usize>(), 4096usize..8192), 0..=2);
    (arities, distinct, repeats, heavy, any::<u64>()).prop_map(
        |(mut arities, distinct, repeats, heavy, offset)| {
            // Widen the schema until it has room for every distinct entry.
            while arities.iter().map(|&r| r as usize).product::<usize>() < distinct {
                arities.push(2 + (arities.len() % 8) as u16);
            }
            let space: u64 = arities.iter().map(|&r| u64::from(r)).product();
            // Every arity is below 11, so the prime stride visits each
            // state string of the space once.
            let key = |k: usize| (k as u64 * 1_000_003 + offset % space) % space;
            let mut times = vec![1usize; distinct];
            for (k, extra) in repeats.iter().enumerate() {
                times[k * 31 % distinct] += extra;
            }
            for &(pick, count) in &heavy {
                times[pick % distinct] = count;
            }
            let mut rows = Vec::new();
            for (k, &t) in times.iter().enumerate() {
                let mut rest = key(k);
                let row: Vec<u16> = arities
                    .iter()
                    .map(|&r| {
                        let state = (rest % u64::from(r)) as u16;
                        rest /= u64::from(r);
                        state
                    })
                    .collect();
                rows.extend(std::iter::repeat_n(row, t));
            }
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            Dataset::from_rows(Schema::new(arities).unwrap(), &refs).unwrap()
        },
    )
}

/// A dataset on a packing schema and a variable order.
///
/// The rows are 1–300 random rows, plus up to two of them repeated
/// 4 096–8 191 times, so that their counts fill twelve or thirteen bit
/// planes of `count − 1`. The order is either 1–4 distinct variables in a
/// random order, or 0–6 indices drawn slightly past `n`, so empty,
/// duplicate and out-of-range orders occur beside valid ones.
fn packing_case_strategy() -> impl Strategy<Value = (Dataset, Vec<usize>)> {
    packing_schema_strategy().prop_flat_map(|schema| {
        let n = schema.num_vars();
        let arities: Vec<u16> = schema.arities().to_vec();
        let rows = prop::collection::vec(
            prop::collection::vec(0u16..u16::MAX, n).prop_map(move |mut row| {
                for (s, &r) in row.iter_mut().zip(&arities) {
                    *s %= r;
                }
                row
            }),
            1..=300,
        );
        let heavy = prop::collection::vec((any::<usize>(), 4096usize..8192), 0..=2);
        let picks = prop::collection::vec(any::<usize>(), 1..=4);
        let junk = prop::collection::vec(0usize..n + 2, 0..=6);
        (rows, heavy, any::<bool>(), picks, junk).prop_map(
            move |(mut rows, heavy, valid, picks, junk)| {
                for &(pick, times) in &heavy {
                    let row = rows[pick % rows.len()].clone();
                    rows.extend(std::iter::repeat_n(row, times));
                }
                let order = if valid {
                    let mut order: Vec<usize> = Vec::new();
                    for pick in &picks {
                        let free: Vec<usize> = (0..n).filter(|v| !order.contains(v)).collect();
                        if let Some(&v) = free.get(pick % free.len().max(1)) {
                            order.push(v);
                        }
                    }
                    order
                } else {
                    junk
                };
                let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
                (Dataset::from_rows(schema.clone(), &refs).unwrap(), order)
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_every_row(data in dataset_strategy()) {
        let codec = KeyCodec::new(data.schema());
        for row in data.rows() {
            let key = codec.encode(row);
            prop_assert!(key < codec.state_space());
            prop_assert_eq!(codec.decode_full(key), row.to_vec());
        }
    }

    #[test]
    fn all_build_schedules_agree(data in dataset_strategy(), p in 1usize..=6) {
        let reference = sequential_build(&data).unwrap().table.to_sorted_vec();
        let two_stage = waitfree_build(&data, p).unwrap();
        let mut stream = StreamingBuilder::new(data.schema(), p).unwrap();
        stream.absorb(&data).unwrap();
        let streamed = stream.finish().unwrap();
        prop_assert_eq!(two_stage.table.to_sorted_vec(), reference.clone());
        prop_assert_eq!(streamed.table.to_sorted_vec(), reference);
        // Conservation: every row was either applied locally or forwarded
        // and drained, never both, never lost.
        for stats in [&two_stage.stats, &streamed.stats] {
            prop_assert_eq!(stats.total_rows() as usize, data.num_samples());
            prop_assert_eq!(stats.total_forwarded(), stats.total_drained());
            prop_assert_eq!(
                stats.total_local() + stats.total_forwarded(),
                stats.total_rows()
            );
        }
    }

    #[test]
    fn table_mass_equals_sample_count(data in dataset_strategy(), p in 1usize..=6) {
        let built = waitfree_build(&data, p).unwrap();
        prop_assert_eq!(built.table.total_count() as usize, data.num_samples());
        prop_assert!(built.table.num_entries() <= data.num_samples());
    }

    #[test]
    fn marginal_sums_to_m_and_matches_brute_force(
        data in dataset_strategy(),
        p in 1usize..=4,
        threads in 1usize..=4,
    ) {
        let table = waitfree_build(&data, p).unwrap().table;
        let n = data.num_vars();
        // Take every single variable and the first pair (if any).
        let mut var_sets: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        if n >= 2 {
            var_sets.push(vec![0, n - 1]);
        }
        for vars in var_sets {
            let marg = marginalize(&table, &vars, threads).unwrap();
            prop_assert_eq!(marg.sum() as usize, data.num_samples());
            // Brute force from the raw data.
            for idx in 0..marg.num_cells() {
                let mut rest = idx as u64;
                let states: Vec<u16> = marg
                    .arities()
                    .iter()
                    .map(|&r| {
                        let s = (rest % r) as u16;
                        rest /= r;
                        s
                    })
                    .collect();
                let expected = data
                    .rows()
                    .filter(|row| {
                        vars.iter().zip(&states).all(|(&v, &s)| row[v] == s)
                    })
                    .count() as u64;
                prop_assert_eq!(marg.count_at(idx), expected);
            }
        }
    }

    #[test]
    fn information_inequalities_hold(data in dataset_strategy()) {
        let n = data.num_vars();
        prop_assume!(n >= 2);
        let table = sequential_build(&data).unwrap().table;
        let pair = marginalize(&table, &[0, 1], 1).unwrap();
        let mi = mutual_information(&pair);
        let hx = entropy(&pair.collapse(&[0]));
        let hy = entropy(&pair.collapse(&[1]));
        let hxy = entropy(&pair);
        // 0 ≤ I(X;Y) ≤ min(H(X), H(Y)), and I = H(X)+H(Y)−H(X,Y).
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= hx.min(hy) + 1e-9);
        prop_assert!((mi - (hx + hy - hxy)).abs() < 1e-9);
    }

    #[test]
    fn cmi_is_nonnegative_and_consistent(data in dataset_strategy()) {
        let n = data.num_vars();
        prop_assume!(n >= 3);
        let table = sequential_build(&data).unwrap().table;
        let triple = marginalize(&table, &[0, 1, 2], 1).unwrap();
        let cmi = conditional_mutual_information(&triple.reorder(&[0, 1, 2]));
        prop_assert!(cmi >= 0.0);
        // Chain rule check: I(X;Y,Z) = I(X;Y) + I(X;Z|Y) — verify both
        // decompositions of I(X; Y,Z) agree.
        let ixz_given_y = conditional_mutual_information(&triple.reorder(&[0, 2, 1]));
        let ixy = mutual_information(&marginalize(&table, &[0, 1], 1).unwrap());
        let ixz = mutual_information(&marginalize(&table, &[0, 2], 1).unwrap());
        let ixy_given_z = conditional_mutual_information(&triple.reorder(&[0, 1, 2]));
        let lhs = ixy + ixz_given_y;
        let rhs = ixz + ixy_given_z;
        prop_assert!((lhs - rhs).abs() < 1e-9, "chain rule violated: {} vs {}", lhs, rhs);
    }

    #[test]
    fn all_pairs_schedules_agree_on_random_data(data in dataset_strategy(), p in 1usize..=4) {
        prop_assume!(data.num_vars() >= 2);
        let table = waitfree_build(&data, p).unwrap().table;
        for threads in [1usize, 2, 4] {
            let mi = all_pairs_mi(&table, threads);
            for (i, j, v) in mi.iter_pairs() {
                let oracle = mutual_information(&marginalize(&table, &[i, j], 1).unwrap());
                prop_assert_eq!(v, oracle, "pair ({}, {}) at {} threads", i, j, threads);
            }
        }
    }

    #[test]
    fn bit_sliced_all_pairs_equals_the_per_pair_oracle(
        data in sliced_case_strategy(),
        build in 0usize..3,
    ) {
        // Up to 7 partitions, so at P = 7 with few distinct entries some
        // scan threads own none.
        let table = waitfree_build(&data, [1, 4, 7][build]).unwrap().table;
        for threads in [1usize, 2, 3, 4, 7] {
            let mi = all_pairs_mi(&table, threads);
            for (i, j, v) in mi.iter_pairs() {
                let oracle = mutual_information(&marginalize(&table, &[i, j], 1).unwrap());
                prop_assert_eq!(v, oracle, "pair ({}, {}) at {} threads", i, j, threads);
            }
            // The snapshot's stored blocks count the same matrix.
            let packed = PackedTable::pack(&table, threads).unwrap();
            prop_assert_eq!(packed.all_pairs_mi(threads), mi, "snapshot at {} threads", threads);
        }
    }

    #[test]
    fn packed_marginals_equal_sorted_marginals_reordered(
        case in packing_case_strategy(),
        p in 0usize..3,
        threads in 1usize..=4,
    ) {
        let (data, order) = case;
        let table = waitfree_build(&data, [1, 2, 4][p]).unwrap().table;
        let packed = PackedTable::pack(&table, threads).unwrap();
        prop_assert_eq!(packed.num_entries(), table.num_entries());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let oracle = marginalize(&table, &sorted, 1).map(|m| m.reorder(&order));
        prop_assert_eq!(packed.marginalize(&order), oracle);
    }

    #[test]
    fn cut_joint_collapses_to_every_subset_marginal(
        data in dataset_strategy(),
        picks in prop::collection::vec(any::<usize>(), 2..=6),
        threads in 1usize..=3,
    ) {
        // A pair x, y and a cut of up to four further variables, all
        // distinct, drawn from the schema in a random order.
        let n = data.schema().num_vars();
        let mut order: Vec<usize> = Vec::new();
        for pick in &picks {
            let mut free: Vec<usize> = (0..n).filter(|v| !order.contains(v)).collect();
            if free.is_empty() {
                break;
            }
            order.push(free.swap_remove(pick % free.len()));
        }
        prop_assume!(order.len() >= 2);
        let table = waitfree_build(&data, 2).unwrap().table;
        let packed = PackedTable::pack(&table, threads).unwrap();
        let joint = packed.marginalize(&order).unwrap();
        let cut = order.len() - 2;
        for mask in 0u32..1 << cut {
            let keep: Vec<usize> = [0, 1]
                .into_iter()
                .chain((0..cut).filter(|i| mask & (1 << i) != 0).map(|i| i + 2))
                .collect();
            let vars: Vec<usize> = keep.iter().map(|&k| order[k]).collect();
            prop_assert_eq!(joint.collapse(&keep), packed.marginalize(&vars).unwrap());
        }
    }
}
