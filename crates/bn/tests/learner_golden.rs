//! Golden test for the three-phase learner.
//!
//! `golden/learner.txt` holds, for five repository networks at fixed seeds
//! and row counts, the learned pattern, every separating set and the
//! per-phase counters (including the number of CI tests). A change to how
//! the learner computes its statistics must leave every line unchanged, at
//! every thread count.

use std::fmt::Write as _;
use wfbn_bn::cheng::ChengLearner;
use wfbn_bn::{repository, BayesNet, LearnResult};

/// `(name, network, rows, seed)` of every golden case.
fn cases() -> Vec<(&'static str, BayesNet, usize, u64)> {
    vec![
        ("sprinkler", repository::sprinkler(), 20_000, 1),
        ("cancer", repository::cancer(), 20_000, 2),
        ("asia", repository::asia(), 20_000, 3),
        ("alarm_like", repository::alarm_like(), 5_000, 4),
        ("insurance_like", repository::insurance_like(), 5_000, 5),
    ]
}

/// One case's learn at `threads`.
fn learn(net: &BayesNet, rows: usize, seed: u64, threads: usize) -> LearnResult {
    let learner = ChengLearner {
        threads,
        ..ChengLearner::default()
    };
    learner
        .learn(&net.sample(rows, seed))
        .expect("golden learn succeeds")
}

/// One case's learn, rendered with every map sorted so the text repeats.
fn render(name: &str, net: &BayesNet, rows: usize, seed: u64, threads: usize) -> String {
    let r = learn(net, rows, seed, threads);
    let s = r.stats;
    let mut out = format!("{name} rows={rows} seed={seed}\n");
    writeln!(
        out,
        "stats draft_edges={} deferred_pairs={} thickening_added={} thinning_removed={} ci_tests={}",
        s.draft_edges, s.deferred_pairs, s.thickening_added, s.thinning_removed, s.ci_tests
    )
    .unwrap();
    let directed: Vec<String> = r
        .cpdag
        .directed_edges()
        .iter()
        .map(|(u, v)| format!("{u}>{v}"))
        .collect();
    writeln!(out, "directed {}", directed.join(" ")).unwrap();
    let undirected: Vec<String> = r
        .cpdag
        .undirected_edges()
        .iter()
        .map(|(u, v)| format!("{u}-{v}"))
        .collect();
    writeln!(out, "undirected {}", undirected.join(" ")).unwrap();
    let mut sepsets: Vec<_> = r.sepsets.iter().collect();
    sepsets.sort();
    for ((x, y), z) in sepsets {
        let z: Vec<String> = z.iter().map(usize::to_string).collect();
        writeln!(out, "sepset {x},{y}: {}", z.join(" ")).unwrap();
    }
    out
}

#[test]
fn learner_output_matches_the_golden_file_at_every_thread_count() {
    let golden = include_str!("golden/learner.txt");
    for threads in [1, 2, 4] {
        let got: String = cases()
            .iter()
            .map(|(name, net, rows, seed)| render(name, net, *rows, *seed, threads))
            .collect();
        if got != golden {
            let first = got
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(got.lines().count().min(golden.lines().count()));
            panic!(
                "threads={threads}: learner output differs from golden/learner.txt at line {}:\n  \
                 got:    {:?}\n  golden: {:?}",
                first + 1,
                got.lines().nth(first),
                golden.lines().nth(first)
            );
        }
    }
}

#[test]
fn separation_searches_share_one_scan_across_their_tests() {
    // Not in the golden render: the scan and memo-hit counts are how the
    // tests are computed, not what the learner answers.
    let (_, net, rows, seed) = cases()
        .into_iter()
        .find(|c| c.0 == "alarm_like")
        .expect("alarm_like is a golden case");
    let s = learn(&net, rows, seed, 2).stats;
    assert!(
        s.ci_scans > 0 && s.ci_scans < s.ci_tests / 2,
        "ci_scans={} ci_tests={}",
        s.ci_scans,
        s.ci_tests
    );
    // Thinning repeats some of the learn's (pair, cut) searches.
    assert!(s.ci_memo_hits > 0, "{s:?}");
}
