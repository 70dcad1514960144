//! Benchmark networks and seeded random-network generators.
//!
//! The classics (Sprinkler, Cancer, Asia) are encoded with their published
//! CPTs. The larger networks from the Bayesian-network repository the paper
//! cites (Alarm: 37 nodes / 46 edges; Insurance: 27 nodes / 52 edges) are
//! provided *structurally at the same scale* with seeded synthetic CPTs —
//! the original parameter files are external data this reproduction does not
//! vendor, and for evaluating the parallel primitives only the scale and the
//! sparsity of the induced state strings matter. They are accordingly named
//! `alarm_like`/`insurance_like`, not `alarm`/`insurance`.

use crate::cpt::Cpt;
use crate::graph::Dag;
use crate::network::BayesNet;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wfbn_data::Schema;

/// Pearl's Sprinkler network: Cloudy → {Sprinkler, Rain} → WetGrass.
///
/// Variables: 0 = Cloudy, 1 = Sprinkler, 2 = Rain, 3 = WetGrass.
pub fn sprinkler() -> BayesNet {
    let schema = Schema::uniform(4, 2).unwrap();
    let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let cpts = vec![
        Cpt::binary_root(0, 0.5).unwrap(),
        // P(S=1 | C): 0.5 if clear, 0.1 if cloudy.
        Cpt::new(1, vec![0], vec![2], 2, vec![0.5, 0.5, 0.9, 0.1]).unwrap(),
        // P(R=1 | C): 0.2 if clear, 0.8 if cloudy.
        Cpt::new(2, vec![0], vec![2], 2, vec![0.8, 0.2, 0.2, 0.8]).unwrap(),
        // P(W=1 | S, R), first parent (S) fastest: (0,0) (1,0) (0,1) (1,1).
        Cpt::new(
            3,
            vec![1, 2],
            vec![2, 2],
            2,
            vec![
                1.0, 0.0, // no sprinkler, no rain
                0.1, 0.9, // sprinkler only
                0.1, 0.9, // rain only
                0.01, 0.99, // both
            ],
        )
        .unwrap(),
    ];
    BayesNet::new(schema, dag, cpts).unwrap()
}

/// The Cancer network (Korb & Nicholson).
///
/// Variables: 0 = Pollution (0 = low, 1 = high), 1 = Smoker, 2 = Cancer,
/// 3 = X-ray, 4 = Dyspnoea.
pub fn cancer() -> BayesNet {
    let schema = Schema::uniform(5, 2).unwrap();
    let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
    let cpts = vec![
        Cpt::binary_root(0, 0.1).unwrap(), // P(high pollution)
        Cpt::binary_root(1, 0.3).unwrap(),
        // P(C=1 | P, S), P fastest: (0,0) (1,0) (0,1) (1,1).
        Cpt::new(
            2,
            vec![0, 1],
            vec![2, 2],
            2,
            vec![
                0.999, 0.001, // low pollution, non-smoker
                0.98, 0.02, // high pollution, non-smoker
                0.97, 0.03, // low pollution, smoker
                0.95, 0.05, // high pollution, smoker
            ],
        )
        .unwrap(),
        Cpt::new(3, vec![2], vec![2], 2, vec![0.8, 0.2, 0.1, 0.9]).unwrap(),
        Cpt::new(4, vec![2], vec![2], 2, vec![0.7, 0.3, 0.35, 0.65]).unwrap(),
    ];
    BayesNet::new(schema, dag, cpts).unwrap()
}

/// The Asia ("chest clinic") network of Lauritzen & Spiegelhalter.
///
/// Variables: 0 = VisitAsia, 1 = Tuberculosis, 2 = Smoking, 3 = LungCancer,
/// 4 = Bronchitis, 5 = Either (T ∨ L), 6 = X-ray, 7 = Dyspnoea.
pub fn asia() -> BayesNet {
    let schema = Schema::uniform(8, 2).unwrap();
    let dag = Dag::from_edges(
        8,
        &[
            (0, 1),
            (2, 3),
            (2, 4),
            (1, 5),
            (3, 5),
            (5, 6),
            (5, 7),
            (4, 7),
        ],
    )
    .unwrap();
    let cpts = vec![
        Cpt::binary_root(0, 0.01).unwrap(),
        Cpt::new(1, vec![0], vec![2], 2, vec![0.99, 0.01, 0.95, 0.05]).unwrap(),
        Cpt::binary_root(2, 0.5).unwrap(),
        Cpt::new(3, vec![2], vec![2], 2, vec![0.99, 0.01, 0.9, 0.1]).unwrap(),
        Cpt::new(4, vec![2], vec![2], 2, vec![0.7, 0.3, 0.4, 0.6]).unwrap(),
        // Either = T ∨ L (deterministic OR), parents (1, 3), first fastest.
        Cpt::new(
            5,
            vec![1, 3],
            vec![2, 2],
            2,
            vec![
                1.0, 0.0, // ¬T, ¬L
                0.0, 1.0, // T, ¬L
                0.0, 1.0, // ¬T, L
                0.0, 1.0, // T, L
            ],
        )
        .unwrap(),
        Cpt::new(6, vec![5], vec![2], 2, vec![0.95, 0.05, 0.02, 0.98]).unwrap(),
        // P(D=1 | B, E), B fastest: (0,0) (1,0) (0,1) (1,1).
        Cpt::new(
            7,
            vec![4, 5],
            vec![2, 2],
            2,
            vec![0.9, 0.1, 0.2, 0.8, 0.3, 0.7, 0.1, 0.9],
        )
        .unwrap(),
    ];
    BayesNet::new(schema, dag, cpts).unwrap()
}

/// A random DAG over `n` nodes with (up to) `target_edges` edges and at most
/// `max_parents` parents per node, deterministic in `seed`.
///
/// Edges always point from a lower to a higher position in a random
/// permutation, guaranteeing acyclicity by construction.
pub fn random_dag(n: usize, target_edges: usize, max_parents: usize, seed: u64) -> Dag {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Random topological order.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut dag = Dag::new(n);
    let mut attempts = 0usize;
    let max_attempts = target_edges * 20 + 100;
    while dag.num_edges() < target_edges && attempts < max_attempts {
        attempts += 1;
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        if a == b {
            continue;
        }
        // Orient along the hidden order.
        let (lo, hi) = if order[a] < order[b] { (a, b) } else { (b, a) };
        if dag.parents(hi).len() >= max_parents || dag.adjacent(lo, hi) {
            continue;
        }
        dag.add_edge(lo, hi)
            .expect("order-respecting edges are acyclic");
    }
    dag
}

/// Equips a DAG with random CPTs over the given schema.
///
/// `determinism ∈ [0.5, 1)` controls how peaked each conditional row is:
/// one state gets probability ≈ `determinism`, the rest share the remainder.
/// Peaked CPTs give the learner a detectable signal; `determinism = 0.5` on
/// binary nodes is pure noise.
pub(crate) fn random_cpts(schema: &Schema, dag: &Dag, determinism: f64, seed: u64) -> Vec<Cpt> {
    assert!(
        (0.5..1.0).contains(&determinism),
        "determinism must be in [0.5, 1)"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..schema.num_vars())
        .map(|v| {
            let parents = dag.parents(v).to_vec();
            let parent_arities: Vec<u16> = parents.iter().map(|&p| schema.arity(p)).collect();
            let arity = schema.arity(v) as usize;
            let configs: usize = parent_arities.iter().map(|&r| r as usize).product();
            let mut probs = Vec::with_capacity(configs * arity);
            for _ in 0..configs {
                let dominant = rng.random_range(0..arity);
                let peak = determinism + rng.random::<f64>() * (0.98 - determinism);
                let rest = (1.0 - peak) / (arity - 1).max(1) as f64;
                for s in 0..arity {
                    probs.push(if s == dominant {
                        if arity == 1 {
                            1.0
                        } else {
                            peak
                        }
                    } else {
                        rest
                    });
                }
            }
            Cpt::new(v, parents, parent_arities, arity as u16, probs)
                .expect("generated rows are normalized")
        })
        .collect()
}

/// A random network: [`random_dag`] + `random_cpts` over a uniform-arity
/// schema.
pub fn random_net(
    n: usize,
    arity: u16,
    target_edges: usize,
    max_parents: usize,
    determinism: f64,
    seed: u64,
) -> BayesNet {
    let schema = Schema::uniform(n, arity).unwrap();
    let dag = random_dag(n, target_edges, max_parents, seed);
    let cpts = random_cpts(&schema, &dag, determinism, seed ^ 0x5eed);
    BayesNet::new(schema, dag, cpts).unwrap()
}

/// An Alarm-scale network: 37 nodes, ~46 edges, arities 2–4, seeded CPTs.
///
/// Structure and parameters are synthetic (see module docs); the scale and
/// sparsity match the ALARM benchmark the repository the paper cites hosts.
pub fn alarm_like() -> BayesNet {
    let n = 37;
    let mut rng = SmallRng::seed_from_u64(0xa1a4);
    let arities: Vec<u16> = (0..n).map(|_| rng.random_range(2..=4)).collect();
    let schema = Schema::new(arities).unwrap();
    let dag = random_dag(n, 46, 3, 0xa1a4);
    let cpts = random_cpts(&schema, &dag, 0.75, 0xa1a4 ^ 0x5eed);
    BayesNet::new(schema, dag, cpts).unwrap()
}

/// An Insurance-scale network: 27 nodes, ~52 edges, arities 2–5, seeded CPTs.
pub fn insurance_like() -> BayesNet {
    let n = 27;
    let mut rng = SmallRng::seed_from_u64(0x1a5);
    let arities: Vec<u16> = (0..n).map(|_| rng.random_range(2..=5)).collect();
    let schema = Schema::new(arities).unwrap();
    let dag = random_dag(n, 52, 3, 0x1234);
    let cpts = random_cpts(&schema, &dag, 0.75, 0x1234 ^ 0x5eed);
    BayesNet::new(schema, dag, cpts).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsep::d_separated;

    #[test]
    fn classic_networks_assemble() {
        assert_eq!(sprinkler().num_vars(), 4);
        assert_eq!(cancer().num_vars(), 5);
        let asia = asia();
        assert_eq!(asia.num_vars(), 8);
        assert_eq!(asia.dag().num_edges(), 8);
    }

    #[test]
    fn asia_encodes_expected_independencies() {
        let net = asia();
        let g = net.dag();
        // Smoking ⟂ VisitAsia.
        assert!(d_separated(g, 2, 0, &[]));
        // X-ray ⟂ Smoking given Either.
        assert!(d_separated(g, 6, 2, &[5]));
        // Tuberculosis and LungCancer are marginally independent, dependent
        // given Either (collider).
        assert!(d_separated(g, 1, 3, &[]));
        assert!(!d_separated(g, 1, 3, &[5]));
    }

    #[test]
    fn sprinkler_joint_sums_to_one() {
        let net = sprinkler();
        let mut total = 0.0;
        for key in 0..16u16 {
            let states: Vec<u16> = (0..4).map(|j| (key >> j) & 1).collect();
            total += net.joint_prob(&states);
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_dag_respects_limits() {
        let dag = random_dag(20, 30, 3, 7);
        assert!(dag.num_edges() <= 30);
        assert!(dag.num_edges() >= 20, "generator too conservative");
        for v in 0..20 {
            assert!(dag.parents(v).len() <= 3);
        }
        // Determinism.
        assert_eq!(dag.edges(), random_dag(20, 30, 3, 7).edges());
        assert_ne!(dag.edges(), random_dag(20, 30, 3, 8).edges());
    }

    #[test]
    fn scale_networks_sample() {
        for net in [alarm_like(), insurance_like()] {
            let d = net.sample(200, 3);
            assert_eq!(d.num_samples(), 200);
            for row in d.rows() {
                assert!(net.schema().validates_row(row));
            }
        }
        assert_eq!(alarm_like().num_vars(), 37);
        assert_eq!(insurance_like().num_vars(), 27);
    }

    #[test]
    fn random_cpts_are_peaked() {
        let net = random_net(10, 2, 12, 3, 0.85, 5);
        // Every CPT row's max probability should be ≥ determinism.
        for v in 0..10 {
            let cpt = net.cpt(v);
            let configs: usize = cpt
                .parents()
                .iter()
                .map(|&p| net.schema().arity(p) as usize)
                .product();
            for c in 0..configs {
                // Reconstruct parent states for config c.
                let mut rest = c;
                let parent_states: Vec<u16> = cpt
                    .parents()
                    .iter()
                    .map(|&p| {
                        let r = net.schema().arity(p) as usize;
                        let s = (rest % r) as u16;
                        rest /= r;
                        s
                    })
                    .collect();
                let row = cpt.row(&parent_states);
                let max = row.iter().cloned().fold(0.0, f64::max);
                assert!(max >= 0.85, "var {v} config {c}: {row:?}");
            }
        }
    }
}
