//! Bayesian-network substrate and the full three-phase structure learner.
//!
//! The IPPS 2014 paper parallelizes the *first phase* of Cheng et al.'s
//! information-theoretic structure-learning algorithm (Artificial
//! Intelligence 137, 2002). A primitive is only as useful as the system it
//! initializes, so this crate supplies everything around it:
//!
//! * [`graph`] — DAGs with cycle-checked edge insertion and undirected
//!   skeletons with path/cut-set queries;
//! * [`dsep`] — d-separation (the reachable procedure of Koller & Friedman);
//! * [`cpt`]/[`network`] — conditional probability tables, joint evaluation
//!   and ancestral sampling (turning a ground-truth network into training
//!   data);
//! * [`repository`] — classic benchmark networks (Sprinkler, Cancer, Asia,
//!   Insurance-like, Alarm-like) plus seeded random network generators;
//! * [`ci`] — conditional-independence tests (mutual-information threshold
//!   and the G-test with a χ² p-value), computed *through the paper's
//!   primitives* (potential table + parallel marginalization);
//! * [`cheng`] — the three phases: drafting (parallel all-pairs MI),
//!   thickening, thinning, and edge orientation (v-structures + Meek rules);
//! * [`metrics`] — structural hamming distance, precision/recall against a
//!   ground-truth skeleton.
//!
//! # End-to-end example
//!
//! ```
//! use wfbn_bn::cheng::ChengLearner;
//! use wfbn_bn::repository;
//!
//! let net = repository::sprinkler();
//! let data = net.sample(20_000, 7);
//! let learned = ChengLearner::default().learn(&data).unwrap();
//! // The sprinkler skeleton has 4 edges; we should recover most of them.
//! let truth = net.dag().skeleton();
//! let report = wfbn_bn::metrics::skeleton_report(&truth, &learned.skeleton);
//! assert!(report.f1() > 0.7, "{report:?}");
//! ```

#![warn(missing_docs)]

pub mod cheng;
pub mod chowliu;
pub mod ci;
pub mod cpt;
pub mod dsep;
pub mod estimate;
pub mod graph;
pub mod hillclimb;
pub mod infer;
pub mod metrics;
pub mod network;
pub mod pdag;
pub mod repository;
pub mod score;

pub use cheng::{ChengLearner, LearnResult};
pub use chowliu::{chow_liu, ChowLiuTree};
pub use cpt::Cpt;
pub use estimate::{fit_network, mean_log_likelihood};
pub use graph::{Dag, GraphError, Ug};
pub use hillclimb::{HillClimbResult, HillClimber};
pub use infer::posterior;
pub use network::BayesNet;
pub use pdag::PDag;
pub use score::BicScorer;
