//! `wfbn-workload` — deterministic adversarial workloads and latency-SLO
//! gates for the serving layer.
//!
//! The paper's wait-free construction is evaluated on friendly data:
//! uniform keys spread evenly over the `key % P` partitions. This crate
//! supplies the *unfriendly* side — a library of named, seedable traffic
//! shapes ([`Scenario`]) that stress exactly the properties the serving
//! layer claims:
//!
//! | scenario | what it attacks |
//! |---|---|
//! | `uniform` | nothing — the baseline the gates compare against |
//! | `zipf` | partition balance, via Zipf(1.2)-skewed states |
//! | `burst` | admission control, via flash-crowd INGEST with idle gaps |
//! | `adversarial-partition` | one core's `key % P` slice owns every row |
//! | `wide-sparse` | sparse tables at `n = 48` variables |
//! | `hot-query` | reader latency, via high-arity marginals and CPTs |
//! | `starve-reader` | *the gate itself* — a negative control that must fail |
//!
//! Generation ([`generate`]) is a pure function of the [`WorkloadSpec`]:
//! the same spec yields byte-identical row and query streams on any host
//! and any partition count (the property suite proves it across
//! `P ∈ {1, 2, 4, 8}`), witnessed by an FNV-1a [`fingerprint`] the bench
//! baseline pins. The [`driver`] replays a workload against a live
//! [`wfbn_serve::Engine`] with racing reader threads, and [`gates`] holds
//! the two CI SLOs: bounded reader fairness and bounded skewed-scenario
//! p99. The crate is pure harness — it adds no atomics and no locks, and
//! the wait-free hot path it drives stays exactly as `wfbn-analyze`
//! ratchets it.
//!
//! [`fingerprint`]: GeneratedWorkload::fingerprint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod gates;
pub mod scenario;

pub use driver::{replay, ReplayConfig, ScenarioReport};
pub use gates::{
    check_fairness, check_skew_p99, FAIRNESS_BOUND, MIN_SKEW_SAMPLES, SKEW_P99_MULTIPLE,
};
pub use scenario::{
    generate, GeneratedWorkload, IngestEvent, Query, Scenario, WorkloadError, WorkloadSpec,
};
