//! Shared harness for the figure-regeneration binaries.
//!
//! Each binary (`fig3`, `fig4`, `fig5`, `repro`) prints the same series the
//! corresponding figure of the paper plots — running time and speedup versus
//! the number of cores — in two modes:
//!
//! * **sim** — the PRAM cost-model simulator (`wfbn-pram`): deterministic,
//!   host-independent, reproduces the paper's 32-core platform shape on any
//!   machine. This is the default and the mode EXPERIMENTS.md records.
//! * **wall** — real threads and `std::time::Instant`. Meaningful only on a
//!   multicore host; on a single-core machine the curves flatten (the
//!   harness prints the host's core count so readers can judge).
//!
//! Run `cargo run -p wfbn-bench --release --bin fig3 -- --help` for options.

#![warn(missing_docs)]

pub mod args;
pub mod cluster_bench;
pub mod runner;
pub mod series;
pub mod serve_bench;
pub mod snapshot;

pub use args::HarnessArgs;
pub use runner::{wall_time_median, Mode};
pub use series::{format_markdown_table, Series};
