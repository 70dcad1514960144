//! Shared harness for the figure-regeneration binaries.
//!
//! Each binary (`fig3`, `fig4`, `fig5`, `repro`) prints the same series the
//! corresponding figure of the paper plots — running time and speedup versus
//! the number of cores — from the PRAM cost-model simulator (`wfbn-pram`):
//! deterministic, host-independent, and reproducing the paper's 32-core
//! platform shape on any machine. Wall-clock measurements of the same
//! primitives live in `benchmark/`, the repository's one wall-clock harness.
//!
//! Run `cargo run -p wfbn-bench --release --bin fig3 -- --help` for options.

#![warn(missing_docs)]

pub mod args;
pub mod runner;
pub mod series;
pub mod serve_bench;
pub mod snapshot;

pub use args::HarnessArgs;
pub use series::{format_markdown_table, Series};
