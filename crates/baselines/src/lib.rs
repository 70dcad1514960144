//! Baseline potential-table builders the wait-free primitive is compared
//! against.
//!
//! The paper's experimental baseline is Intel TBB's `concurrent_hash_map` —
//! a shared hash table made thread-safe "with the aid of a lock operation".
//! TBB itself is a C++ library; [`striped::StripedLockBuilder`] is the
//! closest structural equivalent (fine-grained per-stripe locking over a
//! shared table; see DESIGN.md §3 for the substitution argument). Around it
//! this crate ships a whole ladder of alternatives so the comparison is
//! richer than the paper's single baseline:
//!
//! | builder | sharing | synchronization |
//! |---|---|---|
//! | [`sequential::SequentialBuilder`] | — | none (speedup denominator) |
//! | [`global_mutex::GlobalMutexBuilder`] | one table | one `Mutex` |
//! | [`striped::StripedLockBuilder`] | one table | per-stripe `Mutex` (TBB analog) |
//! | [`atomic_array::AtomicArrayBuilder`] | dense array | `fetch_add` per cell |
//! | [`WaitFreeBuilder`] | none | one barrier (the paper's primitive) |
//!
//! All builders implement [`TableBuilder`] and produce identical count
//! multisets (verified by the cross-implementation equivalence suite in
//! `tests/cross_impl_equivalence.rs`).

#![warn(missing_docs)]

pub mod api;
pub mod atomic_array;
pub mod global_mutex;
pub mod sequential;
pub mod striped;

pub use api::{BaselineError, CountsView, TableBuilder};
pub use atomic_array::AtomicArrayBuilder;
pub use global_mutex::GlobalMutexBuilder;
pub use sequential::SequentialBuilder;
pub use striped::StripedLockBuilder;

use wfbn_core::construct::waitfree_build;
use wfbn_data::Dataset;

/// The paper's wait-free two-stage primitive, behind the common
/// [`TableBuilder`] interface.
#[derive(Debug, Default, Clone, Copy)]
pub struct WaitFreeBuilder;

impl TableBuilder for WaitFreeBuilder {
    fn name(&self) -> &'static str {
        "wait-free"
    }

    fn build(&self, data: &Dataset, threads: usize) -> Result<Box<dyn CountsView>, BaselineError> {
        let built = waitfree_build(data, threads)?;
        Ok(Box::new(built.table))
    }
}

/// Every builder in the ladder, for harness loops.
pub fn all_builders() -> Vec<Box<dyn TableBuilder>> {
    vec![
        Box::new(SequentialBuilder),
        Box::new(GlobalMutexBuilder),
        Box::new(StripedLockBuilder::default()),
        Box::new(AtomicArrayBuilder::default()),
        Box::new(WaitFreeBuilder),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_data::{Generator, Schema, UniformIndependent};

    #[test]
    fn ladder_builders_have_unique_names() {
        let names: Vec<&str> = all_builders().iter().map(|b| b.name()).collect();
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn every_builder_counts_the_same_multiset() {
        let schema = Schema::new(vec![2, 3, 2, 2]).unwrap();
        let data = UniformIndependent::new(schema).generate(3_000, 17);
        let reference = SequentialBuilder.build(&data, 1).unwrap().to_sorted_vec();
        for builder in all_builders() {
            for threads in [1usize, 2, 4] {
                let out = builder.build(&data, threads).unwrap();
                assert_eq!(
                    out.to_sorted_vec(),
                    reference,
                    "{} with {threads} threads",
                    builder.name()
                );
                assert_eq!(out.total_count(), 3_000);
            }
        }
    }
}
