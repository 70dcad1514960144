//! [`QueryReader`]: one serving thread's lock-free view of the table.
//!
//! A reader owns three things outright — its epoch lane, its marginal cache,
//! and its telemetry core — so the entire query path is single-writer by
//! construction. Pinning an epoch is a bounded drain of the private lane
//! (wait-free); answering a query reads the pinned immutable snapshot;
//! nothing a reader does can block the writer or another reader.
//!
//! Request batching: [`QueryReader::answer_batch`] deduplicates the scopes
//! of a fused request group and computes every cache-missing marginal from
//! the pinned epoch's packed snapshot ([`MarginalCache::answer`]), which the
//! writer packed before publishing the epoch. A batch of `k` same-scope
//! queries costs one scan, not `k`, and no query packs.

use crate::cache::MarginalCache;
use crate::engine::Epoch;
use crate::ServeError;
use std::sync::Arc;
use wfbn_concurrent::epoch::EpochReader;
use wfbn_core::entropy::mutual_information;
use wfbn_core::MarginalTable;
use wfbn_obs::{CoreRecorder, Counter, Recorder};

/// One row of a conditional probability table: a parent-state assignment
/// (in sorted-parent order) and `P(x | parents)` over the child's states.
#[derive(Debug, Clone, PartialEq)]
pub struct CptRow {
    /// States of the parent variables, in sorted-variable order.
    pub parent_states: Vec<u16>,
    /// `P(X = s | parents)` for each child state `s`; all zero when the
    /// parent configuration was never observed.
    pub probs: Vec<f64>,
}

/// A reader endpoint answering queries against pinned epoch snapshots; see
/// the [module docs](self).
pub struct QueryReader<R: Recorder> {
    lane: EpochReader<Epoch>,
    cache: MarginalCache,
    rec: Arc<R>,
    core: usize,
}

impl<R: Recorder> QueryReader<R> {
    pub(crate) fn new(lane: EpochReader<Epoch>, rec: Arc<R>, core: usize) -> Self {
        QueryReader {
            lane,
            cache: MarginalCache::new(),
            rec,
            core,
        }
    }

    /// The telemetry core index this reader records on.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The epoch currently pinned (0 before the first publication).
    pub fn pinned_epoch(&self) -> u64 {
        self.lane.pinned_epoch()
    }

    /// The newest epoch the writer has made visible (Acquire load).
    pub fn published(&self) -> u64 {
        self.lane.published()
    }

    /// `true` once the engine has finished or been dropped; the currently
    /// pinned epoch (after one final [`pin`](Self::pin)) is then the last
    /// there will ever be.
    pub fn is_closed(&self) -> bool {
        self.lane.is_closed()
    }

    /// Number of scopes currently held by this reader's marginal cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cells of every marginal this reader's cache holds.
    pub fn cache_cells(&self) -> u64 {
        self.cache.cells()
    }

    /// Advances to the newest published epoch, flushing the marginal cache
    /// and counting an `epochs_pinned` event if the epoch moved. Returns
    /// `None` until the first publication reaches this reader.
    pub fn pin(&mut self) -> Option<(u64, Arc<Epoch>)> {
        let before = self.lane.pinned_epoch();
        let pinned = self.lane.pin().map(|(e, epoch)| (e, Arc::clone(epoch)));
        if let Some((epoch, _)) = pinned {
            if epoch != before {
                self.cache.refresh(epoch);
                self.rec.core(self.core).add(Counter::EpochsPinned, 1);
            }
        }
        pinned
    }

    /// Answers a fused group of marginal queries against one pinned epoch.
    ///
    /// Returns the epoch served and one marginal per requested scope, in
    /// request order. Scopes must be strictly increasing variable lists
    /// (the potential-table codec's canonical form). Cache-missing scopes
    /// are deduplicated and each is read from the epoch's packed snapshot.
    pub fn answer_batch(
        &mut self,
        scopes: &[&[usize]],
    ) -> Result<(u64, Vec<Arc<MarginalTable>>), ServeError> {
        let (epoch, pinned) = self.pin().ok_or(ServeError::NothingPublished)?;
        let answers = self.cache.answer(&pinned, scopes, &*self.rec, self.core)?;
        Ok((epoch, answers))
    }

    /// Marginal table over `scope` (strictly increasing variables) at the
    /// newest published epoch.
    pub fn marginal(&mut self, scope: &[usize]) -> Result<(u64, Arc<MarginalTable>), ServeError> {
        let (epoch, mut answers) = self.answer_batch(&[scope])?;
        Ok((epoch, answers.pop().ok_or(ServeError::MissingAnswer)?))
    }

    /// Mutual information `I(X_i; X_j)` in nats at the newest published
    /// epoch. Computed exactly as the offline path (`wfbn mi`): pairwise
    /// joint counts, then Eq. 1 — identical counts give an identical value.
    pub fn mi(&mut self, i: usize, j: usize) -> Result<(u64, f64), ServeError> {
        if i == j {
            return Err(ServeError::Protocol(format!("MI of X{i} with itself")));
        }
        let (epoch, pair) = self.marginal(&[i.min(j), i.max(j)])?;
        // The joint is symmetric in (i, j): I(X_i; X_j) needs no reorder.
        Ok((epoch, mutual_information(&pair)))
    }

    /// Conditional probability table `P(X_x | parents)` at the newest
    /// published epoch.
    ///
    /// Returns the epoch, the parent variables in sorted order (the order
    /// of [`CptRow::parent_states`]), and one row per parent configuration
    /// in mixed-radix order (first sorted parent varies fastest).
    #[allow(clippy::type_complexity)]
    pub fn cpt(
        &mut self,
        x: usize,
        parents: &[usize],
    ) -> Result<(u64, Vec<usize>, Vec<CptRow>), ServeError> {
        if parents.contains(&x) {
            return Err(ServeError::Protocol(format!(
                "X{x} cannot be its own parent"
            )));
        }
        let mut scope: Vec<usize> = parents.to_vec();
        scope.sort_unstable();
        scope.dedup();
        if scope.len() != parents.len() {
            return Err(ServeError::Protocol("duplicate parent variable".into()));
        }
        let sorted_parents = scope.clone();
        scope.push(x);
        scope.sort_unstable();
        let (epoch, joint) = self.marginal(&scope)?;
        Ok((epoch, sorted_parents, cpt_rows(&joint, x)))
    }
}

/// Splits a joint marginal containing `x` into the rows of `P(x | rest)`.
///
/// `joint.vars()` must contain `x`; every other variable is treated as a
/// parent. Rows come out in mixed-radix parent-configuration order (first
/// sorted parent varies fastest), matching [`CptRow`]'s documentation.
/// Public so an offline caller (the wall-clock benchmark's answer check)
/// derives CPT rows with the identical layout the server prints.
///
/// # Panics
///
/// Panics if `x` is not a variable of `joint`. No server path can pass
/// such a pair: [`QueryReader::cpt`] and the protocol's `CPT` clause both
/// build the scope from the parents plus `x`, and the reader answers a
/// scope with a marginal over exactly that scope.
pub fn cpt_rows(joint: &MarginalTable, x: usize) -> Vec<CptRow> {
    let scope = joint.vars();
    let pos_x = scope.iter().position(|&v| v == x).expect("x is in scope");
    let arities = joint.arities();
    let rx = arities[pos_x] as usize;
    let cfgs: usize = arities
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != pos_x)
        .map(|(_, &r)| r as usize)
        .product();

    // The joint's cells are little-endian mixed radix over `scope`;
    // peel each index into (parent configuration, child state).
    let mut counts = vec![0u64; cfgs * rx];
    let mut dens = vec![0u64; cfgs];
    for idx in 0..joint.num_cells() {
        let c = joint.count_at(idx);
        let mut rest = idx as u64;
        let mut cfg = 0u64;
        let mut cfg_stride = 1u64;
        let mut xs = 0usize;
        for (k, &r) in arities.iter().enumerate() {
            let s = rest % r;
            rest /= r;
            if k == pos_x {
                xs = s as usize;
            } else {
                cfg += s * cfg_stride;
                cfg_stride *= r;
            }
        }
        counts[cfg as usize * rx + xs] += c;
        dens[cfg as usize] += c;
    }

    let parent_arities: Vec<u64> = scope
        .iter()
        .zip(arities)
        .filter(|&(&v, _)| v != x)
        .map(|(_, &r)| r)
        .collect();
    (0..cfgs)
        .map(|cfg| {
            let mut rest = cfg as u64;
            let parent_states = parent_arities
                .iter()
                .map(|&r| {
                    let s = (rest % r) as u16;
                    rest /= r;
                    s
                })
                .collect();
            let den = dens[cfg];
            let probs = (0..rx)
                .map(|s| {
                    if den == 0 {
                        0.0
                    } else {
                        counts[cfg * rx + s] as f64 / den as f64
                    }
                })
                .collect();
            CptRow {
                parent_states,
                probs,
            }
        })
        .collect()
}
