//! The cycle-cost model.
//!
//! Costs are order-of-magnitude figures for a ~2.4 GHz x86-64 core (the
//! paper's Opteron 6278 runs at 2.4 GHz). They are deliberately coarse —
//! the simulator's purpose is curve *shape*, not absolute nanoseconds — and
//! every experiment in EXPERIMENTS.md states the model used.

/// Per-operation cycle costs charged by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Encoding one variable of a state string: one multiply-accumulate plus
    /// the load of the state (L1-resident, streaming).
    pub encode_var: f64,
    /// One hash-table slot inspection (L1/L2 mix at our table sizes).
    pub probe: f64,
    /// Completing a count update once the slot is found (store + counter).
    pub update: f64,
    /// One SPSC queue push: slot store + release length store.
    pub queue_push: f64,
    /// One SPSC queue pop, *excluding* coherence traffic (charged
    /// separately via `line_transfer` amortized over `keys_per_line`).
    pub queue_pop: f64,
    /// Keys per transferred cache line (64-byte line / 8-byte key); the
    /// consumer pays one line transfer per this many pops.
    pub keys_per_line: f64,
    /// Cross-core cache-line transfer (remote L2/L3 hit).
    pub line_transfer: f64,
    /// Fixed cost of one barrier episode.
    pub barrier_base: f64,
    /// Additional barrier cost per participating core (linear fan-in).
    pub barrier_per_core: f64,
    /// Uncontended mutex acquire+release (one atomic RMW each way).
    pub lock_cycle: f64,
    /// Decoding one variable from a key: one 64-bit divide + modulo.
    pub decode_var: f64,
    /// One dense marginal-cell accumulate.
    pub marginal_update: f64,
    /// Per-cell cost of the MI evaluation loop (log, multiply, branch).
    pub mi_cell: f64,
    /// Per-row loop overhead (pointer bump, bounds, branch).
    pub row_overhead: f64,
    /// Encoding one variable under block encoding (`encode_rows`): the
    /// 4-row micro-tile breaks the per-row multiply-accumulate dependency
    /// chain, so the out-of-order core retires ~2 mul-adds per cycle
    /// instead of ~1 — a per-variable cost below the scalar `encode_var`.
    pub encode_var_block: f64,
    /// Per-row loop overhead under block encoding: one bounds check and
    /// pointer bump per 4-row tile instead of per row.
    pub block_row_overhead: f64,
    /// One element appended inside `push_block`: the slot store only — the
    /// release `len` publication is amortized into `block_publish`.
    pub queue_push_block: f64,
    /// One element consumed inside `pop_block`: the acquire load and the
    /// `consumed` store are amortized across the block's elements.
    pub queue_pop_block: f64,
    /// Fixed cost of publishing one block's keys to one owner: the release
    /// store of `len`, the branch structure, and the occasional segment
    /// link, per `push_block` call.
    pub block_publish: f64,
    /// Clock frequency used to convert cycles to seconds.
    pub ghz: f64,
    /// Cores per NUMA socket. The paper's platform is a 2 × 16-core
    /// Opteron 6278; transfers between sockets cost more than within one.
    pub cores_per_socket: usize,
    /// Latency multiplier for a cross-socket line transfer.
    pub cross_socket_multiplier: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            encode_var: 2.0,
            probe: 4.0,
            update: 6.0,
            queue_push: 8.0,
            queue_pop: 6.0,
            keys_per_line: 8.0,
            line_transfer: 90.0,
            barrier_base: 200.0,
            barrier_per_core: 60.0,
            lock_cycle: 40.0,
            decode_var: 28.0,
            marginal_update: 4.0,
            mi_cell: 30.0,
            row_overhead: 3.0,
            encode_var_block: 1.2,
            block_row_overhead: 1.0,
            queue_push_block: 3.0,
            queue_pop_block: 2.0,
            block_publish: 10.0,
            ghz: 2.4,
            cores_per_socket: 16,
            cross_socket_multiplier: 2.5,
        }
    }
}

impl CostModel {
    /// Converts a cycle count to seconds under this model's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.ghz * 1e9)
    }

    /// Cost of the single synchronization step for `p` cores.
    pub fn barrier(&self, p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            self.barrier_base + self.barrier_per_core * p as f64
        }
    }

    /// Cost of encoding one `n`-variable row (including loop overhead).
    pub(crate) fn encode_row(&self, n: usize) -> f64 {
        self.encode_var * n as f64 + self.row_overhead
    }

    /// Cost of encoding one `n`-variable row inside an `encode_rows` block
    /// (ILP tile + amortized loop overhead).
    pub(crate) fn encode_row_block(&self, n: usize) -> f64 {
        self.encode_var_block * n as f64 + self.block_row_overhead
    }

    /// Expected cost of fetching a line last written by a *random other*
    /// core among `p`, accounting for socket topology: peers on the same
    /// socket cost `line_transfer`, peers across the socket boundary cost
    /// `line_transfer × cross_socket_multiplier`.
    pub(crate) fn remote_transfer_cost(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let same_socket_peers = (self.cores_per_socket.min(p) - 1) as f64;
        let cross_socket_peers = (p.saturating_sub(self.cores_per_socket)) as f64;
        let total = same_socket_peers + cross_socket_peers;
        let mean_latency = (same_socket_peers * self.line_transfer
            + cross_socket_peers * self.line_transfer * self.cross_socket_multiplier)
            / total;
        // Probability the last writer was another core at all: (p−1)/p.
        mean_latency * (p as f64 - 1.0) / p as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_positive_and_ordered() {
        let m = CostModel::default();
        for v in [
            m.encode_var,
            m.probe,
            m.update,
            m.queue_push,
            m.queue_pop,
            m.line_transfer,
            m.barrier_base,
            m.lock_cycle,
            m.decode_var,
            m.ghz,
        ] {
            assert!(v > 0.0);
        }
        // A remote line transfer must dwarf an L1 probe, and a divide must
        // beat a multiply — sanity relations the curves depend on.
        assert!(m.line_transfer > 10.0 * m.probe);
        assert!(m.decode_var > m.encode_var);
    }

    #[test]
    fn batched_constants_undercut_scalar_constants() {
        let m = CostModel::default();
        assert!(m.encode_var_block < m.encode_var);
        assert!(m.block_row_overhead < m.row_overhead);
        assert!(m.queue_push_block < m.queue_push);
        assert!(m.queue_pop_block < m.queue_pop);
        assert!(m.encode_row_block(30) < m.encode_row(30));
        assert!(m.block_publish > 0.0);
    }

    #[test]
    fn seconds_conversion() {
        let m = CostModel {
            ghz: 1.0,
            ..CostModel::default()
        };
        assert!((m.cycles_to_seconds(1e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_scales_with_cores_and_vanishes_alone() {
        let m = CostModel::default();
        assert_eq!(m.barrier(1), 0.0);
        assert!(m.barrier(32) > m.barrier(2));
    }

    #[test]
    fn encode_row_is_linear_in_n() {
        let m = CostModel::default();
        let d = m.encode_row(40) - m.encode_row(30);
        assert!((d - 10.0 * m.encode_var).abs() < 1e-12);
    }

    #[test]
    fn remote_transfer_tracks_socket_topology() {
        let m = CostModel::default();
        assert_eq!(m.remote_transfer_cost(1), 0.0);
        // Within one socket: below one full line transfer (own-core hits).
        let within = m.remote_transfer_cost(8);
        assert!(within < m.line_transfer);
        assert!(within > 0.5 * m.line_transfer);
        // Crossing sockets raises the mean latency.
        let across = m.remote_transfer_cost(32);
        assert!(
            across > m.line_transfer,
            "32 cores span two sockets: {across}"
        );
        assert!(across < m.line_transfer * m.cross_socket_multiplier);
        // Monotone in p.
        let mut prev = 0.0;
        for p in [2usize, 4, 8, 16, 24, 32] {
            let c = m.remote_transfer_cost(p);
            assert!(c >= prev, "p={p}");
            prev = c;
        }
    }
}
