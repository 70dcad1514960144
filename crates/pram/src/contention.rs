//! Lock-contention model: an M/D/1 queueing fixed point.
//!
//! A striped-lock table is a bank of `S` servers. Each of `P` simulated
//! cores emits one critical section of (deterministic) length `s` cycles
//! every `c` cycles, where `c` itself includes the waiting time — so the
//! system is a classic closed-loop fixed point:
//!
//! ```text
//! c  =  t_out + s + w            (cycle time per update)
//! ρ  =  (P / c) · s / S          (per-stripe utilization)
//! w  =  ρ s / (2 (1 − ρ))        (M/D/1 mean wait)
//! ```
//!
//! Iterating converges quickly for ρ < 1; ρ is clamped below 1 so saturated
//! systems report a large-but-finite wait (physically: cores serialize on
//! the stripes and the wait approaches `P·s/S − c`, which the clamp
//! approximates).

/// Mean waiting time of an M/D/1 queue with utilization `rho` and service
/// time `service`, in the same unit as `service`.
///
/// `rho` is clamped to `[0, MAX_RHO]`.
pub(crate) fn mdone_waiting_time(service: f64, rho: f64) -> f64 {
    const MAX_RHO: f64 = 0.98;
    let rho = rho.clamp(0.0, MAX_RHO);
    service * rho / (2.0 * (1.0 - rho))
}

/// Solves the closed-loop fixed point of the module docs, with a convoy
/// term: the critical section grows with the queue it causes — each waiter
/// spinning on the lock word forces one extra line transfer per handoff (the
/// classic spin-lock convoy), so
///
/// ```text
/// s_eff = s₀ + line_transfer · L_q,    L_q = ρ² / (2 (1 − ρ))
/// ```
///
/// This positive feedback is what turns saturation into *degradation*: past
/// the stripe capacity, adding cores makes every handoff slower, and the
/// speedup curve's slope goes negative — the paper's Figure 3b/4b TBB
/// behavior. With `line_transfer = 0` the convoy term vanishes and this is
/// the plain M/D/1 fixed point.
///
/// * `t_out` — per-update work outside the lock (cycles);
/// * `s0` — uncontended critical-section length (cycles);
/// * `p` — number of cores; `stripes` — number of lock stripes.
///
/// Returns `(cycle, s_eff, rho)`.
pub(crate) fn convoy_lock_cycle_fixed_point(
    t_out: f64,
    s0: f64,
    line_transfer: f64,
    p: usize,
    stripes: usize,
) -> (f64, f64, f64) {
    assert!(stripes > 0, "need at least one stripe");
    assert!(p > 0, "need at least one core");
    let mut s_eff = s0;
    let mut wait = 0.0;
    let mut rho = 0.0;
    for _ in 0..256 {
        let cycle = t_out + s_eff + wait;
        rho = ((p as f64 / cycle) * s_eff / stripes as f64).clamp(0.0, 0.98);
        let queue_len = rho * rho / (2.0 * (1.0 - rho));
        let next_s = s0 + line_transfer * queue_len;
        let next_wait = mdone_waiting_time(next_s, rho);
        // Heavy damping: the feedback loop oscillates undamped.
        s_eff = 0.7 * s_eff + 0.3 * next_s;
        let new_wait = 0.7 * wait + 0.3 * next_wait;
        if (new_wait - wait).abs() < 1e-9 && (next_s - s_eff).abs() < 1e-9 {
            wait = new_wait;
            break;
        }
        wait = new_wait;
    }
    (t_out + s_eff + wait, s_eff, rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain M/D/1 fixed point (no convoy term); returns
    /// `(cycle, wait, rho)`.
    fn lock_cycle_fixed_point(
        t_out: f64,
        service: f64,
        p: usize,
        stripes: usize,
    ) -> (f64, f64, f64) {
        let (cycle, s_eff, rho) = convoy_lock_cycle_fixed_point(t_out, service, 0.0, p, stripes);
        (cycle, cycle - t_out - s_eff, rho)
    }

    #[test]
    fn zero_load_means_zero_wait() {
        assert_eq!(mdone_waiting_time(100.0, 0.0), 0.0);
        let (cycle, wait, rho) = lock_cycle_fixed_point(1000.0, 10.0, 1, 64);
        assert!(wait < 0.1, "single core on 64 stripes barely waits: {wait}");
        assert!((cycle - 1010.0).abs() < 1.0);
        assert!(rho < 0.01);
    }

    #[test]
    fn wait_is_monotone_in_rho() {
        let mut prev = -1.0;
        for step in 0..=20 {
            let rho = step as f64 / 20.0;
            let w = mdone_waiting_time(50.0, rho);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    fn saturation_is_finite() {
        let w = mdone_waiting_time(50.0, 5.0); // clamped to 0.98
        assert!(w.is_finite());
        assert!(
            w > 50.0 * 10.0,
            "near-saturated wait should be many services"
        );
    }

    #[test]
    fn more_cores_on_few_stripes_explodes_the_wait() {
        let (_, w2, _) = lock_cycle_fixed_point(100.0, 50.0, 2, 8);
        let (_, w16, _) = lock_cycle_fixed_point(100.0, 50.0, 16, 8);
        let (_, w32, _) = lock_cycle_fixed_point(100.0, 50.0, 32, 8);
        assert!(w16 > w2);
        assert!(w32 > w16);
        assert!(w32 > 10.0 * w2, "w2={w2} w32={w32}");
    }

    #[test]
    fn more_stripes_relieve_contention() {
        let (_, w_few, _) = lock_cycle_fixed_point(100.0, 50.0, 16, 8);
        let (_, w_many, _) = lock_cycle_fixed_point(100.0, 50.0, 16, 512);
        assert!(w_many < w_few / 4.0, "few={w_few} many={w_many}");
    }

    #[test]
    fn convoy_fixed_point_is_low_load_compatible() {
        // At negligible load the convoy term vanishes and the fixed point
        // agrees with the plain one.
        let (c_plain, _, _) = lock_cycle_fixed_point(1000.0, 10.0, 1, 64);
        let (c_convoy, s_eff, _) = convoy_lock_cycle_fixed_point(1000.0, 10.0, 90.0, 1, 64);
        assert!((c_plain - c_convoy).abs() < 1.0);
        assert!((s_eff - 10.0).abs() < 0.5);
    }

    #[test]
    fn convoy_inflates_the_critical_section_under_load() {
        let (_, s_light, _) = convoy_lock_cycle_fixed_point(60.0, 140.0, 90.0, 4, 16);
        let (_, s_heavy, _) = convoy_lock_cycle_fixed_point(60.0, 140.0, 90.0, 32, 16);
        assert!(s_heavy > s_light + 10.0, "light={s_light} heavy={s_heavy}");
    }

    #[test]
    fn convoy_fixed_point_is_finite_and_stable() {
        for p in [1usize, 2, 8, 32, 128] {
            for stripes in [1usize, 16, 1024] {
                let (c, s, rho) = convoy_lock_cycle_fixed_point(50.0, 100.0, 90.0, p, stripes);
                assert!(c.is_finite() && c > 0.0, "p={p} stripes={stripes}");
                assert!(s >= 100.0 - 1e-6);
                assert!((0.0..=1.0).contains(&rho));
            }
        }
    }

    #[test]
    fn fixed_point_converges_to_self_consistency() {
        let (cycle, wait, rho) = lock_cycle_fixed_point(80.0, 60.0, 8, 16);
        // Re-derive rho from the returned cycle; must agree.
        let rho_check = (8.0 / cycle) * 60.0 / 16.0;
        assert!((rho - rho_check).abs() < 1e-6);
        let wait_check = mdone_waiting_time(60.0, rho_check);
        assert!((wait - wait_check).abs() < 1e-6);
    }
}
