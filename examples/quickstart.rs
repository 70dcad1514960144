//! Quickstart: the full primitive pipeline on synthetic data.
//!
//! ```text
//! cargo run -p wfbn-examples --release --example quickstart
//! ```
//!
//! 1. Generate training data (a correlated chain, so there is structure to
//!    find).
//! 2. Build the potential table with the wait-free two-stage primitive.
//! 3. Marginalize, compute mutual information for all pairs.
//! 4. Print the strongest candidate edges.

use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::waitfree_build_recorded;
use wfbn_core::entropy::nats_to_bits;
use wfbn_core::marginal::marginalize;
use wfbn_core::obs::Counter;
use wfbn_core::CoreMetrics;
use wfbn_data::{CorrelatedChain, Generator, Schema};

fn main() {
    let threads = 4;
    let n = 12;
    let m = 100_000;

    // A chain X0 → X1 → … → X11: adjacent variables share information.
    let schema = Schema::uniform(n, 2).expect("valid schema");
    let data = CorrelatedChain::new(schema, 0.75)
        .expect("valid rho")
        .generate(m, 2024);
    println!("generated {m} samples over {n} binary variables (chain, ρ = 0.75)\n");

    // Wait-free table construction (Algorithms 1 + 2), counting into a
    // per-core recorder.
    let metrics = CoreMetrics::new(threads);
    let table = waitfree_build_recorded(&data, threads, &metrics)
        .expect("non-empty dataset")
        .table;
    let report = metrics.snapshot();
    let forwarded = report.total(Counter::Forwarded);
    let max_drained = report
        .cores
        .iter()
        .map(|c| c.counter(Counter::Drained))
        .max()
        .unwrap_or(0);
    println!(
        "wait-free build on {threads} threads: {} distinct state strings, \
         {:.1}% of keys forwarded between cores, stage-2 drain balance {:.2}",
        table.num_entries(),
        100.0 * forwarded as f64 / report.total(Counter::RowsEncoded) as f64,
        max_drained as f64 / (forwarded as f64 / threads as f64),
    );

    // Parallel marginalization (Algorithm 3).
    let pair = marginalize(&table, &[0, 1], threads).expect("valid variables");
    println!(
        "P(X0 = X1) = {:.3} (from the pairwise marginal)",
        pair.prob(&[0, 0]) + pair.prob(&[1, 1])
    );

    // All-pairs mutual information (Algorithm 4).
    let mi = all_pairs_mi(&table, threads);
    println!("\nstrongest candidate edges (drafting-phase input):");
    for (i, j, v) in mi.candidate_edges(0.01).into_iter().take(8) {
        println!("  X{i} — X{j}:  I = {:.4} bits", nats_to_bits(v));
    }
    println!(
        "\nweak pair for contrast: I(X0; X11) = {:.5} bits",
        nats_to_bits(mi.get(0, 11))
    );
}
