//! `wfbn learn` — structure learning by any of the three implemented
//! paradigms: `cheng` (constraint-based, the paper's system), `hillclimb`
//! (score-based BIC search) or `chowliu` (tree approximation).

use crate::args::Flags;
use crate::commands::load_csv;
use std::io::Write;
use wfbn_bn::cheng::ChengLearner;
use wfbn_bn::chowliu::chow_liu;
use wfbn_bn::estimate::fit_network;
use wfbn_bn::graph::Dag;
use wfbn_bn::hillclimb::HillClimber;
use wfbn_core::allpairs::all_pairs_mi;
use wfbn_core::construct::waitfree_build;
use wfbn_data::Dataset;

/// Runs the subcommand.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["in", "threads", "epsilon", "alpha", "method"],
        &["fit"],
    )?;
    let path: String = flags.require("in")?;
    let threads = flags.threads_or("threads", 4)?;
    let epsilon: f64 = flags.get_or("epsilon", 0.005)?;
    let alpha: f64 = flags.get_or("alpha", 1.0)?;
    let method: String = flags.get_or("method", "cheng".to_string())?;
    let fit = flags.has_switch("fit");

    let data = load_csv(&path)?;
    // The DAG is only needed for parameter fitting; constraint-based
    // learning reports a pattern and must not fail on extension issues
    // when --fit was not requested.
    let dag: Option<Dag> = match method.as_str() {
        "cheng" => learn_cheng(&data, epsilon, threads, fit, out)?,
        "hillclimb" => Some(learn_hillclimb(&data, threads, out)?),
        "chowliu" => Some(learn_chowliu(&data, epsilon, threads, out)?),
        other => {
            return Err(format!(
                "unknown method {other:?} (cheng|hillclimb|chowliu)"
            ))
        }
    };

    if fit {
        let dag = dag.ok_or("learned pattern admits no consistent DAG extension")?;
        let net = fit_network(&data, &dag, alpha, threads).map_err(|e| e.to_string())?;
        let ll = wfbn_bn::estimate::mean_log_likelihood(&net, &data);
        writeln!(out, "fitted parameters on {:?}", dag.edges())
            .and_then(|()| writeln!(out, "training log-likelihood: {ll:.4} nats/sample"))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn learn_cheng(
    data: &Dataset,
    epsilon: f64,
    threads: usize,
    need_dag: bool,
    out: &mut dyn Write,
) -> Result<Option<Dag>, String> {
    let learner = ChengLearner {
        epsilon,
        threads,
        ..ChengLearner::default()
    };
    let result = learner.learn(data).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "phases: {} drafted, {} deferred, {} thickened, {} thinned \
         ({} CI tests, {} table scans, {} searches from memo)",
        result.stats.draft_edges,
        result.stats.deferred_pairs,
        result.stats.thickening_added,
        result.stats.thinning_removed,
        result.stats.ci_tests,
        result.stats.ci_scans,
        result.stats.ci_memo_hits
    )
    .map_err(|e| e.to_string())?;
    for (u, v) in result.cpdag.directed_edges() {
        writeln!(out, "X{u} -> X{v}").map_err(|e| e.to_string())?;
    }
    for (u, v) in result.cpdag.undirected_edges() {
        writeln!(out, "X{u} -- X{v}").map_err(|e| e.to_string())?;
    }
    if need_dag {
        Ok(result.cpdag.consistent_extension())
    } else {
        Ok(None)
    }
}

fn learn_hillclimb(data: &Dataset, threads: usize, out: &mut dyn Write) -> Result<Dag, String> {
    let climber = HillClimber {
        threads,
        ..HillClimber::default()
    };
    let result = climber.learn(data).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "hill climbing: {} moves, final BIC {:.2}",
        result.moves.len(),
        result.score
    )
    .map_err(|e| e.to_string())?;
    for (u, v) in result.dag.edges() {
        writeln!(out, "X{u} -> X{v}").map_err(|e| e.to_string())?;
    }
    Ok(result.dag)
}

fn learn_chowliu(
    data: &Dataset,
    min_mi: f64,
    threads: usize,
    out: &mut dyn Write,
) -> Result<Dag, String> {
    let table = waitfree_build(data, threads)
        .map_err(|e| e.to_string())?
        .table;
    let tree = chow_liu(&all_pairs_mi(&table, threads), min_mi);
    writeln!(
        out,
        "Chow-Liu forest: {} edges, total MI {:.4} nats",
        tree.skeleton.num_edges(),
        tree.total_mi
    )
    .map_err(|e| e.to_string())?;
    for (u, v) in tree.dag.edges() {
        writeln!(out, "X{u} -> X{v}").map_err(|e| e.to_string())?;
    }
    Ok(tree.dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfbn_bn::repository;
    use wfbn_data::csv::write_csv;

    fn sprinkler_csv(dir: &str) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let path = format!("{dir}/s.csv");
        let data = repository::sprinkler().sample(30_000, 3);
        let mut buf = Vec::new();
        write_csv(&data, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path
    }

    fn run_args(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&argv, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn learns_and_fits_sprinkler_with_every_method() {
        let dir = std::env::temp_dir().join("wfbn_cli_learn_test");
        let dir = dir.to_str().unwrap().to_string();
        let path = sprinkler_csv(&dir);

        let cheng = run_args(&["--in", &path, "--fit"]).unwrap();
        assert!(cheng.contains("phases:"), "{cheng}");
        assert!(cheng.contains("searches from memo)"), "{cheng}");
        assert!(cheng.contains("log-likelihood"), "{cheng}");

        let hc = run_args(&["--in", &path, "--method", "hillclimb"]).unwrap();
        assert!(hc.contains("final BIC"), "{hc}");
        assert!(hc.contains("->"), "{hc}");

        let cl = run_args(&["--in", &path, "--method", "chowliu"]).unwrap();
        assert!(cl.contains("Chow-Liu forest: 3 edges"), "{cl}");

        assert!(run_args(&["--in", &path, "--method", "psychic"])
            .unwrap_err()
            .contains("unknown method"));

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
