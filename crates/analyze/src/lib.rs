//! `wfbn-analyze` — source-level concurrency analysis for the workspace.
//!
//! The wait-free guarantee rests on disciplines the type system cannot see:
//! exactly one writer per word per stage, no RMW atomics on the hot path,
//! and a precise Release→Acquire edge per shared field. The loom models and
//! the runtime ownership audit check those disciplines *dynamically*, on the
//! interleavings the tests happen to drive; this crate checks them
//! *statically*, on every commit, against checked-in baselines:
//!
//! * **Inventory** — a hand-rolled lexer ([`lexer`]) and scanner ([`scan`])
//!   extract every atomic operation (with its `Ordering`s), every `unsafe`
//!   site (with its SAFETY coverage), and every Release/Acquire pair, all
//!   `file:line`-precise, without compiling anything.
//! * **Gates** ([`gates`]) — the wait-freedom lint (`analysis/policy.toml`),
//!   the happens-before map check (`analysis/hb_map.toml`, mirroring
//!   DESIGN.md §8/§11), the atomics ratchet (`analysis/atomics.lock`), the
//!   bounded-loop termination check (`analysis/progress.toml`, DESIGN.md
//!   §13), the blocking-construct lint, the false-sharing layout check
//!   (`analysis/layout.toml`, DESIGN.md §15, backed by the conservative
//!   size/offset estimator in [`layout`]), and the loom model-coverage
//!   check (`analysis/coverage.toml`, DESIGN.md §15), plus the
//!   unsafe-coverage pass that replaced
//!   `tools/check_safety_comments.sh`'s 6-line-window heuristic.
//! * **Output** ([`sarif`]) — `check --format sarif` renders the same
//!   diagnostics as SARIF 2.1.0 for CI annotation; `--changed-since REF`
//!   filters them to the files a diff touches.
//!
//! Drift in either direction — an edge in code missing from the map, or a
//! stale map entry with no code behind it — fails `check`, so the docs and
//! the code cannot quietly diverge. See DESIGN.md §12.

pub mod config;
pub mod gates;
pub mod layout;
pub mod lexer;
pub mod minitoml;
pub mod ratchet;
pub mod sarif;
pub mod scan;
pub mod workspace;

use gates::Diag;
use std::collections::BTreeSet;
use std::path::Path;

/// Everything `check` needs, loaded from a workspace root.
pub struct Analysis {
    /// The scanned inventory.
    pub inventory: scan::Inventory,
    /// The wait-freedom policy.
    pub policy: config::Policy,
    /// The happens-before map.
    pub hb_map: config::HbMap,
    /// The atomics ratchet baseline.
    pub lock: ratchet::Lock,
    /// The bounded-loop (termination) declarations.
    pub progress: config::Progress,
    /// The per-struct ownership (false-sharing) table.
    pub layout: config::Layout,
    /// The loom model-coverage table.
    pub coverage: config::Coverage,
}

/// Scans `root` without loading any config (for `inventory`/`baseline`).
pub fn scan_only(root: &Path) -> Result<scan::Inventory, String> {
    workspace::scan_workspace(root).map_err(|e| format!("scan failed: {e}"))
}

/// Reads `analysis/atomics.lock` if present (empty lock otherwise).
pub fn load_lock(root: &Path) -> Result<ratchet::Lock, String> {
    let lock_path = root.join("analysis/atomics.lock");
    if !lock_path.is_file() {
        return Ok(ratchet::Lock::new());
    }
    let text = std::fs::read_to_string(&lock_path)
        .map_err(|e| format!("{}: {e}", lock_path.display()))?;
    ratchet::parse(&text).map_err(|e| format!("{}: {e}", lock_path.display()))
}

/// Loads configs and scans `root`; `Err` strings are fatal config problems
/// (unreadable/unparseable files), distinct from gate violations.
pub fn load(root: &Path) -> Result<Analysis, String> {
    let inventory = scan_only(root)?;
    let policy = config::Policy::load(&root.join("analysis/policy.toml"))
        .map_err(|e| e.to_string())?;
    let hb_map =
        config::HbMap::load(&root.join("analysis/hb_map.toml")).map_err(|e| e.to_string())?;
    let lock = load_lock(root)?;
    let progress = config::Progress::load(&root.join("analysis/progress.toml"))
        .map_err(|e| e.to_string())?;
    let layout = config::Layout::load(&root.join("analysis/layout.toml"))
        .map_err(|e| e.to_string())?;
    let coverage = config::Coverage::load(&root.join("analysis/coverage.toml"))
        .map_err(|e| e.to_string())?;
    Ok(Analysis {
        inventory,
        policy,
        hb_map,
        lock,
        progress,
        layout,
        coverage,
    })
}

/// Runs all seven gates (plus the safety pass) and returns every
/// violation, file:line-sorted.
pub fn check(analysis: &Analysis) -> Vec<Diag> {
    let mut diags = gates::gate_safety(&analysis.inventory);
    diags.extend(gates::gate_waitfree(&analysis.inventory, &analysis.policy));
    diags.extend(gates::gate_hb(
        &analysis.inventory,
        &analysis.hb_map,
        "analysis/hb_map.toml",
    ));
    diags.extend(gates::gate_ratchet(
        &analysis.inventory,
        &analysis.lock,
        "analysis/atomics.lock",
    ));
    diags.extend(gates::gate_waitloop(
        &analysis.inventory,
        &analysis.progress,
        "analysis/progress.toml",
    ));
    diags.extend(gates::gate_noblock(&analysis.inventory, &analysis.policy));
    diags.extend(gates::gate_layout(
        &analysis.inventory,
        &analysis.layout,
        "analysis/layout.toml",
    ));
    diags.extend(gates::gate_modelcov(
        &analysis.inventory,
        &analysis.coverage,
        &analysis.hb_map,
        "analysis/coverage.toml",
    ));
    diags.sort_by(|a, b| (&a.file, a.line, a.gate).cmp(&(&b.file, b.line, b.gate)));
    diags
}

/// `--changed-since` filtering: keeps only diagnostics whose culprit file
/// is in `changed`. This is the single code path every gate's output
/// flows through — config-culprit diags (a stale table entry, say) are
/// kept when the *config* file changed, exactly like source culprits.
pub fn filter_changed(diags: &mut Vec<Diag>, changed: &BTreeSet<String>) {
    diags.retain(|d| changed.contains(&d.file));
}

/// Convenience: load + check in one call (used by tests and the wrapper
/// script path).
pub fn check_root(root: &Path) -> Result<Vec<Diag>, String> {
    Ok(check(&load(root)?))
}
