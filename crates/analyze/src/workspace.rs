//! Workspace walker: finds every `.rs` file under `crates/`, resolves the
//! owning crate from the nearest `Cargo.toml`, and runs the scanner.
//!
//! Skipped subtrees: `target/` (build products) and any `fixtures/`
//! directory (the analyzer's own seeded-violation corpora must not trip the
//! real tree's gates).

use crate::config;
use crate::scan::{self, Ctx, Inventory};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Scans every crate under `root/crates` and returns the merged inventory.
///
/// Paths in the inventory are workspace-relative (`crates/...`) with `/`
/// separators, so diagnostics and config files are host-independent.
pub(crate) fn scan_workspace(root: &Path) -> std::io::Result<Inventory> {
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    collect_rs_files(&crates_dir, &mut files)?;
    files.sort();

    let mut crate_names: BTreeMap<PathBuf, String> = BTreeMap::new();
    let mut inv = Inventory::default();
    for path in files {
        let crate_dir = nearest_crate_dir(&path, &crates_dir);
        let crate_name = crate_names
            .entry(crate_dir.clone())
            .or_insert_with(|| {
                config::crate_name(&crate_dir.join("Cargo.toml")).unwrap_or_else(|| {
                    crate_dir
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "unknown".to_owned())
                })
            })
            .clone();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = if rel.contains("/tests/") || rel.contains("/benches/") {
            Ctx::Test
        } else {
            Ctx::Src
        };
        let src = std::fs::read_to_string(&path)?;
        inv.absorb(scan::scan_file(&src, &rel, &crate_name, ctx));
    }
    Ok(inv)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks up from `file` to the closest directory containing `Cargo.toml`,
/// stopping at `crates_dir`.
fn nearest_crate_dir(file: &Path, crates_dir: &Path) -> PathBuf {
    let mut dir = file.parent();
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() || d == crates_dir {
            return d.to_path_buf();
        }
        dir = d.parent();
    }
    crates_dir.to_path_buf()
}
