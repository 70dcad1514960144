//! Negative-control tests: one fixture per gate under `fixtures/`, each a
//! miniature workspace (`crates/demo` + `analysis/` configs) seeded with
//! exactly one violation. Every test asserts the *precise* culprit — gate
//! name, file, and 1-based line — so a scanner regression that still
//! "fails somewhere" cannot pass. The `clean` fixture is the positive
//! control: identical structure, zero diagnostics.

use std::path::PathBuf;
use wfbn_analyze::{check_root, gates::Diag};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn check(name: &str) -> Vec<Diag> {
    check_root(&fixture(name)).unwrap_or_else(|e| panic!("fixture `{name}` failed to load: {e}"))
}

/// Asserts the fixture yields exactly one diagnostic and returns it.
fn sole_diag(name: &str) -> Diag {
    let diags = check(name);
    assert_eq!(
        diags.len(),
        1,
        "fixture `{name}` must produce exactly its seeded violation, got: {:#?}",
        diags
    );
    diags.into_iter().next().expect("len checked above")
}

#[test]
fn clean_fixture_passes_all_gates() {
    let diags = check("clean");
    assert!(
        diags.is_empty(),
        "the clean fixture is the positive control; diags: {diags:#?}"
    );
}

#[test]
fn stray_rmw_in_hot_crate_fails_waitfree_gate() {
    let d = sole_diag("stray_rmw");
    assert_eq!(d.gate, "waitfree");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 34, "culprit is the fetch_add in bump()");
    assert!(d.msg.contains("fetch_add"), "msg names the op: {}", d.msg);
    assert!(d.msg.contains("demo-core"), "msg names the crate: {}", d.msg);
}

#[test]
fn seqcst_ordering_fails_waitfree_gate() {
    let d = sole_diag("seqcst");
    assert_eq!(d.gate, "waitfree");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 34, "culprit is the SeqCst load in total()");
    assert!(d.msg.contains("SeqCst"), "msg names the ordering: {}", d.msg);
}

#[test]
fn second_writer_role_fails_hb_gate() {
    let d = sole_diag("two_writer");
    assert_eq!(d.gate, "hb");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 35, "culprit is hijack()'s Release store");
    assert!(
        d.msg.contains("intruder") && d.msg.contains("owner"),
        "msg names both the annotated and the declared writer: {}",
        d.msg
    );
}

#[test]
fn release_store_without_map_edge_fails_hb_gate() {
    let d = sole_diag("orphan_release");
    assert_eq!(d.gate, "hb");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 35, "culprit is leak()'s orphan Release store");
    assert!(
        d.msg.contains("no edge"),
        "msg says the map is missing the pair: {}",
        d.msg
    );
}

#[test]
fn map_edge_without_code_fails_hb_gate_at_the_map_line() {
    let d = sole_diag("stale_edge");
    assert_eq!(d.gate, "hb");
    assert_eq!(
        d.file, "analysis/hb_map.toml",
        "a stale edge is a *config* culprit"
    );
    assert_eq!(d.line, 8, "culprit is the ghost [[edge]] header");
    assert!(d.msg.contains("ghost"), "msg names the field: {}", d.msg);
}

#[test]
fn safety_comment_separated_by_code_fails_safety_gate() {
    // The seeded pattern is exactly the old 6-line-lookback heuristic's
    // false accept: a SAFETY comment within the window but attached to a
    // *different* item, with code in between.
    let d = sole_diag("undoc_unsafe");
    assert_eq!(d.gate, "safety");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 35, "culprit is the undocumented `unsafe impl Send`");
    assert!(
        d.msg.contains("unsafe impl"),
        "msg names the item kind: {}",
        d.msg
    );
}

#[test]
fn atomic_op_absent_from_lock_fails_ratchet_gate() {
    let d = sole_diag("unlisted_atomic");
    assert_eq!(d.gate, "ratchet");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 24, "culprit is the first site of the drifted signature");
    assert!(
        d.msg.contains("x1") && d.msg.contains("x2"),
        "msg shows both sides of the drift: {}",
        d.msg
    );
}

#[test]
fn diag_display_is_file_line_precise() {
    let d = sole_diag("stray_rmw");
    let rendered = d.to_string();
    assert!(
        rendered.starts_with("[waitfree] crates/demo/src/lib.rs:34: "),
        "diagnostics must render as [gate] file:line: msg, got: {rendered}"
    );
}

#[test]
fn unannotated_poll_loop_fails_waitloop_gate() {
    let d = sole_diag("unbounded_spin");
    assert_eq!(d.gate, "waitloop");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 46, "culprit is drain()'s bare `while try_pop` poll loop");
    assert!(
        d.msg.contains("wf-bound") && d.msg.contains("try_pop"),
        "msg names the missing annotation and the polled method: {}",
        d.msg
    );
}

#[test]
fn mutex_on_hot_path_fails_noblock_gate() {
    let d = sole_diag("blocking_mutex");
    assert_eq!(d.gate, "noblock");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 55, "culprit is total_locked()'s Mutex::new");
    assert!(
        d.msg.contains("Mutex") && d.msg.contains("demo-core"),
        "msg names the construct and the crate: {}",
        d.msg
    );
}

/// Copies `src` into `dst`, recursively.
fn copy_tree(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("create the copy's directory");
    for entry in std::fs::read_dir(src).expect("read the fixture") {
        let entry = entry.expect("fixture entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy a fixture file");
        }
    }
}

#[test]
fn waiver_without_construct_fails_noblock_gate_at_the_table_line() {
    // The clean fixture plus one waiver for a `join` its demo crate never
    // calls: the stale waiver is the only diagnostic.
    let root =
        std::env::temp_dir().join(format!("wfbn_analyze_stale_waiver_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    copy_tree(&fixture("clean"), &root);
    let policy = root.join("analysis/policy.toml");
    let mut text = std::fs::read_to_string(&policy).expect("read the policy");
    let line = text.lines().count() as u32 + 2;
    text.push_str(
        "\n[[noblock_waiver]]\nfile = \"crates/demo/src/lib.rs\"\n\
         construct = \"join\"\nwhy = \"nothing joins here\"\n",
    );
    std::fs::write(&policy, text).expect("write the policy");
    let diags = check_root(&root).expect("the copy loads");
    std::fs::remove_dir_all(&root).expect("remove the copy");

    assert_eq!(diags.len(), 1, "{diags:#?}");
    let d = &diags[0];
    assert_eq!(d.gate, "noblock");
    assert_eq!(
        d.file, "analysis/policy.toml",
        "a stale waiver is a *config* culprit"
    );
    assert_eq!(
        d.line, line,
        "culprit is the stale [[noblock_waiver]] header"
    );
    assert!(
        d.msg.contains("stale")
            && d.msg.contains("`join`")
            && d.msg.contains("crates/demo/src/lib.rs"),
        "msg names the waived construct and its file: {}",
        d.msg
    );
}

#[test]
fn acquire_load_without_release_store_fails_hb_gate() {
    let d = sole_diag("orphan_acquire");
    assert_eq!(d.gate, "hb");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 20, "culprit is read()'s now-one-legged Acquire load");
    assert!(
        d.msg.contains("orphan Acquire") && d.msg.contains("word"),
        "msg names the shape and the field: {}",
        d.msg
    );
}

#[test]
fn loop_declaration_without_code_fails_waitloop_gate_at_the_table_line() {
    let d = sole_diag("stale_loop_bound");
    assert_eq!(d.gate, "waitloop");
    assert_eq!(
        d.file, "analysis/progress.toml",
        "a stale declaration is a *config* culprit"
    );
    assert_eq!(d.line, 12, "culprit is the ghost [[loop]] header");
    assert!(
        d.msg.contains("iters(8)"),
        "msg names the undeclared bound: {}",
        d.msg
    );
}

#[test]
fn different_writer_roles_on_one_line_fail_layout_gate() {
    let d = sole_diag("false_sharing");
    assert_eq!(d.gate, "layout");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 9, "culprit is the later field of the sharing pair (`count`)");
    assert!(
        d.msg.contains("owner") && d.msg.contains("intruder") && d.msg.contains("CachePadded"),
        "msg names both roles and the fix: {}",
        d.msg
    );
    assert!(
        d.msg.contains("offsets 0 and 8"),
        "msg carries the estimated offsets: {}",
        d.msg
    );
}

#[test]
fn padding_drift_fails_layout_gate_at_the_table_line() {
    let d = sole_diag("unpadded_two_writer");
    assert_eq!(d.gate, "layout");
    assert_eq!(
        d.file, "analysis/layout.toml",
        "a table promising padding the code lacks is a *config* culprit"
    );
    assert_eq!(d.line, 9, "culprit is the [[struct]] header of the drifted entry");
    assert!(
        d.msg.contains("`count`") && d.msg.contains("padded"),
        "msg names the drifted field: {}",
        d.msg
    );
}

#[test]
fn covered_site_without_model_annotation_fails_modelcov_gate() {
    let d = sole_diag("unmodeled_atomic");
    assert_eq!(d.gate, "modelcov");
    assert_eq!(d.file, "crates/demo/src/lib.rs");
    assert_eq!(d.line, 32, "culprit is tick()'s unannotated count.store");
    assert!(
        d.msg.contains("count.store") && d.msg.contains("loom-model"),
        "msg names the site and the missing annotation: {}",
        d.msg
    );
}

#[test]
fn model_declaration_without_test_fails_modelcov_gate_at_the_table_line() {
    let d = sole_diag("stale_model");
    assert_eq!(d.gate, "modelcov");
    assert_eq!(
        d.file, "analysis/coverage.toml",
        "a [[model]] naming a nonexistent #[test] is a *config* culprit"
    );
    assert_eq!(d.line, 13, "culprit is the ghost [[model]] header");
    assert!(
        d.msg.contains("ghost_model_never_written"),
        "msg names the ghost test: {}",
        d.msg
    );
}

#[test]
fn changed_since_filtering_is_one_code_path_for_every_gate() {
    use std::collections::BTreeSet;
    use wfbn_analyze::{filter_changed, sarif};
    // One source-culprit and one config-culprit diag per SARIF rule: after
    // filtering on the source file, exactly the source culprits survive —
    // no gate gets bespoke treatment.
    let mk = |gate: &'static str, file: &str| Diag {
        gate,
        file: file.to_owned(),
        line: 1,
        msg: String::new(),
    };
    let mut diags: Vec<Diag> = sarif::RULES
        .iter()
        .flat_map(|(id, _)| [mk(id, "crates/demo/src/lib.rs"), mk(id, "analysis/ghost.toml")])
        .collect();
    let changed: BTreeSet<String> = [String::from("crates/demo/src/lib.rs")].into();
    filter_changed(&mut diags, &changed);
    assert_eq!(
        diags.len(),
        sarif::RULES.len(),
        "one surviving diag per gate (the source culprit)"
    );
    assert!(diags.iter().all(|d| d.file == "crates/demo/src/lib.rs"));
    let gates: Vec<&str> = diags.iter().map(|d| d.gate).collect();
    let rules: Vec<&str> = sarif::RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(gates, rules, "every SARIF rule id flowed through the filter");
}
