//! The seven static gates (plus the unsafe-coverage pass) over the
//! inventory.
//!
//! | gate | checks | config |
//! |---|---|---|
//! | `safety` | every `unsafe` site has an adjacent SAFETY comment | — |
//! | `waitfree` | no RMW ops on hot-path crates, no denied orderings | `analysis/policy.toml` |
//! | `hb` | Release/Acquire pairs ⇔ `analysis/hb_map.toml`, one writer role per field | `analysis/hb_map.toml` |
//! | `ratchet` | atomic-site signatures ⇔ `analysis/atomics.lock` | `analysis/atomics.lock` |
//! | `waitloop` | every hot-path poll loop carries a declared `wf-bound` | `analysis/progress.toml` |
//! | `noblock` | no blocking construct on hot-path crates' shipped code | `analysis/policy.toml` |
//! | `layout` | no two writer roles share a cache line in declared structs | `analysis/layout.toml` |
//! | `modelcov` | every covered atomic site names a declared loom model | `analysis/coverage.toml` |
//!
//! Each violation is a [`Diag`] with a `file:line` culprit; the clean tree
//! produces none, and every seeded fixture under `fixtures/` produces at
//! least one (the negative controls in `tests/gates.rs`).

use crate::config::{Coverage, HbMap, Layout, Policy, Progress};
use crate::ratchet::{self, Lock};
use crate::scan::{AtomicSite, Ctx, Inventory};
use std::collections::{BTreeMap, BTreeSet};

/// One violation: which gate fired, where, and why.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Gate name: `safety`, `waitfree`, `hb`, `ratchet`, `waitloop`,
    /// `noblock`, `layout`, or `modelcov`.
    pub gate: &'static str,
    /// File the culprit lives in (source file or config file).
    pub file: String,
    /// 1-based culprit line (0 when the culprit is a whole file).
    pub line: u32,
    /// Human-readable explanation with the expected fix.
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}:{}: {}", self.gate, self.file, self.line, self.msg)
    }
}

/// Gate 0: every `unsafe` item carries an adjacent SAFETY comment.
pub(crate) fn gate_safety(inv: &Inventory) -> Vec<Diag> {
    inv.unsafes
        .iter()
        .filter(|u| !u.documented)
        .map(|u| Diag {
            gate: "safety",
            file: u.file.clone(),
            line: u.line,
            msg: format!(
                "`unsafe {}` without an adjacent `// SAFETY:` comment; the \
                 comment must sit directly above the item (attributes and \
                 blank-free comment runs only — code in between breaks \
                 adjacency)",
                u.kind
            ),
        })
        .collect()
}

/// Gate 1: the wait-freedom lint.
pub(crate) fn gate_waitfree(inv: &Inventory, policy: &Policy) -> Vec<Diag> {
    let mut out = Vec::new();
    for s in &inv.atomics {
        let exempt_crate = policy.exempt_crates.iter().any(|c| c == &s.crate_name);
        let waived = policy.waiver_for(&s.file, &s.receiver, &s.op).is_some();

        // Denied orderings (SeqCst) apply everywhere unless waived.
        if !waived {
            for ord in &s.orderings {
                if policy.deny_orderings.iter().any(|d| d == ord)
                    && (s.ctx == Ctx::Src || policy.deny_orderings_in_tests)
                {
                    out.push(Diag {
                        gate: "waitfree",
                        file: s.file.clone(),
                        line: s.line,
                        msg: format!(
                            "`{}.{}` uses denied ordering `{ord}`; the workspace \
                             carries no {ord} site — use Release/Acquire (or \
                             Relaxed for single-writer bookkeeping) and record \
                             a waiver in analysis/policy.toml if this one is \
                             truly necessary",
                            s.receiver, s.op
                        ),
                    });
                }
            }
        }

        // RMW denial on hot-path crates' shipped code.
        let hot = policy.hot_crates.iter().any(|c| c == &s.crate_name);
        let denied_op = policy.deny_ops.iter().any(|d| d == &s.op);
        if hot && denied_op && !exempt_crate && !waived && !(s.ctx == Ctx::Test && policy.allow_in_tests)
        {
            out.push(Diag {
                gate: "waitfree",
                file: s.file.clone(),
                line: s.line,
                msg: format!(
                    "RMW op `{}.{}({})` on hot-path crate `{}`: the wait-free \
                     protocol permits only single-writer stores and \
                     Release/Acquire loads on this path (DESIGN §8); move the \
                     contended word behind an SPSC hand-off, or add a \
                     reviewed [[waiver]] to analysis/policy.toml",
                    s.receiver,
                    s.op,
                    s.orderings.join(", "),
                    s.crate_name
                ),
            });
        }
    }
    out
}

/// Gate 2: the happens-before map check.
pub(crate) fn gate_hb(inv: &Inventory, map: &HbMap, map_path: &str) -> Vec<Diag> {
    let mut out = Vec::new();

    // Group src-context Release stores / Acquire loads / AcqRel RMWs by
    // (file, field).
    #[derive(Default)]
    struct FieldUse<'a> {
        releases: Vec<&'a AtomicSite>,
        acquires: Vec<&'a AtomicSite>,
        rmw_acqrel: Vec<&'a AtomicSite>,
    }
    let mut uses: BTreeMap<(String, String), FieldUse> = BTreeMap::new();
    for s in inv.atomics.iter().filter(|s| s.ctx == Ctx::Src) {
        let key = (s.file.clone(), s.receiver.clone());
        let slot = uses.entry(key).or_default();
        let is_rmw = crate::scan::RMW_OPS.contains(&s.op.as_str());
        // Any acquiring or releasing RMW counts — a CAS with a plain
        // `Acquire` success ordering is still the reader end of an edge
        // and must not slip past the map unclassified.
        if is_rmw
            && (s.has_ordering("AcqRel")
                || s.has_ordering("SeqCst")
                || s.has_ordering("Acquire")
                || s.has_ordering("Release"))
        {
            slot.rmw_acqrel.push(s);
        } else if s.op == "store" && s.has_ordering("Release") {
            slot.releases.push(s);
        } else if s.op == "load" && s.has_ordering("Acquire") {
            slot.acquires.push(s);
        }
    }

    for ((file, field), used) in &uses {
        let edge = map.edge_for(file, field);
        let synchronizing = !used.releases.is_empty()
            || !used.acquires.is_empty()
            || !used.rmw_acqrel.is_empty();
        if !synchronizing {
            continue;
        }
        let Some(edge) = edge else {
            let site = used
                .releases
                .first()
                .or(used.acquires.first())
                .or(used.rmw_acqrel.first())
                .expect("synchronizing implies at least one site");
            out.push(Diag {
                gate: "hb",
                file: file.clone(),
                line: site.line,
                msg: format!(
                    "synchronizing access to `{field}` ({} {}) has no edge in \
                     {map_path}: a new release/acquire pair must be added to \
                     the map AND to DESIGN.md's happens-before table",
                    site.op,
                    site.orderings.join("+")
                ),
            });
            continue;
        };

        // Writer-role discipline: every Release store carries an hb-writer
        // annotation, all agree, and they match the map.
        let mut roles: Vec<(&str, u32)> = Vec::new();
        for r in used.releases.iter().chain(used.rmw_acqrel.iter()) {
            match &r.writer_role {
                None => out.push(Diag {
                    gate: "hb",
                    file: file.clone(),
                    line: r.line,
                    msg: format!(
                        "Release site on `{field}` lacks an adjacent \
                         `// hb-writer: <role>` annotation (expected role \
                         `{}` per {map_path})",
                        edge.writer
                    ),
                }),
                Some(role) => roles.push((role, r.line)),
            }
        }
        for (role, line) in &roles {
            if *role != edge.writer {
                out.push(Diag {
                    gate: "hb",
                    file: file.clone(),
                    line: *line,
                    msg: format!(
                        "two-writer violation on `{field}`: site annotates \
                         writer role `{role}` but {map_path} declares the \
                         single writer `{}` — exactly one role may store \
                         this word",
                        edge.writer
                    ),
                });
            }
        }

        // Shape: a release-acquire edge needs both ends in code.
        if edge.kind == "rmw" {
            if used.rmw_acqrel.is_empty() {
                out.push(Diag {
                    gate: "hb",
                    file: map_path.to_owned(),
                    line: edge.line,
                    msg: format!(
                        "stale edge: {map_path} declares an AcqRel RMW edge \
                         on `{}::{field}` but the code has none",
                        edge.file
                    ),
                });
            }
        } else {
            if used.releases.is_empty() {
                out.push(Diag {
                    gate: "hb",
                    file: file.clone(),
                    line: used.acquires.first().map_or(0, |a| a.line),
                    msg: format!(
                        "orphan Acquire: load(s) on `{field}` have no Release \
                         store counterpart in this file — the declared edge \
                         is one-legged, so the load synchronizes with \
                         nothing; restore the Release publish or drop the \
                         edge from {map_path}"
                    ),
                });
            }
            if used.acquires.is_empty() {
                out.push(Diag {
                    gate: "hb",
                    file: file.clone(),
                    line: used.releases.first().map_or(0, |r| r.line),
                    msg: format!(
                        "orphan Release store on `{field}`: no Acquire load \
                         pairs with it in this file, so the store \
                         synchronizes nothing — either add the consumer or \
                         downgrade to Relaxed and drop the edge from \
                         {map_path}"
                    ),
                });
            }
        }
    }

    // Stale edges: declared in the map, absent from code.
    for edge in &map.edges {
        let key = (edge.file.clone(), edge.field.clone());
        let present = uses.get(&key).is_some_and(|u| {
            !u.releases.is_empty() || !u.acquires.is_empty() || !u.rmw_acqrel.is_empty()
        });
        if !present {
            out.push(Diag {
                gate: "hb",
                file: map_path.to_owned(),
                line: edge.line,
                msg: format!(
                    "stale edge: {map_path} declares `{}::{}` ({}) but the \
                     code no longer has a synchronizing access on that \
                     field — update the map and DESIGN.md together",
                    edge.file, edge.field, edge.design
                ),
            });
        }
    }

    out
}

/// Gate 4: the bounded-loop (termination) check.
///
/// A *poll loop* is any `loop`/`while` whose condition or body re-reads
/// shared state: an atomic `load`, a configured poll method
/// (`try_pop`, ...), or a `spin_loop`/`yield_now` hint. Every such loop in
/// the configured crates' shipped code must carry a contiguous
/// `// wf-bound: <kind>(<arg>)` annotation, and the `(file, bound)`
/// multiset of annotations must equal the `[[loop]]` table in
/// `analysis/progress.toml` — so an unannotated poll loop, an annotation
/// with no reviewed declaration, and a stale declaration all fail.
pub(crate) fn gate_waitloop(
    inv: &Inventory,
    progress: &Progress,
    progress_path: &str,
) -> Vec<Diag> {
    let mut out = Vec::new();
    if progress.crates.is_empty() {
        return out; // gate disabled (no progress.toml)
    }

    // Declared (file, bound) -> the [[loop]] header lines still unmatched.
    let mut decls: BTreeMap<(&str, &str), Vec<u32>> = BTreeMap::new();
    for d in &progress.loops {
        decls
            .entry((d.file.as_str(), d.bound.as_str()))
            .or_default()
            .push(d.line);
    }

    for l in &inv.loops {
        if l.ctx != Ctx::Src || !progress.crates.iter().any(|c| c == &l.crate_name) {
            continue;
        }
        let is_poll = !l.loads.is_empty()
            || !l.spins.is_empty()
            || l.calls
                .iter()
                .any(|(n, _)| progress.poll_methods.iter().any(|m| m == n));
        if !is_poll && l.bound.is_none() {
            continue;
        }
        let Some(bound) = &l.bound else {
            out.push(Diag {
                gate: "waitloop",
                file: l.file.clone(),
                line: l.line,
                msg: format!(
                    "poll loop (`{}` polling {}) has no adjacent \
                     `// wf-bound: <kind>(<arg>)` annotation; every hot-path \
                     poll loop needs a declared termination bound backed by a \
                     [[loop]] entry in {progress_path} (DESIGN §13)",
                    l.kind,
                    l.trigger_summary(&progress.poll_methods),
                ),
            });
            continue;
        };
        let kind = bound.split('(').next().unwrap_or(bound);
        if !progress.kinds.iter().any(|k| k == kind) {
            out.push(Diag {
                gate: "waitloop",
                file: l.file.clone(),
                line: l.line,
                msg: format!(
                    "unknown wf-bound kind `{kind}` (annotation `{bound}`); \
                     accepted kinds are [{}] per {progress_path}",
                    progress.kinds.join(", ")
                ),
            });
            continue;
        }
        let matched = decls
            .get_mut(&(l.file.as_str(), bound.as_str()))
            .and_then(|lines| (!lines.is_empty()).then(|| lines.remove(0)));
        if matched.is_none() {
            out.push(Diag {
                gate: "waitloop",
                file: l.file.clone(),
                line: l.line,
                msg: format!(
                    "wf-bound `{bound}` on this poll loop is not declared in \
                     {progress_path}: add a [[loop]] entry with file/bound \
                     and a one-line `why` proof sketch",
                ),
            });
        }
    }

    // Leftover declarations have no annotated loop behind them.
    for ((file, bound), lines) in decls {
        for line in lines {
            out.push(Diag {
                gate: "waitloop",
                file: progress_path.to_owned(),
                line,
                msg: format!(
                    "stale [[loop]] declaration: {progress_path} declares \
                     bound `{bound}` in `{file}` but no annotated poll loop \
                     matches — update the table and DESIGN §13 together",
                ),
            });
        }
    }

    out
}

/// Gate 5: the blocking-construct lint.
///
/// Denies every recorded blocking construct (lock/condvar/channel types,
/// `park`/`sleep`/`recv` calls, bare `.join()`, `spin_loop` outside any
/// loop) in the `[noblock]` crates' shipped code, minus reviewed
/// `[[noblock_waiver]]` entries.
pub(crate) fn gate_noblock(inv: &Inventory, policy: &Policy) -> Vec<Diag> {
    let mut out = Vec::new();
    if policy.noblock_crates.is_empty() {
        return out; // gate disabled (no [noblock] section)
    }
    for b in &inv.blocking {
        if b.ctx != Ctx::Src || !policy.noblock_crates.iter().any(|c| c == &b.crate_name) {
            continue;
        }
        if policy.noblock_waiver_for(&b.file, &b.construct).is_some() {
            continue;
        }
        out.push(Diag {
            gate: "noblock",
            file: b.file.clone(),
            line: b.line,
            msg: format!(
                "blocking construct `{}` on hot-path crate `{}`: the \
                 wait-free path admits no lock, park, sleep, channel recv, \
                 or join (DESIGN §8); move it to setup/teardown scaffolding \
                 or add a reviewed [[noblock_waiver]] with its justification \
                 to analysis/policy.toml",
                b.construct, b.crate_name
            ),
        });
    }
    out
}

/// Gate 6: the false-sharing (memory layout) check.
///
/// For every struct declared in `analysis/layout.toml` the gate estimates
/// `#[repr(C)]` offsets (see [`crate::layout`]) and fails when two fields
/// with *different* declared writer roles can occupy the same cache line
/// without a `CachePadded` wrapper. The ownership table itself is
/// drift-checked: missing structs, reordered fields, padded declarations
/// with unpadded code (and vice versa), and roles contradicting the
/// sites' `hb-writer:` annotations all fail — plus a discovery rule: any
/// undeclared struct in the layout crates with two or more inline atomic
/// fields must be added to the table.
pub fn gate_layout(inv: &Inventory, layout: &Layout, layout_path: &str) -> Vec<Diag> {
    let mut out = Vec::new();
    if layout.crates.is_empty() {
        return out; // gate disabled (no layout.toml)
    }

    // Workspace constants, preferring default-build (`cfg(not(..))`-gated
    // or ungated) definitions; `[consts]` pins win but must agree.
    let mut scanned: BTreeMap<&str, (u64, u8)> = BTreeMap::new();
    for c in &inv.consts {
        match scanned.get(c.name.as_str()) {
            Some((_, s)) if *s >= c.score => {}
            _ => {
                scanned.insert(&c.name, (c.value, c.score));
            }
        }
    }
    let mut consts: BTreeMap<String, u64> = scanned
        .iter()
        .map(|(k, (v, _))| ((*k).to_owned(), *v))
        .collect();
    for (name, v) in &layout.consts {
        if let Some(code_v) = consts.get(name) {
            if code_v != v {
                out.push(Diag {
                    gate: "layout",
                    file: layout_path.to_owned(),
                    line: layout.consts_line,
                    msg: format!(
                        "[consts] pins `{name} = {v}` but the code's \
                         default-build definition is {code_v} — update the pin"
                    ),
                });
            }
        }
        consts.insert(name.clone(), *v);
    }

    let mut declared: BTreeSet<(&str, &str)> = BTreeSet::new();
    for d in &layout.structs {
        declared.insert((&d.file, &d.name));
        let Some(site) = inv
            .structs
            .iter()
            .find(|s| s.file == d.file && s.name == d.name)
        else {
            out.push(Diag {
                gate: "layout",
                file: layout_path.to_owned(),
                line: d.line,
                msg: format!(
                    "stale [[struct]] declaration: no struct `{}` with named \
                     fields in `{}` — update the ownership table",
                    d.name, d.file
                ),
            });
            continue;
        };
        if !site.repr_c {
            out.push(Diag {
                gate: "layout",
                file: site.file.clone(),
                line: site.line,
                msg: format!(
                    "layout-declared struct `{}` must be `#[repr(C)]` so \
                     field order and offsets are language-defined, not \
                     rustc-version-dependent (DESIGN §15)",
                    site.name
                ),
            });
            continue;
        }
        let est = crate::layout::estimate(site, &consts);
        let code_names: Vec<&str> = est.fields.iter().map(|f| f.name.as_str()).collect();
        let decl_names: Vec<&str> = d.fields.iter().map(|f| f.name.as_str()).collect();
        if code_names != decl_names {
            out.push(Diag {
                gate: "layout",
                file: layout_path.to_owned(),
                line: d.line,
                msg: format!(
                    "[[struct]] `{}` field drift: table declares [{}] but the \
                     code has [{}] — the table must mirror declaration order",
                    d.name,
                    decl_names.join(", "),
                    code_names.join(", ")
                ),
            });
            continue;
        }
        // Padding drift fails at the table line; pair verdicts from an
        // out-of-sync table would be noise, so the struct stops here.
        let mut padding_drift = false;
        for (fd, fe) in d.fields.iter().zip(&est.fields) {
            if fd.padded != fe.est.padded {
                padding_drift = true;
                out.push(Diag {
                    gate: "layout",
                    file: layout_path.to_owned(),
                    line: d.line,
                    msg: format!(
                        "[[struct]] `{}` declares field `{}` {} but the code \
                         {} — `padded` in the table must mean `CachePadded` \
                         in the struct",
                        d.name,
                        fd.name,
                        if fd.padded { "`padded`" } else { "unpadded" },
                        if fe.est.padded {
                            "wraps it in `CachePadded`"
                        } else {
                            "does not wrap it"
                        },
                    ),
                });
            }
        }
        if padding_drift {
            continue;
        }
        // Declared roles must agree with the sites' hb-writer annotations.
        for fd in &d.fields {
            for s in inv.atomics.iter().filter(|s| {
                s.ctx == Ctx::Src && s.file == d.file && s.receiver == fd.name
            }) {
                if let Some(role) = &s.writer_role {
                    if *role != fd.role {
                        out.push(Diag {
                            gate: "layout",
                            file: s.file.clone(),
                            line: s.line,
                            msg: format!(
                                "role drift on `{}.{}`: the site annotates \
                                 `hb-writer: {role}` but {layout_path} \
                                 declares writer role `{}`",
                                d.name, fd.name, fd.role
                            ),
                        });
                    }
                }
            }
        }
        // The false-sharing pair rule.
        for i in 0..d.fields.len() {
            for j in i + 1..d.fields.len() {
                let (ri, rj) = (&d.fields[i].role, &d.fields[j].role);
                if ri == rj || ri == "ro" || rj == "ro" {
                    continue;
                }
                if crate::layout::lines_disjoint(&est, i, j, layout.line_bytes) {
                    continue;
                }
                let (fi, fj) = (&est.fields[i], &est.fields[j]);
                let extent = match (fi.offset, fj.offset) {
                    (Some(a), Some(b)) => format!(" (offsets {a} and {b})"),
                    _ => " (conservatively — an extent is unknown)".to_owned(),
                };
                out.push(Diag {
                    gate: "layout",
                    file: site.file.clone(),
                    line: fj.line,
                    msg: format!(
                        "possible false sharing in `{}`: fields `{}` (role \
                         `{ri}`) and `{}` (role `{rj}`) can occupy the same \
                         {}-byte cache line{extent}; wrap one in \
                         `CachePadded` or separate them by a full line",
                        d.name, fi.name, fj.name, layout.line_bytes
                    ),
                });
            }
        }
    }

    // Discovery: undeclared structs with ≥2 inline atomic fields.
    for s in &inv.structs {
        if s.ctx != Ctx::Src
            || !layout.crates.iter().any(|c| c == &s.crate_name)
            || declared.contains(&(s.file.as_str(), s.name.as_str()))
        {
            continue;
        }
        let est = crate::layout::estimate(s, &consts);
        let n_atomic = est.fields.iter().filter(|f| f.est.atomic).count();
        if n_atomic >= 2 {
            out.push(Diag {
                gate: "layout",
                file: s.file.clone(),
                line: s.line,
                msg: format!(
                    "struct `{}` holds {n_atomic} inline atomic fields but \
                     {layout_path} has no [[struct]] entry for it — declare \
                     per-field writer roles so the false-sharing check can \
                     run",
                    s.name
                ),
            });
        }
    }

    out
}

/// Gate 7: the loom model-coverage check.
///
/// Every non-test atomic site in the covered crates — plus every
/// edge-carrying site (Release store or acquiring/releasing RMW) on a
/// field mapped in `analysis/hb_map.toml`, whatever its crate — must
/// carry a contiguous `// loom-model: <test>[,<test>…]` annotation naming
/// models declared in `analysis/coverage.toml`. Each `[[model]]` must
/// name an existing `#[test]` function in its declared file, and each
/// must be referenced by at least one annotation.
pub(crate) fn gate_modelcov(
    inv: &Inventory,
    cov: &Coverage,
    map: &HbMap,
    cov_path: &str,
) -> Vec<Diag> {
    let mut out = Vec::new();
    if cov.crates.is_empty() {
        return out; // gate disabled (no coverage.toml)
    }

    let mut bad_decl: BTreeSet<&str> = BTreeSet::new();
    for m in &cov.models {
        let exists = inv
            .tests
            .iter()
            .any(|t| t.name == m.test && t.file == m.file);
        if !exists {
            bad_decl.insert(&m.test);
            out.push(Diag {
                gate: "modelcov",
                file: cov_path.to_owned(),
                line: m.line,
                msg: format!(
                    "[[model]] names `{}` in `{}` but no `#[test]` function \
                     with that name exists there — fix the table or restore \
                     the loom test",
                    m.test, m.file
                ),
            });
        }
    }

    let declared: BTreeSet<&str> = cov.models.iter().map(|m| m.test.as_str()).collect();
    let mut referenced: BTreeSet<String> = BTreeSet::new();

    for s in inv.atomics.iter().filter(|s| s.ctx == Ctx::Src) {
        let covered_crate = cov.crates.iter().any(|c| c == &s.crate_name);
        let is_rmw = crate::scan::RMW_OPS.contains(&s.op.as_str());
        let edge_carrying = (s.op == "store" && s.has_ordering("Release"))
            || (is_rmw
                && (s.has_ordering("AcqRel")
                    || s.has_ordering("SeqCst")
                    || s.has_ordering("Acquire")
                    || s.has_ordering("Release")));
        let required =
            covered_crate || (edge_carrying && map.edge_for(&s.file, &s.receiver).is_some());
        match &s.model {
            Some(names) => {
                for name in names.split(',').filter(|n| !n.is_empty()) {
                    if declared.contains(name) {
                        referenced.insert(name.to_owned());
                    } else {
                        out.push(Diag {
                            gate: "modelcov",
                            file: s.file.clone(),
                            line: s.line,
                            msg: format!(
                                "stale loom-model annotation: `{name}` is not \
                                 declared in {cov_path} — add a [[model]] \
                                 entry or fix the name"
                            ),
                        });
                    }
                }
            }
            None if required => {
                out.push(Diag {
                    gate: "modelcov",
                    file: s.file.clone(),
                    line: s.line,
                    msg: format!(
                        "atomic site `{}.{}({})` has no adjacent \
                         `// loom-model: <test>` annotation naming the loom \
                         suite that drives this interleaving — every \
                         shipped atomic in the covered crates needs a model \
                         declared in {cov_path}",
                        s.receiver,
                        s.op,
                        s.orderings.join(", ")
                    ),
                });
            }
            None => {}
        }
    }

    for m in &cov.models {
        if !referenced.contains(&m.test) && !bad_decl.contains(m.test.as_str()) {
            out.push(Diag {
                gate: "modelcov",
                file: cov_path.to_owned(),
                line: m.line,
                msg: format!(
                    "stale [[model]] `{}`: no loom-model annotation \
                     references it — delete the entry or annotate the sites \
                     it covers",
                    m.test
                ),
            });
        }
    }

    out
}

/// Gate 3: the atomics ratchet.
pub(crate) fn gate_ratchet(inv: &Inventory, lock: &Lock, lock_path: &str) -> Vec<Diag> {
    let current = ratchet::aggregate(&inv.atomics);
    ratchet::diff(&current, lock)
        .into_iter()
        .map(|(sig, locked, now)| {
            let pretty = sig.replace('\t', " ");
            // Point at a concrete culprit line when the site exists in code.
            let site = inv
                .atomics
                .iter()
                .find(|s| ratchet::signature(s) == sig);
            Diag {
                gate: "ratchet",
                file: site.map_or_else(|| lock_path.to_owned(), |s| s.file.clone()),
                line: site.map_or(0, |s| s.line),
                msg: format!(
                    "atomics baseline drift for `{pretty}`: lock has x{locked}, \
                     tree has x{now}; review the change and re-baseline with \
                     `cargo run -p wfbn-analyze -- baseline`",
                ),
            }
        })
        .collect()
}
