//! Token-stream scanner: turns lexed source into the concurrency inventory.
//!
//! Five extraction passes run over each file's tokens:
//!
//! 1. **Atomic operations** — method calls whose argument list names a
//!    memory `Ordering` (`store`/`load`/`swap`), plus the unambiguous RMW
//!    family (`fetch_*`, `compare_exchange*`). `Vec::swap(i, j)` and
//!    `core::cmp::Ordering::Less` never match: the former has no ordering
//!    argument, the latter's variant is not a memory ordering.
//! 2. **`unsafe` items** — blocks, fns, impls, traits — each checked for an
//!    *adjacent* `// SAFETY:` comment: the contiguous run of comment and
//!    attribute lines directly above the item (or a trailing comment on the
//!    same line). Code between the comment and the item breaks adjacency —
//!    the false-accept the old 6-line-window shell heuristic had.
//! 3. **Test context** — `#[cfg(test)]` items and files under `tests/` are
//!    flagged so policy gates can treat test scaffolding differently from
//!    hot-path code.
//! 4. **Loops** — every `loop`/`while`/`for` extent, with the atomic loads,
//!    method calls, and `spin_loop`/`yield_now` hints *attributed to the
//!    innermost enclosing loop*. The `waitloop` gate decides from those
//!    triggers which loops are poll loops and demands a `// wf-bound:`
//!    termination annotation on each (see [`LoopSite`]).
//! 5. **Blocking constructs** — lock/condvar/channel types, `park`/`sleep`/
//!    `recv` calls, bare `.join()`, and `spin_loop` outside any loop; the
//!    `noblock` gate denies them on hot-path crates (see [`BlockingSite`]).
//! 6. **Struct definitions** — every named-field struct with its fields'
//!    type text, `#[repr(C)]`/`#[repr(align(N))]` attributes, and source
//!    line, feeding the `layout` false-sharing gate (see [`StructSite`]).
//! 7. **Integer constants and `#[test]` functions** — `const N: usize = …`
//!    definitions (for resolving `[T; N]` array lengths) and the names of
//!    `#[test]`-attributed functions (for the `modelcov` gate's
//!    model-existence check).
//!
//! Release stores may carry a `// hb-writer: <role>` annotation naming the
//! unique writer role of the stored-to field; the happens-before gate
//! cross-checks those roles against `analysis/hb_map.toml`. Poll loops
//! carry a `// wf-bound: <kind>(<arg>)` annotation, cross-checked against
//! `analysis/progress.toml` by the same adjacency rules. Atomic sites may
//! carry a `// loom-model: <test>[,<test>…]` annotation naming the loom
//! suite(s) that exercise the site, cross-checked against
//! `analysis/coverage.toml` by the `modelcov` gate.

use crate::lexer::{lex, Comment, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Whether a site sits in shipped code or in test scaffolding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ctx {
    /// Non-test code compiled into the library/binary.
    Src,
    /// `#[cfg(test)]` items or files under a `tests/` directory.
    Test,
}

impl Ctx {
    /// Stable lowercase name used in lock files and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Ctx::Src => "src",
            Ctx::Test => "test",
        }
    }
}

/// One atomic operation site.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the method name.
    pub line: u32,
    /// Crate the file belongs to (from its `Cargo.toml`).
    pub crate_name: String,
    /// Src or Test context.
    pub ctx: Ctx,
    /// Identifier the method was called on (best-effort field name).
    pub receiver: String,
    /// Method name: `store`, `load`, `swap`, `fetch_add`, ...
    pub op: String,
    /// Memory orderings named in the argument list, in source order.
    /// `["?"]` when an RMW op passes its ordering through a variable.
    pub orderings: Vec<String>,
    /// `// hb-writer: <role>` annotation adjacent to the site, if any.
    pub writer_role: Option<String>,
    /// `// loom-model: <test>[,<test>…]` annotation adjacent to the site,
    /// if any (comma-separated, no spaces).
    pub model: Option<String>,
}

impl AtomicSite {
    /// True if any named ordering equals `ord`.
    pub(crate) fn has_ordering(&self, ord: &str) -> bool {
        self.orderings.iter().any(|o| o == ord)
    }
}

/// One `unsafe` block/fn/impl/trait site.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Src or Test context.
    pub ctx: Ctx,
    /// `block`, `fn`, `impl`, `trait`, or `other`.
    pub kind: &'static str,
    /// Whether an adjacent SAFETY comment documents the site.
    pub documented: bool,
}

/// One `loop`/`while`/`for` extent that received at least one polling
/// trigger (or a `wf-bound` annotation).
///
/// Triggers are attributed to the **innermost** enclosing loop only; a
/// trigger in the body of a `for` loop is dropped (the iteration count is
/// bounded by the iterator — an unbounded poll inside it would be its own
/// `while`/`loop` and register there), while a trigger in a `for` loop's
/// *head* (the iterator expression) still attaches to the `for`.
#[derive(Debug, Clone)]
pub struct LoopSite {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the `loop`/`while`/`for` keyword.
    pub line: u32,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Src or Test context.
    pub ctx: Ctx,
    /// `loop`, `while`, or `for`.
    pub kind: &'static str,
    /// Adjacent `// wf-bound: <kind>(<arg>)` annotation, if any.
    pub bound: Option<String>,
    /// Atomic `load` sites inside the loop: (receiver, line).
    pub loads: Vec<(String, u32)>,
    /// Method/path calls inside the loop: (name, line). The gate filters
    /// these against the configured poll-method list.
    pub calls: Vec<(String, u32)>,
    /// `spin_loop`/`yield_now` hints inside the loop: (name, line).
    pub spins: Vec<(String, u32)>,
}

impl LoopSite {
    /// A short human-readable list of the loop's polling triggers.
    pub(crate) fn trigger_summary(&self, poll_methods: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (r, _) in &self.loads {
            parts.push(format!("load(`{r}`)"));
        }
        for (c, _) in &self.calls {
            if poll_methods.iter().any(|m| m == c) {
                parts.push(format!("`.{c}()`"));
            }
        }
        for (s, _) in &self.spins {
            parts.push(format!("`{s}()`"));
        }
        parts.dedup();
        parts.truncate(4);
        parts.join(", ")
    }
}

/// One blocking-construct site (lock/condvar/channel type, park/sleep/recv
/// call, bare `.join()`, or a `spin_loop` outside any loop).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the construct.
    pub line: u32,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Src or Test context.
    pub ctx: Ctx,
    /// Construct name: `Mutex`, `join`, `sleep`, `spin_loop`, ...
    pub construct: String,
}

/// One named-field struct definition.
#[derive(Debug, Clone)]
pub struct StructSite {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the struct name.
    pub line: u32,
    /// Crate the file belongs to.
    pub crate_name: String,
    /// Src or Test context.
    pub ctx: Ctx,
    /// The struct's name.
    pub name: String,
    /// Whether the struct carries `#[repr(C)]`.
    pub repr_c: bool,
    /// `N` from `#[repr(align(N))]`, if present.
    pub repr_align: Option<u64>,
    /// Fields in declaration order.
    pub fields: Vec<StructField>,
}

/// One field of a [`StructSite`].
#[derive(Debug, Clone)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: u32,
    /// The field's type as rendered token text, e.g.
    /// `[UnsafeCell<MaybeUninit<T>>; SEG_CAP]`. Re-lexing this string
    /// reproduces the original token stream.
    pub ty: String,
}

/// One `const NAME: <int> = <literal>;` definition.
#[derive(Debug, Clone)]
pub struct ConstDef {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the constant's name.
    pub line: u32,
    /// Constant name.
    pub name: String,
    /// Parsed integer value.
    pub value: u64,
    /// Preference when the same name is defined more than once behind
    /// `cfg` gates: 2 = ungated, 1 = gated by a `cfg` containing `not(..)`
    /// (the default-build arm), 0 = gated by a plain `cfg` (a non-default
    /// arm, e.g. `cfg(feature = "loom")`). Higher wins.
    pub score: u8,
}

/// One `#[test]`-attributed function.
#[derive(Debug, Clone)]
pub struct TestFn {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Function name.
    pub name: String,
}

/// The whole workspace's concurrency inventory.
#[derive(Debug, Default)]
pub struct Inventory {
    /// Every atomic operation, in (file, line) order.
    pub atomics: Vec<AtomicSite>,
    /// Every `unsafe` site, in (file, line) order.
    pub unsafes: Vec<UnsafeSite>,
    /// Every loop that polls (or is annotated), in (file, line) order.
    pub loops: Vec<LoopSite>,
    /// Every blocking-construct site, in (file, line) order.
    pub blocking: Vec<BlockingSite>,
    /// Every named-field struct definition, in (file, line) order.
    pub structs: Vec<StructSite>,
    /// Every integer constant definition, in (file, line) order.
    pub consts: Vec<ConstDef>,
    /// Every `#[test]` function, in (file, line) order.
    pub tests: Vec<TestFn>,
    /// Atomic type mentions (`AtomicUsize`, ...) per file, for reporting.
    pub atomic_types: BTreeMap<String, BTreeMap<String, usize>>,
}

const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Ops that are atomic only when an `Ordering` appears in the call.
const ORDERED_OPS: &[&str] = &["load", "store", "swap"];

/// Read-modify-write ops; unambiguous regardless of how the ordering is
/// spelled.
pub const RMW_OPS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Type names that imply blocking (or a parked thread) when mentioned in
/// code. `mpsc` covers any `std::sync::mpsc` path segment.
const BLOCKING_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

/// Call names that block the calling thread. Only `.name(` / `::name(`
/// call positions match, so a local variable named `sleep` is invisible.
const BLOCKING_CALLS: &[&str] = &["park", "park_timeout", "sleep", "recv", "recv_timeout"];

/// Busy-wait hints; inside a loop they mark it as polling, outside any
/// loop `spin_loop` is itself recorded as a blocking-ish construct.
const SPIN_HINTS: &[&str] = &["spin_loop", "yield_now"];

/// Scans one file's source text.
///
/// `file` is the path recorded in diagnostics, `crate_name` the owning
/// crate, and `file_ctx` the whole-file default context (Test for files
/// under `tests/`).
pub fn scan_file(src: &str, file: &str, crate_name: &str, file_ctx: Ctx) -> Inventory {
    let lexed = lex(src);
    let toks = &lexed.toks;

    let attr = attr_ranges(toks);
    let in_test = test_regions(toks, &attr);
    let lines = LineInfo::new(toks, &attr, &lexed.comments);
    let extents = loop_extents(toks, &attr);

    let mut inv = Inventory::default();

    // Per-extent trigger accumulators, filled during the main walk.
    let mut loop_loads: Vec<Vec<(String, u32)>> = vec![Vec::new(); extents.len()];
    let mut loop_calls: Vec<Vec<(String, u32)>> = vec![Vec::new(); extents.len()];
    let mut loop_spins: Vec<Vec<(String, u32)>> = vec![Vec::new(); extents.len()];

    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let ctx = if file_ctx == Ctx::Test || in_test[i] {
            Ctx::Test
        } else {
            Ctx::Src
        };

        if ATOMIC_TYPES.contains(&name.as_str()) {
            *inv.atomic_types
                .entry(file.to_owned())
                .or_default()
                .entry(name.clone())
                .or_insert(0) += 1;
        }

        // A blocking-type name reached through a non-`sync` path segment
        // (`Stage::Barrier`, some enum's `::Mutex` variant) is another
        // namespace's identifier, not the std/loom synchronization type.
        let path_prefixed = i >= 2
            && toks[i - 1].kind == TokKind::Punct(':')
            && toks[i - 2].kind == TokKind::Punct(':');
        let foreign_path = path_prefixed
            && i >= 3
            && matches!(&toks[i - 3].kind,
                TokKind::Ident(seg) if seg != "sync" && seg != "std" && seg != "loom");
        // `Barrier = 1,` inside an enum declares a discriminant for a
        // variant that merely shares the name. A bare name directly
        // followed by a single `=` is never a *use* of the std/loom type:
        // type position is reached via `:`/`::`, value position via
        // `::new(..)`.
        let variant_decl = !path_prefixed
            && matches!(toks.get(i + 1), Some(n) if n.kind == TokKind::Punct('='))
            && !matches!(toks.get(i + 2), Some(n) if n.kind == TokKind::Punct('='));
        if BLOCKING_TYPES.contains(&name.as_str())
            && !attr.covers(i)
            && !foreign_path
            && !variant_decl
        {
            inv.blocking.push(BlockingSite {
                file: file.to_owned(),
                line: t.line,
                crate_name: crate_name.to_owned(),
                ctx,
                construct: name.clone(),
            });
        }

        if name == "unsafe" && !attr.covers(i) {
            inv.unsafes.push(UnsafeSite {
                file: file.to_owned(),
                line: t.line,
                crate_name: crate_name.to_owned(),
                ctx,
                kind: unsafe_kind(toks, i),
                documented: lines.has_adjacent(t.line, &["SAFETY:", "# Safety"]),
            });
            continue;
        }

        // Call position: `.name(` or `::name(`.
        let called = matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('))
            && i > 0
            && (toks[i - 1].kind == TokKind::Punct('.')
                || (i >= 2
                    && toks[i - 1].kind == TokKind::Punct(':')
                    && toks[i - 2].kind == TokKind::Punct(':')));

        if called && SPIN_HINTS.contains(&name.as_str()) {
            // A spin hint belongs to the nearest enclosing non-`for` loop
            // (a `for` body is already iteration-bounded; the spin's
            // progress argument lives with the polling `while`/`loop`).
            match innermost(&extents, i, true) {
                Some(ei) => loop_spins[ei].push((name.clone(), t.line)),
                None if name == "spin_loop" => inv.blocking.push(BlockingSite {
                    file: file.to_owned(),
                    line: t.line,
                    crate_name: crate_name.to_owned(),
                    ctx,
                    construct: "spin_loop".to_owned(),
                }),
                None => {}
            }
            continue;
        }

        if called && BLOCKING_CALLS.contains(&name.as_str()) {
            inv.blocking.push(BlockingSite {
                file: file.to_owned(),
                line: t.line,
                crate_name: crate_name.to_owned(),
                ctx,
                construct: name.clone(),
            });
            continue;
        }

        // Bare `.join()` — empty argument list distinguishes a thread join
        // from `Path::join(..)` / `slice.join(sep)`, which take arguments.
        if name == "join"
            && i > 0
            && toks[i - 1].kind == TokKind::Punct('.')
            && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('))
            && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Punct(')'))
        {
            inv.blocking.push(BlockingSite {
                file: file.to_owned(),
                line: t.line,
                crate_name: crate_name.to_owned(),
                ctx,
                construct: "join".to_owned(),
            });
            continue;
        }

        let is_ordered = ORDERED_OPS.contains(&name.as_str());
        let is_rmw = RMW_OPS.contains(&name.as_str());
        if (is_ordered || is_rmw)
            && i > 0
            && toks[i - 1].kind == TokKind::Punct('.')
            && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('))
        {
            let orderings = call_orderings(toks, i + 1);
            if is_ordered && orderings.is_empty() {
                continue; // Vec::swap, HashMap::load-alikes, etc.
            }
            let orderings = if orderings.is_empty() {
                vec!["?".to_owned()]
            } else {
                orderings
            };
            if name == "load" {
                if let Some(ei) = body_or_head(&extents, i) {
                    loop_loads[ei].push((receiver_of(toks, i - 1), t.line));
                }
            }
            inv.atomics.push(AtomicSite {
                file: file.to_owned(),
                line: t.line,
                crate_name: crate_name.to_owned(),
                ctx,
                receiver: receiver_of(toks, i - 1),
                op: name.clone(),
                orderings,
                writer_role: lines.writer_role(t.line),
                model: lines.loom_model(t.line),
            });
            continue;
        }

        // Generic call trigger for the poll-method cross-check.
        if called {
            if let Some(ei) = body_or_head(&extents, i) {
                loop_calls[ei].push((name.clone(), t.line));
            }
        }
    }

    for (ei, e) in extents.iter().enumerate() {
        let bound = lines.wf_bound(e.line);
        if loop_loads[ei].is_empty()
            && loop_calls[ei].is_empty()
            && loop_spins[ei].is_empty()
            && bound.is_none()
        {
            continue; // plain bounded iteration, nothing to check
        }
        let ctx = if file_ctx == Ctx::Test || in_test[e.kw] {
            Ctx::Test
        } else {
            Ctx::Src
        };
        inv.loops.push(LoopSite {
            file: file.to_owned(),
            line: e.line,
            crate_name: crate_name.to_owned(),
            ctx,
            kind: e.kind,
            bound,
            loads: std::mem::take(&mut loop_loads[ei]),
            calls: std::mem::take(&mut loop_calls[ei]),
            spins: std::mem::take(&mut loop_spins[ei]),
        });
    }
    inv.loops.sort_by_key(|a| a.line);

    inv.structs = extract_structs(toks, &attr, &in_test, file, crate_name, file_ctx);
    inv.consts = extract_consts(toks, &attr, file);
    inv.tests = extract_test_fns(toks, &attr, file);

    inv
}

/// Parses an integer literal's source text: decimal or `0x` hex, with `_`
/// separators and type suffixes (`512usize`) tolerated.
pub(crate) fn int_lit(text: &str) -> Option<u64> {
    let t = text.replace('_', "");
    let (radix, digits) = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(rest) => (16, rest),
        None => (10, t.as_str()),
    };
    let end = digits
        .find(|c: char| !c.is_digit(radix))
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Walks backward from the token at `idx` (exclusive) over visibility and
/// qualifier tokens, returning the attribute ranges that prefix the item.
fn item_attrs(toks: &[Tok], attr: &AttrRanges, idx: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut j = idx;
    while j > 0 {
        let p = j - 1;
        match &toks[p].kind {
            TokKind::Ident(s)
                if matches!(s.as_str(), "pub" | "async" | "const" | "unsafe" | "extern") =>
            {
                j = p;
            }
            TokKind::Punct(')') => {
                // A `pub(crate)` / `pub(in path)` restriction group.
                let mut depth = 0isize;
                let mut k = p;
                let open = loop {
                    match toks[k].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break Some(k);
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break None;
                    }
                    k -= 1;
                };
                match open {
                    Some(k)
                        if k >= 1
                            && matches!(&toks[k - 1].kind,
                                TokKind::Ident(s) if s == "pub") =>
                    {
                        j = k - 1;
                    }
                    _ => break,
                }
            }
            TokKind::Punct(']') => match attr.ending_at(p) {
                Some((s, _)) => {
                    out.push((s, p));
                    j = s;
                }
                None => break,
            },
            _ => break,
        }
    }
    out
}

/// Reads `#[repr(..)]` facts out of an item's attribute ranges.
fn repr_of(toks: &[Tok], attrs: &[(usize, usize)]) -> (bool, Option<u64>) {
    let mut repr_c = false;
    let mut repr_align = None;
    for &(s, e) in attrs {
        let span = &toks[s..=e];
        if !matches!(span.get(2).map(|t| &t.kind),
            Some(TokKind::Ident(n)) if n == "repr")
        {
            continue;
        }
        for (k, t) in span.iter().enumerate() {
            match &t.kind {
                TokKind::Ident(n) if n == "C" => repr_c = true,
                TokKind::Ident(n) if n == "align" => {
                    if let (Some(Tok { kind: TokKind::Punct('('), .. }), Some(lit)) =
                        (span.get(k + 1), span.get(k + 2))
                    {
                        if let TokKind::Lit(text) = &lit.kind {
                            repr_align = int_lit(text);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    (repr_c, repr_align)
}

/// Renders a token slice back to compact source text. Idents and literals
/// are separated where needed so re-lexing reproduces the token stream.
fn render_tokens(toks: &[Tok]) -> String {
    let mut out = String::new();
    let mut prev_wordy = false;
    for t in toks {
        let (text, wordy): (&str, bool) = match &t.kind {
            TokKind::Ident(s) => (s, true),
            TokKind::Lit(s) => (s, true),
            TokKind::Lifetime => ("'_", true),
            TokKind::Punct(c) => {
                out.push(*c);
                if *c == ';' || *c == ',' {
                    out.push(' ');
                }
                prev_wordy = false;
                continue;
            }
        };
        if prev_wordy {
            out.push(' ');
        }
        out.push_str(text);
        prev_wordy = wordy;
    }
    out.trim_end().to_owned()
}

/// Extracts every named-field struct definition.
fn extract_structs(
    toks: &[Tok],
    attr: &AttrRanges,
    in_test: &[bool],
    file: &str,
    crate_name: &str,
    file_ctx: Ctx,
) -> Vec<StructSite> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.kind, TokKind::Ident(n) if n == "struct") || attr.covers(i) {
            continue;
        }
        let Some(Tok { kind: TokKind::Ident(name), line: name_line }) = toks.get(i + 1)
        else {
            continue;
        };
        // Locate the field block: first `{` at angle/paren depth 0 after
        // the name (skipping generics and any where-clause). `;` or `(`
        // first means a unit/tuple struct, which the layout model skips.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('<' | '(' | '[') => depth += 1,
                TokKind::Punct('>' | ')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => {
                    open = Some(j);
                    break;
                }
                TokKind::Punct(';' | '{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let (repr_c, repr_align) = repr_of(toks, &item_attrs(toks, attr, i));
        let mut fields = Vec::new();
        let mut k = open + 1;
        'fields: while k < toks.len() && toks[k].kind != TokKind::Punct('}') {
            while let Some((_, ae)) = attr.starting_at(k) {
                k = ae + 1;
            }
            if matches!(&toks[k].kind, TokKind::Ident(s) if s == "pub") {
                k += 1;
                if toks.get(k).map(|t| &t.kind) == Some(&TokKind::Punct('(')) {
                    let mut d = 0i32;
                    while k < toks.len() {
                        match toks[k].kind {
                            TokKind::Punct('(') => d += 1,
                            TokKind::Punct(')') => {
                                d -= 1;
                                if d == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            let Some(Tok { kind: TokKind::Ident(fname), line: fline }) = toks.get(k)
            else {
                break;
            };
            if toks.get(k + 1).map(|t| &t.kind) != Some(&TokKind::Punct(':')) {
                break;
            }
            let ty_start = k + 2;
            let mut d = 0i32;
            let mut m = ty_start;
            while m < toks.len() {
                match toks[m].kind {
                    TokKind::Punct('<' | '(' | '[' | '{') => d += 1,
                    TokKind::Punct('>' | ')' | ']' | '}') if d > 0 => d -= 1,
                    TokKind::Punct(',') if d == 0 => break,
                    TokKind::Punct('}') if d == 0 => {
                        fields.push(StructField {
                            name: fname.clone(),
                            line: *fline,
                            ty: render_tokens(&toks[ty_start..m]),
                        });
                        break 'fields;
                    }
                    _ => {}
                }
                m += 1;
            }
            fields.push(StructField {
                name: fname.clone(),
                line: *fline,
                ty: render_tokens(&toks[ty_start..m]),
            });
            k = m + 1;
        }
        let ctx = if file_ctx == Ctx::Test || in_test[i] {
            Ctx::Test
        } else {
            Ctx::Src
        };
        out.push(StructSite {
            file: file.to_owned(),
            line: *name_line,
            crate_name: crate_name.to_owned(),
            ctx,
            name: name.clone(),
            repr_c,
            repr_align,
            fields,
        });
    }
    out
}

/// Extracts every `const NAME: <int-type> = <int-literal>;` definition,
/// scoring each by its `cfg` gating (see [`ConstDef::score`]).
fn extract_consts(toks: &[Tok], attr: &AttrRanges, file: &str) -> Vec<ConstDef> {
    const INT_TYPES: &[&str] = &[
        "usize", "u8", "u16", "u32", "u64", "isize", "i8", "i16", "i32", "i64",
    ];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.kind, TokKind::Ident(n) if n == "const") || attr.covers(i) {
            continue;
        }
        // `*const T` is a pointer type, `const fn` a qualifier.
        if i > 0 && toks[i - 1].kind == TokKind::Punct('*') {
            continue;
        }
        let (Some(name_tok), Some(colon), Some(ty), Some(eq), Some(lit), Some(semi)) = (
            toks.get(i + 1),
            toks.get(i + 2),
            toks.get(i + 3),
            toks.get(i + 4),
            toks.get(i + 5),
            toks.get(i + 6),
        ) else {
            continue;
        };
        let (TokKind::Ident(name), TokKind::Ident(ty_name), TokKind::Lit(text)) =
            (&name_tok.kind, &ty.kind, &lit.kind)
        else {
            continue;
        };
        if colon.kind != TokKind::Punct(':')
            || eq.kind != TokKind::Punct('=')
            || semi.kind != TokKind::Punct(';')
            || !INT_TYPES.contains(&ty_name.as_str())
        {
            continue;
        }
        let Some(value) = int_lit(text) else { continue };
        let mut score = 2u8;
        for (s, e) in item_attrs(toks, attr, i) {
            let span = &toks[s..=e];
            let has = |w: &str| {
                span.iter()
                    .any(|t| matches!(&t.kind, TokKind::Ident(n) if n == w))
            };
            if has("cfg") {
                score = score.min(if has("not") { 1 } else { 0 });
            }
        }
        out.push(ConstDef {
            file: file.to_owned(),
            line: name_tok.line,
            name: name.clone(),
            value,
            score,
        });
    }
    out
}

/// Extracts every function carrying an exact `#[test]` attribute.
fn extract_test_fns(toks: &[Tok], attr: &AttrRanges, file: &str) -> Vec<TestFn> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !matches!(&t.kind, TokKind::Ident(n) if n == "fn") || attr.covers(i) {
            continue;
        }
        let Some(Tok { kind: TokKind::Ident(name), .. }) = toks.get(i + 1) else {
            continue;
        };
        let is_test = item_attrs(toks, attr, i).iter().any(|&(s, e)| {
            e == s + 3
                && toks[s + 1].kind == TokKind::Punct('[')
                && matches!(&toks[s + 2].kind, TokKind::Ident(n) if n == "test")
                && toks[s + 3].kind == TokKind::Punct(']')
        });
        if is_test {
            out.push(TestFn {
                file: file.to_owned(),
                line: t.line,
                name: name.clone(),
            });
        }
    }
    out
}

/// One `loop`/`while`/`for` construct's token extent.
struct LoopExtent {
    /// `loop`, `while`, or `for`.
    kind: &'static str,
    /// 1-based line of the keyword.
    line: u32,
    /// Token index of the keyword.
    kw: usize,
    /// Token index of the body's opening `{`.
    body_open: usize,
    /// Token index of the body's matching `}`.
    end: usize,
}

/// Extracts every loop extent. `for` is a loop only when an `in` keyword
/// precedes its body at bracket depth 0 — `impl Trait for Type` and
/// `for<'a>` bounds have none and are skipped.
fn loop_extents(toks: &[Tok], attr: &AttrRanges) -> Vec<LoopExtent> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = &t.kind else {
            continue;
        };
        let kind = match name.as_str() {
            "loop" => "loop",
            "while" => "while",
            "for" => "for",
            _ => continue,
        };
        if attr.covers(i) {
            continue;
        }
        // Locate the body `{`: first brace at paren/bracket depth 0 after
        // the keyword (closure braces inside the condition sit inside
        // parens and are skipped by the depth count).
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut saw_in = false;
        let mut body_open = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(' | '[') => depth += 1,
                TokKind::Punct(')' | ']') => depth -= 1,
                TokKind::Punct('{') if depth == 0 => {
                    body_open = Some(j);
                    break;
                }
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => depth -= 1,
                TokKind::Punct(';') if depth == 0 => break, // not a loop after all
                TokKind::Ident(s) if depth == 0 && s == "in" => saw_in = true,
                _ => {}
            }
            j += 1;
        }
        let Some(bo) = body_open else {
            continue;
        };
        if kind == "for" && !saw_in {
            continue;
        }
        let mut d = 0i32;
        let mut k = bo;
        let mut end = toks.len().saturating_sub(1);
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => d += 1,
                TokKind::Punct('}') => {
                    d -= 1;
                    if d == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push(LoopExtent {
            kind,
            line: t.line,
            kw: i,
            body_open: bo,
            end,
        });
    }
    out
}

/// Index of the innermost extent containing token `idx` (condition and
/// body both count). `skip_for` restricts to non-`for` loops.
fn innermost(extents: &[LoopExtent], idx: usize, skip_for: bool) -> Option<usize> {
    extents
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kw < idx && idx <= e.end && !(skip_for && e.kind == "for"))
        .min_by_key(|(_, e)| e.end - e.kw)
        .map(|(ei, _)| ei)
}

/// Innermost extent for a load/call trigger, applying the `for` rule:
/// a trigger in a `for` loop's *body* is dropped (bounded iteration),
/// one in its head (the iterator expression) still attaches.
fn body_or_head(extents: &[LoopExtent], idx: usize) -> Option<usize> {
    let ei = innermost(extents, idx, false)?;
    let e = &extents[ei];
    if e.kind == "for" && idx > e.body_open {
        return None;
    }
    Some(ei)
}

impl Inventory {
    /// Merges another file's inventory into this one.
    pub fn absorb(&mut self, other: Inventory) {
        self.atomics.extend(other.atomics);
        self.unsafes.extend(other.unsafes);
        self.loops.extend(other.loops);
        self.blocking.extend(other.blocking);
        self.structs.extend(other.structs);
        self.consts.extend(other.consts);
        self.tests.extend(other.tests);
        for (file, counts) in other.atomic_types {
            let slot = self.atomic_types.entry(file).or_default();
            for (ty, n) in counts {
                *slot.entry(ty).or_insert(0) += n;
            }
        }
    }
}

/// Attribute token ranges: `#[...]` and `#![...]` spans.
struct AttrRanges {
    ranges: Vec<(usize, usize)>,
}

impl AttrRanges {
    fn covers(&self, idx: usize) -> bool {
        self.ranges.iter().any(|&(s, e)| s <= idx && idx <= e)
    }

    /// Index of the range starting at `idx`, if any.
    fn starting_at(&self, idx: usize) -> Option<(usize, usize)> {
        self.ranges.iter().copied().find(|&(s, _)| s == idx)
    }

    /// Index of the range ending at `idx`, if any.
    fn ending_at(&self, idx: usize) -> Option<(usize, usize)> {
        self.ranges.iter().copied().find(|&(_, e)| e == idx)
    }
}

fn attr_ranges(toks: &[Tok]) -> AttrRanges {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct('#') {
            let mut j = i + 1;
            if matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct('!')) {
                j += 1;
            }
            if matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct('[')) {
                let mut depth = 0usize;
                let mut k = j;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('[') => depth += 1,
                        TokKind::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                ranges.push((i, k.min(toks.len().saturating_sub(1))));
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    AttrRanges { ranges }
}

/// Marks token indices that sit inside a `#[cfg(test)]`-gated item.
fn test_regions(toks: &[Tok], attr: &AttrRanges) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    for &(s, e) in &attr.ranges {
        if !attr_is_cfg_test(&toks[s..=e.min(toks.len() - 1)]) {
            continue;
        }
        // Skip any further attributes, then mark the gated item's extent:
        // to the matching `}` of its first brace, or to a `;` for bodyless
        // items.
        let mut j = e + 1;
        while let Some((_, ae)) = attr.starting_at(j) {
            j = ae + 1;
        }
        let mut depth = 0usize;
        let mut k = j;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take((k + 1).min(toks.len())).skip(s) {
            *flag = true;
        }
    }
    in_test
}

/// Whether an attribute gates its item to test builds: a `cfg` predicate
/// naming `test` outside any `not(..)` group. `cfg(test)` and
/// `cfg(all(test, not(feature = "loom")))` qualify; `cfg(not(test))` does
/// not.
fn attr_is_cfg_test(attr_toks: &[Tok]) -> bool {
    let mut saw_cfg = false;
    let mut depth = 0usize;
    // Paren depths at which a `not(` group opened; `test` seen while any
    // are live is negated.
    let mut not_depths: Vec<usize> = Vec::new();
    let mut pending_not = false;
    for t in attr_toks {
        match &t.kind {
            TokKind::Punct('(') => {
                depth += 1;
                if pending_not {
                    not_depths.push(depth);
                }
                pending_not = false;
            }
            TokKind::Punct(')') => {
                if not_depths.last() == Some(&depth) {
                    not_depths.pop();
                }
                depth = depth.saturating_sub(1);
                pending_not = false;
            }
            TokKind::Ident(s) => {
                pending_not = false;
                if !saw_cfg {
                    if s == "cfg" {
                        saw_cfg = true;
                    } else {
                        return false;
                    }
                } else if s == "not" {
                    pending_not = true;
                } else if s == "test" && not_depths.is_empty() {
                    return true;
                }
            }
            _ => pending_not = false,
        }
    }
    false
}

/// What follows an `unsafe` keyword.
fn unsafe_kind(toks: &[Tok], i: usize) -> &'static str {
    match toks.get(i + 1).map(|t| &t.kind) {
        Some(TokKind::Punct('{')) => "block",
        Some(TokKind::Ident(s)) => match s.as_str() {
            "fn" => "fn",
            "impl" => "impl",
            "trait" => "trait",
            "extern" => "fn",
            _ => "other",
        },
        _ => "other",
    }
}

/// Memory orderings named anywhere in the call starting at the `(` token.
fn call_orderings(toks: &[Tok], open: usize) -> Vec<String> {
    let mut depth = 0usize;
    let mut out = Vec::new();
    let mut k = open;
    while k < toks.len() {
        match &toks[k].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            // Require a `Ordering::` (or `…::Ordering::`) path prefix so
            // a stray variable named `Relaxed`-like cannot match.
            TokKind::Ident(s)
                if ORDERINGS.contains(&s.as_str())
                    && k >= 3
                    && toks[k - 1].kind == TokKind::Punct(':')
                    && toks[k - 2].kind == TokKind::Punct(':')
                    && toks[k - 3].kind == TokKind::Ident("Ordering".into()) =>
            {
                out.push(s.clone());
            }
            _ => {}
        }
        k += 1;
    }
    out
}

/// Best-effort receiver (field) name: the identifier before the `.` at
/// `dot`, looking through one closing `]`/`)` group.
fn receiver_of(toks: &[Tok], dot: usize) -> String {
    if dot == 0 {
        return "expr".to_owned();
    }
    match &toks[dot - 1].kind {
        TokKind::Ident(s) => s.clone(),
        TokKind::Punct(close @ (']' | ')')) => {
            let open = if *close == ']' { '[' } else { '(' };
            let mut depth = 0isize;
            let mut k = dot - 1;
            loop {
                match &toks[k].kind {
                    TokKind::Punct(c) if *c == *close => depth += 1,
                    TokKind::Punct(c) if *c == open => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == 0 {
                    return "expr".to_owned();
                }
                k -= 1;
            }
            match k.checked_sub(1).map(|p| &toks[p].kind) {
                Some(TokKind::Ident(s)) => s.clone(),
                _ => "expr".to_owned(),
            }
        }
        _ => "expr".to_owned(),
    }
}

/// Per-line classification for the adjacency rules.
struct LineInfo {
    /// Lines containing at least one non-attribute code token.
    code: BTreeSet<u32>,
    /// Lines containing attribute tokens (and no other code).
    attr: BTreeSet<u32>,
    /// Comment text per line (block comments mark every spanned line).
    comment: BTreeMap<u32, String>,
}

impl LineInfo {
    fn new(toks: &[Tok], attr: &AttrRanges, comments: &[Comment]) -> Self {
        let mut code = BTreeSet::new();
        let mut attr_lines = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            if attr.covers(i) {
                attr_lines.insert(t.line);
            } else {
                code.insert(t.line);
            }
        }
        let mut comment = BTreeMap::<u32, String>::new();
        for c in comments {
            for line in c.start_line..=c.end_line {
                comment.entry(line).or_default().push_str(&c.text);
            }
        }
        LineInfo {
            code,
            attr: attr_lines,
            comment,
        }
    }

    /// True if a comment adjacent to `line` contains any of `needles`.
    ///
    /// Adjacent means: a comment on `line` itself (trailing), or within the
    /// contiguous run of comment/attribute lines directly above — any code
    /// line breaks the run. This is the fix for the shell heuristic's
    /// false accepts: a SAFETY note six lines up, with code in between,
    /// no longer counts.
    fn has_adjacent(&self, line: u32, needles: &[&str]) -> bool {
        let hit = |l: u32| {
            self.comment
                .get(&l)
                .is_some_and(|t| needles.iter().any(|n| t.contains(n)))
        };
        if hit(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let is_comment = self.comment.contains_key(&l);
            let is_attr = self.attr.contains(&l) && !self.code.contains(&l);
            if self.code.contains(&l) && !is_comment {
                // Pure code line: adjacency broken. A line holding both code
                // and a trailing comment still counts as a comment line for
                // the search below, then breaks the walk.
                return false;
            }
            if is_comment && hit(l) {
                return true;
            }
            if self.code.contains(&l) {
                return false; // code + trailing comment without the needle
            }
            if !is_comment && !is_attr {
                return false; // blank line breaks adjacency
            }
            l -= 1;
        }
        false
    }

    /// Extracts an adjacent `<marker> <value>` annotation, if present:
    /// a trailing comment on `line` itself, or one in the contiguous
    /// comment/attribute run directly above (same adjacency rules as
    /// [`has_adjacent`](Self::has_adjacent)).
    fn marker_value(&self, line: u32, marker: &str) -> Option<String> {
        let extract = |l: u32| -> Option<String> {
            let text = self.comment.get(&l)?;
            let pos = text.find(marker)?;
            let rest = &text[pos + marker.len()..];
            let value: String = rest
                .trim_start()
                .chars()
                .take_while(|c| !c.is_whitespace())
                .collect();
            (!value.is_empty()).then_some(value)
        };
        if let Some(r) = extract(line) {
            return Some(r);
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let is_comment = self.comment.contains_key(&l);
            let is_code = self.code.contains(&l);
            let is_attr = self.attr.contains(&l) && !is_code;
            // A trailing comment on a *code* line annotates that line, not
            // the one below it — only pure comment lines carry upward.
            if is_comment && !is_code {
                if let Some(r) = extract(l) {
                    return Some(r);
                }
            }
            if is_code || (!is_comment && !is_attr) {
                return None;
            }
            l -= 1;
        }
        None
    }

    /// Extracts an adjacent `hb-writer: <role>` annotation, if present.
    fn writer_role(&self, line: u32) -> Option<String> {
        self.marker_value(line, "hb-writer:")
    }

    /// Extracts an adjacent `wf-bound: <kind>(<arg>)` annotation, if
    /// present.
    fn wf_bound(&self, line: u32) -> Option<String> {
        self.marker_value(line, "wf-bound:")
    }

    /// Extracts an adjacent `loom-model: <test>[,<test>…]` annotation, if
    /// present.
    fn loom_model(&self, line: u32) -> Option<String> {
        self.marker_value(line, "loom-model:")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Inventory {
        scan_file(src, "test.rs", "demo", Ctx::Src)
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let inv = scan("fn f() { match x.cmp(&y) { core::cmp::Ordering::Less => {} _ => {} } }");
        assert!(inv.atomics.is_empty());
    }

    #[test]
    fn vec_swap_is_not_an_atomic_site() {
        let inv = scan("fn f(v: &mut Vec<u8>) { v.swap(0, 1); order.swap(i, j); }");
        assert!(inv.atomics.is_empty());
    }

    #[test]
    fn store_with_ordering_is_found_with_field_and_ordering() {
        let inv = scan("fn f() { self.tail.len.store(idx + 1, Ordering::Release); }");
        assert_eq!(inv.atomics.len(), 1);
        let s = &inv.atomics[0];
        assert_eq!(s.receiver, "len");
        assert_eq!(s.op, "store");
        assert_eq!(s.orderings, vec!["Release"]);
    }

    #[test]
    fn indexed_receiver_resolves_to_the_array_name() {
        let inv = scan("fn f() { cells[key as usize].fetch_add(1, Ordering::Relaxed); }");
        assert_eq!(inv.atomics[0].receiver, "cells");
        assert_eq!(inv.atomics[0].op, "fetch_add");
    }

    #[test]
    fn compare_exchange_collects_both_orderings() {
        let inv =
            scan("fn f() { w.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire); }");
        assert_eq!(inv.atomics[0].orderings, vec!["AcqRel", "Acquire"]);
    }

    #[test]
    fn rmw_with_variable_ordering_still_registers() {
        let inv = scan("fn f(o: Ordering) { w.fetch_add(1, o); }");
        assert_eq!(inv.atomics[0].orderings, vec!["?"]);
    }

    #[test]
    fn cfg_test_module_marks_sites_as_test_ctx() {
        let src = "fn f() { w.store(1, Ordering::Release); }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { w.store(2, Ordering::SeqCst); }\n}\n";
        let inv = scan(src);
        assert_eq!(inv.atomics[0].ctx, Ctx::Src);
        assert_eq!(inv.atomics[1].ctx, Ctx::Test);
    }

    #[test]
    fn cfg_not_test_is_src() {
        let src = "#[cfg(not(test))]\nfn f() { w.store(1, Ordering::Release); }\n";
        assert_eq!(scan(src).atomics[0].ctx, Ctx::Src);
    }

    #[test]
    fn cfg_all_test_not_feature_gates_as_test_ctx() {
        // The real test modules are gated `#[cfg(all(test, not(feature =
        // "loom")))]`; the `not(..)` negates the feature, not `test`.
        let src = "#[cfg(all(test, not(feature = \"loom\")))]\nmod tests {\n  \
                   fn g() { w.store(2, Ordering::SeqCst); }\n}\n";
        assert_eq!(scan(src).atomics[0].ctx, Ctx::Test);
    }

    #[test]
    fn cfg_any_not_test_alone_is_src() {
        let src = "#[cfg(any(not(test), feature = \"x\"))]\nfn f() { w.store(1, Ordering::Release); }\n";
        assert_eq!(scan(src).atomics[0].ctx, Ctx::Src);
    }

    #[test]
    fn adjacent_safety_comment_documents_unsafe() {
        let src = "fn f() {\n    // SAFETY: idx is in bounds.\n    unsafe { g() };\n}\n";
        assert!(scan(src).unsafes[0].documented);
    }

    #[test]
    fn safety_comment_above_attributes_still_counts() {
        let src = "// SAFETY: the repr makes this sound.\n#[repr(C)]\n#[derive(Clone)]\nunsafe impl Send for X {}\n";
        let inv = scan(src);
        assert_eq!(inv.unsafes[0].kind, "impl");
        assert!(inv.unsafes[0].documented);
    }

    #[test]
    fn safety_comment_separated_by_code_is_a_false_accept_no_more() {
        let src = "// SAFETY: documents ONLY the first block.\nlet a = unsafe { g() };\nlet b = 1;\nlet c = unsafe { h() };\n";
        let inv = scan(src);
        assert!(inv.unsafes[0].documented);
        assert!(!inv.unsafes[1].documented, "code broke adjacency");
    }

    #[test]
    fn trailing_same_line_safety_counts() {
        let src = "let a = unsafe { g() }; // SAFETY: g is pure.\n";
        assert!(scan(src).unsafes[0].documented);
    }

    #[test]
    fn writer_role_annotation_is_extracted() {
        let src = "fn f() {\n    // hb-writer: producer\n    tail.len.store(1, Ordering::Release);\n}\n";
        assert_eq!(scan(src).atomics[0].writer_role.as_deref(), Some("producer"));
    }

    #[test]
    fn doc_example_atomics_are_invisible(){
        let src = "/// ```\n/// hits.fetch_add(1, Ordering::Relaxed);\n/// ```\npub fn wait() {}\n";
        assert!(scan(src).atomics.is_empty());
    }

    #[test]
    fn while_polling_an_atomic_is_a_loop_site_with_the_load() {
        let src = "fn wait(f: &AtomicBool) {\n    while !f.load(Ordering::Acquire) {\n        core::hint::spin_loop();\n    }\n}\n";
        let inv = scan(src);
        assert_eq!(inv.loops.len(), 1);
        let l = &inv.loops[0];
        assert_eq!((l.kind, l.line), ("while", 2));
        assert_eq!(l.loads, vec![("f".to_owned(), 2)]);
        assert_eq!(l.spins, vec![("spin_loop".to_owned(), 3)]);
        assert!(l.bound.is_none());
    }

    #[test]
    fn wf_bound_annotation_attaches_to_the_loop_line() {
        let src = "fn wait(f: &AtomicBool) {\n    // wf-bound: rendezvous(P)\n    while !f.load(Ordering::Acquire) {}\n}\n";
        let inv = scan(src);
        assert_eq!(inv.loops[0].bound.as_deref(), Some("rendezvous(P)"));
    }

    #[test]
    fn triggers_attribute_to_the_innermost_loop_only() {
        let src = "fn f(q: &Q) {\n    loop {\n        while let Some(v) = q.try_pop() {\n            use_(v);\n        }\n        break;\n    }\n}\n";
        let inv = scan(src);
        // Only the inner while registers (it holds the try_pop trigger);
        // the outer loop has no triggers of its own.
        assert_eq!(inv.loops.len(), 1);
        assert_eq!(inv.loops[0].kind, "while");
        assert!(inv.loops[0].calls.iter().any(|(n, _)| n == "try_pop"));
    }

    #[test]
    fn for_loop_bodies_do_not_register_poll_triggers() {
        let src = "fn f(cells: &[AtomicU64]) {\n    for c in cells {\n        let _ = c.load(Ordering::Relaxed);\n    }\n}\n";
        assert!(scan(src).loops.is_empty(), "bounded iteration is not a poll loop");
    }

    #[test]
    fn impl_trait_for_type_is_not_a_for_loop() {
        let src = "impl Probe for Gate {\n    fn go(&self) { self.w.load(Ordering::Acquire); }\n}\n";
        assert!(scan(src).loops.is_empty());
    }

    #[test]
    fn spin_in_a_for_body_escalates_to_the_enclosing_while() {
        let src = "fn f(g: &G) {\n    while g.open() {\n        for _ in 0..8 {\n            std::hint::spin_loop();\n        }\n    }\n}\n";
        let inv = scan(src);
        assert_eq!(inv.loops.len(), 1);
        assert_eq!(inv.loops[0].kind, "while");
        assert_eq!(inv.loops[0].spins.len(), 1);
    }

    #[test]
    fn spin_outside_any_loop_is_a_blocking_site() {
        let src = "fn f() { std::hint::spin_loop(); }\n";
        let inv = scan(src);
        assert!(inv.loops.is_empty());
        assert_eq!(inv.blocking.len(), 1);
        assert_eq!(inv.blocking[0].construct, "spin_loop");
    }

    #[test]
    fn mutex_type_and_thread_join_are_blocking_sites() {
        let src = "use std::sync::Mutex;\nfn f(h: std::thread::JoinHandle<()>) {\n    h.join().unwrap();\n}\n";
        let inv = scan(src);
        let names: Vec<&str> = inv.blocking.iter().map(|b| b.construct.as_str()).collect();
        assert_eq!(names, vec!["Mutex", "join"]);
    }

    #[test]
    fn enum_variant_named_barrier_is_not_a_blocking_type() {
        let src = "fn f(cr: &R) { cr.stage_ns(Stage::Barrier, 7); }\n";
        assert!(scan(src).blocking.is_empty());
        let std_src = "fn f() { let b = std::sync::Barrier::new(2); }\n";
        assert_eq!(scan(std_src).blocking[0].construct, "Barrier");
    }

    #[test]
    fn enum_variant_discriminant_named_barrier_is_not_a_blocking_type() {
        let src = "pub enum Stage { Encode = 0, Barrier = 1, Drain = 2 }\n";
        assert!(scan(src).blocking.is_empty());
        // ...but a path-reached std type followed by `=` still counts.
        let std_src = "fn f() { let b: std::sync::Barrier = make(); }\n";
        assert_eq!(scan(std_src).blocking[0].construct, "Barrier");
    }

    #[test]
    fn path_join_and_str_join_take_arguments_and_are_invisible() {
        let src = "fn f(p: &Path, xs: &[String]) {\n    let _ = p.join(\"x\");\n    let _ = xs.join(\", \");\n}\n";
        assert!(scan(src).blocking.is_empty());
    }

    #[test]
    fn thread_sleep_is_a_blocking_site() {
        let src = "fn f() { std::thread::sleep(Duration::from_millis(1)); }\n";
        assert_eq!(scan(src).blocking[0].construct, "sleep");
    }

    #[test]
    fn struct_fields_and_repr_are_extracted() {
        let src = "#[repr(C)]\n#[repr(align(64))]\npub struct Seg<T> {\n    \
                   len: CachePadded<AtomicUsize>,\n    \
                   pub(crate) slots: [UnsafeCell<MaybeUninit<T>>; SEG_CAP],\n}\n";
        let inv = scan(src);
        assert_eq!(inv.structs.len(), 1);
        let s = &inv.structs[0];
        assert_eq!(s.name, "Seg");
        assert!(s.repr_c);
        assert_eq!(s.repr_align, Some(64));
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "len");
        assert_eq!(s.fields[0].ty, "CachePadded<AtomicUsize>");
        assert_eq!(s.fields[1].name, "slots");
        assert_eq!(s.fields[1].ty, "[UnsafeCell<MaybeUninit<T>>; SEG_CAP]");
        assert_eq!(s.fields[1].line, 5);
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped() {
        let inv = scan("struct A(u64, u64);\nstruct B;\nstruct C { x: u8 }\n");
        assert_eq!(inv.structs.len(), 1);
        assert_eq!(inv.structs[0].name, "C");
        assert!(!inv.structs[0].repr_c);
    }

    #[test]
    fn const_defs_are_extracted_with_cfg_preference_scores() {
        let src = "pub const A: usize = 512;\n\
                   #[cfg(not(feature = \"loom\"))]\nconst B: usize = 4;\n\
                   #[cfg(feature = \"loom\")]\nconst B: usize = 2;\n\
                   const fn f() {}\nfn g(p: *const u8) {}\n";
        let inv = scan(src);
        let vals: Vec<(&str, u64, u8)> = inv
            .consts
            .iter()
            .map(|c| (c.name.as_str(), c.value, c.score))
            .collect();
        assert_eq!(vals, vec![("A", 512, 2), ("B", 4, 1), ("B", 2, 0)]);
    }

    #[test]
    fn test_fns_are_extracted_and_cfg_test_is_not_confused_for_test() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn probe_works() {}\n    \
                   fn helper() {}\n}\n";
        let inv = scan(src);
        assert_eq!(inv.tests.len(), 1);
        assert_eq!(inv.tests[0].name, "probe_works");
        assert_eq!(inv.tests[0].line, 4);
    }

    #[test]
    fn loom_model_annotation_is_extracted() {
        let src = "fn f() {\n    // loom-model: publish_is_seen,drain_completes\n    \
                   tail.len.store(1, Ordering::Release);\n    w.store(2, Ordering::Release);\n}\n";
        let inv = scan(src);
        assert_eq!(
            inv.atomics[0].model.as_deref(),
            Some("publish_is_seen,drain_completes")
        );
        assert!(inv.atomics[1].model.is_none(), "annotation binds to the adjacent site only");
    }

    #[test]
    fn wf_bound_in_a_string_or_doc_example_never_registers() {
        let src = "fn f(q: &Q) {\n    let _s = \"// wf-bound: iters(8)\";\n    while q.try_pop().is_some() {}\n}\n";
        let inv = scan(src);
        assert_eq!(inv.loops.len(), 1);
        assert!(inv.loops[0].bound.is_none(), "string decoy must not annotate the loop");
    }
}
