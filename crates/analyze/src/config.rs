//! Policy and happens-before map models, loaded from `analysis/*.toml`.

use crate::minitoml::{self, Doc};
use std::path::Path;

/// `analysis/policy.toml`: the wait-freedom lint configuration.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    /// Crates whose non-test code must stay RMW-free (the hot path).
    pub hot_crates: Vec<String>,
    /// Operation names denied on the hot path (`fetch_*`, `swap`, ...).
    pub deny_ops: Vec<String>,
    /// Orderings denied everywhere (`SeqCst`).
    pub deny_orderings: Vec<String>,
    /// Crates exempt from the hot-path op denial (`wfbn-baselines`).
    pub exempt_crates: Vec<String>,
    /// Whether test-context sites are exempt from the op denial.
    pub allow_in_tests: bool,
    /// Whether the ordering denial also covers test-context sites.
    pub deny_orderings_in_tests: bool,
    /// Reviewed exceptions, each with a justification.
    pub waivers: Vec<Waiver>,
    /// Crates whose non-test code may hold no blocking construct
    /// (`[noblock]` section; empty = gate disabled).
    pub noblock_crates: Vec<String>,
    /// Reviewed blocking-construct exceptions (`[[noblock_waiver]]`).
    pub noblock_waivers: Vec<NoblockWaiver>,
}

/// One reviewed blocking-construct exception (e.g. the builders'
/// setup/teardown `.join()`, or the ownership-audit shadow Mutex).
#[derive(Debug, Clone)]
pub struct NoblockWaiver {
    /// Workspace-relative file the waived construct lives in.
    pub file: String,
    /// Construct name (`Mutex`, `join`, `sleep`, ...); covers every
    /// occurrence of that construct in the file.
    pub construct: String,
    /// One-line reviewed justification (required).
    pub why: String,
}

/// One reviewed policy exception (e.g. the barrier's arrival RMW).
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Workspace-relative file the waived site lives in.
    pub file: String,
    /// Receiver (field) name at the site.
    pub field: String,
    /// Operation name at the site.
    pub op: String,
    /// One-line reviewed justification (required).
    pub why: String,
}

/// One edge of the happens-before map (`analysis/hb_map.toml`),
/// mirroring a row of DESIGN.md §8/§11.
#[derive(Debug, Clone)]
pub struct HbEdge {
    /// Workspace-relative file holding both ends of the edge.
    pub file: String,
    /// Field (receiver) the Release/Acquire pair synchronizes on.
    pub field: String,
    /// `release-acquire` (default) or `rmw` for AcqRel edges.
    pub kind: String,
    /// Unique writer role; must match the sites' `hb-writer:` annotations.
    pub writer: String,
    /// Which DESIGN.md row this edge mirrors (free text, required).
    pub design: String,
    /// 1-based line of the `[[edge]]` header in hb_map.toml.
    pub line: u32,
}

/// The parsed happens-before map.
#[derive(Debug, Clone, Default)]
pub struct HbMap {
    /// All declared edges.
    pub edges: Vec<HbEdge>,
}

/// Configuration load error: file plus line/message.
#[derive(Debug)]
pub struct ConfigError {
    /// Path the error came from.
    pub file: String,
    /// 1-based line (0 when the file itself is missing).
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.msg)
    }
}

fn load_doc(path: &Path) -> Result<Doc, ConfigError> {
    let text = std::fs::read_to_string(path).map_err(|e| ConfigError {
        file: path.display().to_string(),
        line: 0,
        msg: format!("cannot read: {e}"),
    })?;
    minitoml::parse(&text).map_err(|(line, msg)| ConfigError {
        file: path.display().to_string(),
        line,
        msg,
    })
}

impl Policy {
    /// Loads `analysis/policy.toml`.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let doc = load_doc(path)?;
        let hot = doc.first("hot_path").cloned().unwrap_or_default();
        let exempt = doc.first("exempt").cloned().unwrap_or_default();
        let mut waivers = Vec::new();
        for w in doc.all("waiver") {
            let field = |key: &str| -> Result<String, ConfigError> {
                w.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: w.line,
                    msg: format!("[[waiver]] missing required `{key}`"),
                })
            };
            waivers.push(Waiver {
                file: field("file")?,
                field: field("field")?,
                op: field("op")?,
                why: field("why")?,
            });
        }
        let noblock = doc.first("noblock").cloned().unwrap_or_default();
        let mut noblock_waivers = Vec::new();
        for w in doc.all("noblock_waiver") {
            let field = |key: &str| -> Result<String, ConfigError> {
                w.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: w.line,
                    msg: format!("[[noblock_waiver]] missing required `{key}`"),
                })
            };
            noblock_waivers.push(NoblockWaiver {
                file: field("file")?,
                construct: field("construct")?,
                why: field("why")?,
            });
        }
        Ok(Policy {
            hot_crates: hot.list("crates"),
            deny_ops: hot.list("deny_ops"),
            deny_orderings: hot.list("deny_orderings"),
            exempt_crates: exempt.list("crates"),
            allow_in_tests: exempt.bool_or("allow_in_tests", true),
            deny_orderings_in_tests: hot.bool_or("deny_orderings_in_tests", true),
            waivers,
            noblock_crates: noblock.list("crates"),
            noblock_waivers,
        })
    }

    /// The waiver covering `(file, field, op)`, if any.
    pub(crate) fn waiver_for(&self, file: &str, field: &str, op: &str) -> Option<&Waiver> {
        self.waivers
            .iter()
            .find(|w| w.file == file && w.field == field && w.op == op)
    }

    /// The blocking-construct waiver covering `(file, construct)`, if any.
    pub(crate) fn noblock_waiver_for(&self, file: &str, construct: &str) -> Option<&NoblockWaiver> {
        self.noblock_waivers
            .iter()
            .find(|w| w.file == file && w.construct == construct)
    }
}

/// `analysis/progress.toml`: the bounded-loop (termination) declarations
/// for gate `waitloop`. A missing file disables the gate (fixtures that
/// predate it stay valid).
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Crates whose non-test poll loops must carry a `wf-bound`.
    pub crates: Vec<String>,
    /// Method names whose call inside a loop marks it as polling
    /// (`try_pop`, `pop_block`, `is_closed`, ...).
    pub poll_methods: Vec<String>,
    /// Accepted bound kinds (`iters`, `backlog`, `rendezvous`, ...).
    pub kinds: Vec<String>,
    /// Declared loops, cross-checked against the annotations.
    pub loops: Vec<LoopDecl>,
}

/// One declared poll loop: `[[loop]]` in `analysis/progress.toml`.
///
/// Matching is by `(file, bound)` multiset, not line number, so ordinary
/// edits that shift lines never churn the table.
#[derive(Debug, Clone)]
pub struct LoopDecl {
    /// Workspace-relative file the loop lives in.
    pub file: String,
    /// The exact `wf-bound` annotation text, e.g. `backlog(segments)`.
    pub bound: String,
    /// One-line termination proof sketch (required; mirrored in
    /// DESIGN.md §13).
    pub why: String,
    /// 1-based line of the `[[loop]]` header in progress.toml.
    pub line: u32,
}

impl Progress {
    /// Loads `analysis/progress.toml`; a missing file yields the empty
    /// (disabled) configuration.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        if !path.is_file() {
            return Ok(Progress::default());
        }
        let doc = load_doc(path)?;
        let wl = doc.first("waitloop").cloned().unwrap_or_default();
        let mut loops = Vec::new();
        for l in doc.all("loop") {
            let field = |key: &str| -> Result<String, ConfigError> {
                l.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: l.line,
                    msg: format!("[[loop]] missing required `{key}`"),
                })
            };
            loops.push(LoopDecl {
                file: field("file")?,
                bound: field("bound")?,
                why: field("why")?,
                line: l.line,
            });
        }
        Ok(Progress {
            crates: wl.list("crates"),
            poll_methods: wl.list("poll_methods"),
            kinds: wl.list("kinds"),
            loops,
        })
    }
}

/// `analysis/layout.toml`: the false-sharing gate's per-struct ownership
/// table. A missing file disables the gate.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Crates whose non-test structs are subject to the layout rules.
    pub crates: Vec<String>,
    /// Assumed cache-line size in bytes (default 64). Must divide
    /// `CachePadded`'s 128-byte alignment for the padding shortcut.
    pub line_bytes: u64,
    /// Constant pins from `[consts]`, for array lengths the scanner
    /// resolves ambiguously (cross-checked against the scanned values).
    pub consts: std::collections::BTreeMap<String, u64>,
    /// 1-based line of the `[consts]` header (0 when absent).
    pub consts_line: u32,
    /// Declared structs with per-field writer roles.
    pub structs: Vec<StructDecl>,
}

/// One `[[struct]]` ownership declaration in `analysis/layout.toml`.
#[derive(Debug, Clone)]
pub struct StructDecl {
    /// Workspace-relative file the struct is defined in.
    pub file: String,
    /// Struct name.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<FieldDecl>,
    /// One-line layout rationale (required).
    pub why: String,
    /// 1-based line of the `[[struct]]` header.
    pub line: u32,
}

/// One field spec: `"name: role"` or `"name: role: padded"`.
///
/// The role names the unique writer (matching `hb-writer:` annotations
/// where the field has Release stores); the special role `ro` marks a
/// field read-only after construction, which conflicts with nothing.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Writer role (`producer`, `consumer`, `ro`, ...).
    pub role: String,
    /// Whether the table declares the field `CachePadded`.
    pub padded: bool,
}

impl Layout {
    /// Loads `analysis/layout.toml`; a missing file yields the empty
    /// (disabled) configuration.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        if !path.is_file() {
            return Ok(Layout::default());
        }
        let doc = load_doc(path)?;
        let head = doc.first("layout").cloned().unwrap_or_default();
        let consts_sec = doc.first("consts");
        let mut consts = std::collections::BTreeMap::new();
        if let Some(sec) = consts_sec {
            for (name, v) in &sec.entries {
                let val = v.as_int().filter(|i| *i >= 0).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: sec.line,
                    msg: format!("[consts] `{name}` must be a non-negative integer"),
                })?;
                consts.insert(name.clone(), val as u64);
            }
        }
        let mut structs = Vec::new();
        for s in doc.all("struct") {
            let field = |key: &str| -> Result<String, ConfigError> {
                s.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: s.line,
                    msg: format!("[[struct]] missing required `{key}`"),
                })
            };
            let mut fields = Vec::new();
            for spec in s.list("fields") {
                let parts: Vec<&str> = spec.split(':').map(str::trim).collect();
                let ok = matches!(parts.len(), 2 | 3)
                    && !parts[0].is_empty()
                    && !parts[1].is_empty()
                    && (parts.len() == 2 || parts[2] == "padded");
                if !ok {
                    return Err(ConfigError {
                        file: path.display().to_string(),
                        line: s.line,
                        msg: format!(
                            "[[struct]] field spec `{spec}` must be `name: role[: padded]`"
                        ),
                    });
                }
                fields.push(FieldDecl {
                    name: parts[0].to_owned(),
                    role: parts[1].to_owned(),
                    padded: parts.len() == 3,
                });
            }
            structs.push(StructDecl {
                file: field("file")?,
                name: field("name")?,
                fields,
                why: field("why")?,
                line: s.line,
            });
        }
        Ok(Layout {
            crates: head.list("crates"),
            line_bytes: head.int_or("line_bytes", 64).max(1) as u64,
            consts,
            consts_line: consts_sec.map_or(0, |s| s.line),
            structs,
        })
    }
}

/// `analysis/coverage.toml`: the loom model-coverage table for gate
/// `modelcov`. A missing file disables the gate.
#[derive(Debug, Clone, Default)]
pub struct Coverage {
    /// Crates whose every non-test atomic site must carry a
    /// `loom-model:` annotation.
    pub crates: Vec<String>,
    /// Declared models, cross-checked against `#[test]` functions.
    pub models: Vec<ModelDecl>,
}

/// One `[[model]]` declaration in `analysis/coverage.toml`.
#[derive(Debug, Clone)]
pub struct ModelDecl {
    /// The `#[test]` function name.
    pub test: String,
    /// Workspace-relative file holding the test.
    pub file: String,
    /// One-line statement of what the model proves (required).
    pub why: String,
    /// 1-based line of the `[[model]]` header.
    pub line: u32,
}

impl Coverage {
    /// Loads `analysis/coverage.toml`; a missing file yields the empty
    /// (disabled) configuration.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        if !path.is_file() {
            return Ok(Coverage::default());
        }
        let doc = load_doc(path)?;
        let head = doc.first("modelcov").cloned().unwrap_or_default();
        let mut models = Vec::new();
        for m in doc.all("model") {
            let field = |key: &str| -> Result<String, ConfigError> {
                m.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: m.line,
                    msg: format!("[[model]] missing required `{key}`"),
                })
            };
            models.push(ModelDecl {
                test: field("test")?,
                file: field("file")?,
                why: field("why")?,
                line: m.line,
            });
        }
        Ok(Coverage {
            crates: head.list("crates"),
            models,
        })
    }
}

impl HbMap {
    /// Loads `analysis/hb_map.toml`.
    pub fn load(path: &Path) -> Result<Self, ConfigError> {
        let doc = load_doc(path)?;
        let mut edges = Vec::new();
        for e in doc.all("edge") {
            let field = |key: &str| -> Result<String, ConfigError> {
                e.str(key).map(str::to_owned).ok_or_else(|| ConfigError {
                    file: path.display().to_string(),
                    line: e.line,
                    msg: format!("[[edge]] missing required `{key}`"),
                })
            };
            edges.push(HbEdge {
                file: field("file")?,
                field: field("field")?,
                kind: e.str("kind").unwrap_or("release-acquire").to_owned(),
                writer: field("writer")?,
                design: field("design")?,
                line: e.line,
            });
        }
        Ok(HbMap { edges })
    }

    /// The edge covering `(file, field)`, if any.
    pub(crate) fn edge_for(&self, file: &str, field: &str) -> Option<&HbEdge> {
        self.edges
            .iter()
            .find(|e| e.file == file && e.field == field)
    }
}

/// Reads the `name` from a crate's `Cargo.toml` (fallback: directory name).
pub fn crate_name(manifest: &Path) -> Option<String> {
    let doc = load_doc(manifest).ok()?;
    doc.first("package")
        .and_then(|p| p.str("name"))
        .map(str::to_owned)
}
