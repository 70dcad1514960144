//! Conservative struct-layout estimator for the `layout` gate.
//!
//! Computes sizes and `#[repr(C)]` field offsets for the type shapes the
//! hot-path crates actually use: atomics, primitives, pointers,
//! `CachePadded<T>`, transparent cells (`UnsafeCell`/`MaybeUninit`/`Cell`/
//! `ManuallyDrop`), and fixed arrays whose length is a literal or a
//! workspace constant. Anything else estimates to *unknown*, which the
//! gate treats pessimistically (an unknown-extent field may share a cache
//! line with any neighbour).
//!
//! Two facts make the estimates sound rather than heuristic:
//!
//! 1. The gate requires declared structs to be `#[repr(C)]`, so field
//!    order and the offset formula (`round_up(offset, align)`) are
//!    guaranteed by the language, not by rustc's whims.
//! 2. `CachePadded<T>` is `#[repr(align(128))]`, and Rust guarantees a
//!    type's size is a multiple of its alignment — so a padded field
//!    always starts *and* ends on a 128-byte boundary, isolating it from
//!    every cache line its neighbours can occupy (for any line size that
//!    divides 128) even when its inner size is unknown.
//!
//! The estimator is cross-validated against `core::mem::size_of` /
//! `offset_of!` by `tests/layout_check.rs`, which compares every struct
//! declared in `analysis/layout.toml` against a compiled-in probe.

use crate::lexer::{lex, TokKind};
use crate::scan::{int_lit, StructSite};
use std::collections::BTreeMap;

/// Size/alignment estimate for one type expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TyEst {
    /// Size in bytes, `None` when the type is outside the model.
    pub size: Option<u64>,
    /// Alignment in bytes, `None` when unknown.
    pub align: Option<u64>,
    /// Whether the type is (or wraps) a `CachePadded`.
    pub padded: bool,
    /// Whether the type mentions an atomic type anywhere.
    pub atomic: bool,
}

impl TyEst {
    const UNKNOWN: TyEst = TyEst {
        size: None,
        align: None,
        padded: false,
        atomic: false,
    };

    const fn scalar(size: u64, atomic: bool) -> TyEst {
        TyEst {
            size: Some(size),
            align: Some(size),
            padded: false,
            atomic,
        }
    }
}

/// One field's estimate within a [`StructEst`].
#[derive(Debug, Clone)]
pub struct FieldEst {
    /// Field name.
    pub name: String,
    /// 1-based source line of the field.
    pub line: u32,
    /// The field's type text as scanned.
    pub ty: String,
    /// The type's estimate.
    pub est: TyEst,
    /// `#[repr(C)]` offset from the struct start, when computable.
    pub offset: Option<u64>,
}

/// Whole-struct estimate.
#[derive(Debug, Clone)]
pub struct StructEst {
    /// Struct name.
    pub name: String,
    /// Whether the definition carries `#[repr(C)]`.
    pub repr_c: bool,
    /// Per-field estimates, in declaration order.
    pub fields: Vec<FieldEst>,
    /// Total size (with trailing padding), when every field is known.
    pub size: Option<u64>,
}

const fn round_up(x: u64, align: u64) -> u64 {
    x.div_ceil(align) * align
}

/// `CachePadded`'s `#[repr(align(N))]` value in `wfbn_concurrent::pad`.
pub const CACHE_PAD_ALIGN: u64 = 128;

/// Estimates the `#[repr(C)]` layout of a scanned struct. `consts` maps
/// workspace constant names to values (for array lengths).
pub fn estimate(site: &StructSite, consts: &BTreeMap<String, u64>) -> StructEst {
    let mut fields = Vec::new();
    let mut offset = Some(0u64);
    let mut max_align = Some(1u64);
    for f in &site.fields {
        let est = estimate_ty(&f.ty, consts);
        let field_offset = match (offset, est.align) {
            (Some(o), Some(a)) => Some(round_up(o, a)),
            // A padded field re-anchors at a 128-byte boundary even when a
            // preceding field's extent is unknown — alignment is a property
            // of the field's own type. Its *own* offset stays unknown, but
            // boundary isolation (see `lines_disjoint`) doesn't need it.
            _ => None,
        };
        offset = match (field_offset, est.size) {
            (Some(o), Some(s)) => Some(o + s),
            _ => None,
        };
        max_align = match (max_align, est.align) {
            (Some(m), Some(a)) => Some(m.max(a)),
            _ => None,
        };
        fields.push(FieldEst {
            name: f.name.clone(),
            line: f.line,
            ty: f.ty.clone(),
            est,
            offset: field_offset,
        });
    }
    let size = match (offset, max_align) {
        (Some(o), Some(m)) => Some(round_up(o, m)),
        _ => None,
    };
    StructEst {
        name: site.name.clone(),
        repr_c: site.repr_c,
        fields,
        size,
    }
}

/// True when fields `i` and `j` of `est` can never occupy the same
/// `line_bytes`-sized cache line. Requires `line_bytes` to divide
/// [`CACHE_PAD_ALIGN`] for the padded-field shortcut to hold.
pub(crate) fn lines_disjoint(est: &StructEst, i: usize, j: usize, line_bytes: u64) -> bool {
    let (a, b) = (&est.fields[i.min(j)], &est.fields[i.max(j)]);
    if CACHE_PAD_ALIGN % line_bytes == 0 && (a.est.padded || b.est.padded) {
        return true;
    }
    match (a.offset, a.est.size, b.offset) {
        (Some(ao), Some(asz), Some(bo)) if asz > 0 => {
            (ao + asz - 1) / line_bytes < bo / line_bytes
        }
        // Zero-sized `a` occupies no line at all.
        (_, Some(0), _) => true,
        _ => false,
    }
}

/// Estimates one type expression (the scanner's rendered token text).
///
/// The `atomic` flag marks types whose atomics live *inline* in the
/// field's own extent — `Box<AtomicU64>`/`Arc<AtomicU64>` fields are
/// pointers; writes go to the heap, so they neither false-share within
/// the struct nor count toward the discovery rule.
pub(crate) fn estimate_ty(ty: &str, consts: &BTreeMap<String, u64>) -> TyEst {
    let lexed = lex(ty);
    parse_ty(&lexed.toks.iter().map(|t| &t.kind).collect::<Vec<_>>(), consts)
}

fn parse_ty(toks: &[&TokKind], consts: &BTreeMap<String, u64>) -> TyEst {
    match toks.first() {
        // `[T; N]` — fixed array.
        Some(TokKind::Punct('[')) => parse_array(toks, consts),
        // References, raw pointers: thin-pointer assumption holds for
        // every sized pointee; the model has no unsized fields.
        Some(TokKind::Punct('&' | '*')) => {
            let inner_start = match toks.get(1) {
                Some(TokKind::Ident(m)) if m == "mut" || m == "const" => 2,
                _ => 1,
            };
            let inner = parse_ty(&toks[inner_start..], consts);
            TyEst {
                size: Some(8),
                align: Some(8),
                padded: false,
                atomic: inner.atomic,
            }
        }
        Some(TokKind::Ident(_)) => parse_path(toks, consts),
        _ => TyEst::UNKNOWN,
    }
}

fn parse_array(toks: &[&TokKind], consts: &BTreeMap<String, u64>) -> TyEst {
    // Split `[ inner ; len ]` at the top-level `;`.
    let mut depth = 0i32;
    let mut semi = None;
    for (k, t) in toks.iter().enumerate().skip(1) {
        match t {
            TokKind::Punct('[' | '(' | '<' | '{') => depth += 1,
            TokKind::Punct(']') if depth == 0 => break,
            TokKind::Punct(']' | ')' | '>' | '}') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => {
                semi = Some(k);
                break;
            }
            _ => {}
        }
    }
    let Some(semi) = semi else { return TyEst::UNKNOWN };
    let inner = parse_ty(&toks[1..semi], consts);
    let len = match toks.get(semi + 1) {
        Some(TokKind::Lit(text)) => int_lit(text),
        Some(TokKind::Ident(name)) => consts.get(name.as_str()).copied(),
        _ => None,
    };
    let size = match (inner.size, inner.align, len) {
        // Array stride is the element size rounded to its alignment;
        // for the model's element types size is already a multiple.
        (Some(s), Some(a), Some(n)) => Some(round_up(s, a.max(1)) * n),
        _ => None,
    };
    TyEst {
        size,
        align: inner.align,
        padded: false,
        atomic: inner.atomic,
    }
}

/// Generic argument tokens of `Name<...>`: the slice between the first
/// top-level `<` and its match, up to the first top-level `,`.
fn first_generic_arg<'a>(toks: &'a [&'a TokKind]) -> Option<&'a [&'a TokKind]> {
    let open = toks.iter().position(|t| **t == TokKind::Punct('<'))?;
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return Some(&toks[open + 1..k]);
                }
            }
            TokKind::Punct(',') if depth == 1 => return Some(&toks[open + 1..k]),
            _ => {}
        }
    }
    None
}

fn parse_path(toks: &[&TokKind], consts: &BTreeMap<String, u64>) -> TyEst {
    // Last path segment before any `<`: `std::sync::atomic::AtomicU64`
    // and `AtomicU64` estimate identically.
    let mut name = "";
    for t in toks {
        match t {
            TokKind::Ident(s) => name = s,
            TokKind::Punct(':') => {}
            _ => break,
        }
    }
    match name {
        "CachePadded" => {
            let inner = first_generic_arg(toks)
                .map(|g| parse_ty(g, consts))
                .unwrap_or(TyEst::UNKNOWN);
            TyEst {
                size: inner
                    .size
                    .map(|s| round_up(s.max(1), CACHE_PAD_ALIGN)),
                align: Some(CACHE_PAD_ALIGN),
                padded: true,
                atomic: inner.atomic,
            }
        }
        // `#[repr(transparent)]` wrappers: layout equals the inner type.
        "UnsafeCell" | "MaybeUninit" | "Cell" | "ManuallyDrop" => first_generic_arg(toks)
            .map(|g| parse_ty(g, consts))
            .unwrap_or(TyEst::UNKNOWN),
        "AtomicBool" | "AtomicU8" | "AtomicI8" => TyEst::scalar(1, true),
        "AtomicU16" | "AtomicI16" => TyEst::scalar(2, true),
        "AtomicU32" | "AtomicI32" => TyEst::scalar(4, true),
        "AtomicU64" | "AtomicI64" | "AtomicUsize" | "AtomicIsize" => TyEst::scalar(8, true),
        "AtomicPtr" => TyEst::scalar(8, true),
        "bool" | "u8" | "i8" => TyEst::scalar(1, false),
        "u16" | "i16" => TyEst::scalar(2, false),
        "u32" | "i32" | "f32" | "char" => TyEst::scalar(4, false),
        "u64" | "i64" | "f64" | "usize" | "isize" => TyEst::scalar(8, false),
        // Thin owning pointers. `Box<[T]>`/`Box<str>`/`Box<dyn ..>` are
        // wide (16 bytes) and estimate to unknown rather than to a wrong 8.
        "Box" | "NonNull" => {
            let head = first_generic_arg(toks).and_then(|g| g.first().copied());
            match head {
                Some(TokKind::Punct('[')) => TyEst::UNKNOWN,
                Some(TokKind::Ident(n)) if n == "str" || n == "dyn" => TyEst::UNKNOWN,
                _ => TyEst::scalar(8, false),
            }
        }
        _ => TyEst::UNKNOWN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_file, Ctx};

    fn consts(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn scalar_and_atomic_sizes() {
        let c = consts(&[]);
        assert_eq!(estimate_ty("AtomicUsize", &c), TyEst::scalar(8, true));
        assert_eq!(estimate_ty("AtomicBool", &c), TyEst::scalar(1, true));
        assert_eq!(estimate_ty("u32", &c), TyEst::scalar(4, false));
        assert_eq!(
            estimate_ty("core::sync::atomic::AtomicU64", &c),
            TyEst::scalar(8, true)
        );
    }

    #[test]
    fn cache_padded_rounds_to_128_and_flags_padded() {
        let c = consts(&[]);
        let e = estimate_ty("CachePadded<AtomicUsize>", &c);
        assert_eq!((e.size, e.align, e.padded, e.atomic), (Some(128), Some(128), true, true));
        // Unknown inner type: size unknown, isolation facts still hold.
        let u = estimate_ty("CachePadded<Weird>", &c);
        assert_eq!((u.size, u.align, u.padded), (None, Some(128), true));
    }

    #[test]
    fn arrays_resolve_lengths_from_literals_and_consts() {
        let c = consts(&[("LAT_BUCKETS", 16)]);
        let e = estimate_ty("[AtomicU64; LAT_BUCKETS]", &c);
        assert_eq!((e.size, e.align, e.atomic), (Some(128), Some(8), true));
        let lit = estimate_ty("[u8; 24]", &c);
        assert_eq!(lit.size, Some(24));
        let unresolved = estimate_ty("[u8; MISSING]", &c);
        assert_eq!(unresolved.size, None);
    }

    #[test]
    fn transparent_cells_and_pointers() {
        let c = consts(&[("SEG_CAP", 512)]);
        let e = estimate_ty("[UnsafeCell<MaybeUninit<u64>>; SEG_CAP]", &c);
        assert_eq!((e.size, e.align), (Some(4096), Some(8)));
        let p = estimate_ty("AtomicPtr<Segment<T>>", &c);
        assert_eq!((p.size, p.atomic), (Some(8), true));
        let generic = estimate_ty("[UnsafeCell<MaybeUninit<T>>; SEG_CAP]", &c);
        assert_eq!(generic.size, None, "generic element defeats the model");
    }

    fn est(src: &str, consts_in: &[(&str, u64)]) -> StructEst {
        let inv = scan_file(src, "lib.rs", "demo", Ctx::Src);
        estimate(&inv.structs[0], &consts(consts_in))
    }

    #[test]
    fn repr_c_offsets_accumulate_with_alignment() {
        let e = est(
            "#[repr(C)] struct S { a: AtomicBool, b: AtomicU64, c: u16 }",
            &[],
        );
        let offs: Vec<Option<u64>> = e.fields.iter().map(|f| f.offset).collect();
        assert_eq!(offs, vec![Some(0), Some(8), Some(16)]);
        assert_eq!(e.size, Some(24));
    }

    #[test]
    fn padded_fields_anchor_at_128() {
        let e = est(
            "#[repr(C)] struct S { head: CachePadded<AtomicUsize>, closed: CachePadded<AtomicBool> }",
            &[],
        );
        assert_eq!(e.fields[0].offset, Some(0));
        assert_eq!(e.fields[1].offset, Some(128));
        assert_eq!(e.size, Some(256));
    }

    #[test]
    fn unknown_field_poisons_following_offsets_only() {
        let e = est("#[repr(C)] struct S { a: u64, w: Weird, b: u64 }", &[]);
        assert_eq!(e.fields[0].offset, Some(0));
        assert_eq!(e.fields[1].offset, None);
        assert_eq!(e.fields[2].offset, None);
        assert_eq!(e.size, None);
    }

    #[test]
    fn disjoint_lines_by_offset_and_by_padding() {
        let near = est("#[repr(C)] struct S { a: AtomicU64, b: AtomicU64 }", &[]);
        assert!(!lines_disjoint(&near, 0, 1, 64), "0..8 and 8..16 share line 0");
        let far = est(
            "#[repr(C)] struct S { a: [u8; 64], b: AtomicU64 }",
            &[],
        );
        assert!(lines_disjoint(&far, 0, 1, 64), "0..64 and 64..72 split at the boundary");
        let padded = est(
            "#[repr(C)] struct S { w: Weird, a: CachePadded<AtomicU64>, b: AtomicU64 }",
            &[],
        );
        assert!(
            lines_disjoint(&padded, 1, 2, 64),
            "padding isolates even after an unknown field"
        );
        assert!(!lines_disjoint(&padded, 0, 2, 64), "unknown extents stay pessimistic");
    }
}
