//! A minimal TOML-subset reader for the analyzer's config files.
//!
//! Supports exactly what `analysis/policy.toml`, `analysis/hb_map.toml`,
//! and `crates/*/Cargo.toml` need: `[table]` headers, `[[array-of-table]]`
//! headers, `key = "string"`, `key = ["a", "b"]`, `key = 123`,
//! `key = true|false`, and `#` comments. No registry dependency — the
//! workspace's vendored-deps policy applies to the analyzer too.
//!
//! Every entry remembers its source line so config-side diagnostics
//! (a stale happens-before edge, say) point at the offending entry.

use std::collections::BTreeMap;

/// A scalar or string-array value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"..."`.
    Str(String),
    /// `[...]` of strings.
    List(Vec<String>),
    /// Integer literal.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The list payload, if this is a list.
    pub(crate) fn as_list(&self) -> Option<&[String]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// One `[header]` or `[[header]]` section with its keys.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Header path (e.g. `package`, `hot_path`, `edge`).
    pub name: String,
    /// 1-based line of the header (0 for the implicit root section).
    pub line: u32,
    /// Key/value pairs in order of appearance.
    pub entries: BTreeMap<String, Value>,
}

impl Section {
    /// String value for `key`, if present.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.entries.get(key).and_then(Value::as_str)
    }

    /// List value for `key`, or empty.
    pub fn list(&self, key: &str) -> Vec<String> {
        self.entries
            .get(key)
            .and_then(Value::as_list)
            .map(<[String]>::to_vec)
            .unwrap_or_default()
    }

    /// Bool value for `key`, or `default`.
    pub(crate) fn bool_or(&self, key: &str, default: bool) -> bool {
        self.entries
            .get(key)
            .and_then(Value::as_bool)
            .unwrap_or(default)
    }

    /// Integer value for `key`, or `default`.
    pub(crate) fn int_or(&self, key: &str, default: i64) -> i64 {
        self.entries
            .get(key)
            .and_then(Value::as_int)
            .unwrap_or(default)
    }
}

/// Parsed document: every section in file order (including repeated
/// `[[name]]` sections, one `Section` each).
#[derive(Debug, Default)]
pub struct Doc {
    /// Sections in order; index 0 is the implicit root.
    pub sections: Vec<Section>,
}

impl Doc {
    /// All sections named `name` (for `[[name]]` arrays).
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Section> + 'a {
        self.sections.iter().filter(move |s| s.name == name)
    }

    /// First section named `name`.
    pub fn first(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }
}

/// Parses the subset; returns `Err(line, message)` on anything outside it.
pub fn parse(src: &str) -> Result<Doc, (u32, String)> {
    let mut doc = Doc {
        sections: vec![Section::default()],
    };
    let lines: Vec<&str> = src.lines().collect();
    let mut idx = 0;
    while idx < lines.len() {
        let lineno = idx as u32 + 1;
        let mut line = strip_comment(lines[idx]).trim().to_owned();
        idx += 1;
        // Multi-line arrays: accumulate until the closing bracket.
        while line.contains('[')
            && !line.starts_with('[')
            && line.matches('[').count() > line.matches(']').count()
            && idx < lines.len()
        {
            line.push(' ');
            line.push_str(strip_comment(lines[idx]).trim());
            idx += 1;
        }
        let line = line.as_str();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line
            .strip_prefix("[[")
            .and_then(|s| s.strip_suffix("]]"))
            .or_else(|| line.strip_prefix('[').and_then(|s| s.strip_suffix(']')))
        {
            doc.sections.push(Section {
                name: inner.trim().to_owned(),
                line: lineno,
                entries: BTreeMap::new(),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err((lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = line[..eq].trim().to_owned();
        let value = parse_value(line[eq + 1..].trim())
            .ok_or_else(|| (lineno, format!("unsupported value for `{key}`")))?;
        doc.sections
            .last_mut()
            .expect("root section always present")
            .entries
            .insert(key, value);
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting `"` string boundaries.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_value(v: &str) -> Option<Value> {
    if let Some(inner) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Some(Value::Str(unescape(inner)));
    }
    if let Some(inner) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let mut items = Vec::new();
        let trimmed = inner.trim();
        if trimmed.is_empty() {
            return Some(Value::List(items));
        }
        for part in split_top_level(trimmed) {
            let part = part.trim();
            let s = part.strip_prefix('"')?.strip_suffix('"')?;
            items.push(unescape(s));
        }
        return Some(Value::List(items));
    }
    if v.starts_with('{') && v.ends_with('}') {
        // Inline tables (Cargo.toml dependency specs) are tolerated as
        // opaque strings — the analyzer never reads into them.
        return Some(Value::Str(v.to_owned()));
    }
    if v == "true" {
        return Some(Value::Bool(true));
    }
    if v == "false" {
        return Some(Value::Bool(false));
    }
    v.parse::<i64>().ok().map(Value::Int)
}

/// Splits list items on commas outside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !s[start..].trim().is_empty() {
        parts.push(&s[start..]);
    }
    parts
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_scalars() {
        let doc = parse(
            "# header\n[hot_path]\ncrates = [\"wfbn-core\", \"wfbn-serve\"]\n\n\
             [[edge]]\nfield = \"len\" # inline\ncount = 2\nstrict = true\n\
             [[edge]]\nfield = \"next\"\n",
        )
        .expect("parses");
        assert_eq!(
            doc.first("hot_path").expect("section").list("crates"),
            vec!["wfbn-core", "wfbn-serve"]
        );
        let edges: Vec<_> = doc.all("edge").collect();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].str("field"), Some("len"));
        assert_eq!(edges[0].entries.get("count"), Some(&Value::Int(2)));
        assert!(edges[0].bool_or("strict", false));
        assert!(edges[1].line > edges[0].line);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("why = \"per-segment # not per element\"\n").expect("parses");
        assert_eq!(
            doc.sections[0].str("why"),
            Some("per-segment # not per element")
        );
    }

    #[test]
    fn rejects_unsupported_syntax_with_line() {
        let err = parse("ok = 1\nbroken 2\n").expect_err("rejects");
        assert_eq!(err.0, 2);
    }
}
