//! The SARIF 2.1.0 log of `wfbn-analyze check --format sarif` over this
//! workspace: well-formed JSON plus the structural anchors code-scanning
//! annotators rely on — schema and version, the driver name, the `rules`
//! and `results` arrays, and exactly the eight rule ids (seven gates plus
//! the safety pass).

use std::path::Path;
use std::process::Command;

/// The rule ids, one per gate plus the safety pass. The set is exact, not a
/// lower bound: a gate added to the analyzer without updating this list (or
/// retired without pruning it) fails here.
const RULES: [&str; 8] = [
    "safety", "waitfree", "hb", "ratchet", "waitloop", "noblock", "layout", "modelcov",
];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels below the workspace root")
}

#[test]
fn workspace_sarif_log_is_well_formed_with_every_rule() {
    let output = Command::new(env!("CARGO_BIN_EXE_wfbn-analyze"))
        .args(["check", "--format", "sarif", "--root"])
        .arg(workspace_root())
        .output()
        .expect("wfbn-analyze runs");
    assert!(
        output.status.success(),
        "check --format sarif failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let log = String::from_utf8(output.stdout).expect("SARIF is UTF-8");
    assert!(!log.trim().is_empty(), "empty SARIF log");
    if let Err(e) = validate_json(&log) {
        panic!("SARIF log is not well-formed JSON: {e}\n{log}");
    }
    for anchor in [
        r#""$schema": "https://json.schemastore.org/sarif-2.1.0.json""#,
        r#""version": "2.1.0""#,
        r#""name": "wfbn-analyze""#,
        r#""rules": ["#,
        r#""results": ["#,
    ] {
        assert!(log.contains(anchor), "SARIF log lacks anchor {anchor}");
    }
    for rule in RULES {
        let anchor = format!(r#""id": "{rule}""#);
        assert!(log.contains(&anchor), "SARIF log lacks rule {rule}");
    }
    assert_eq!(
        log.matches(r#""id": ""#).count(),
        RULES.len(),
        "expected exactly {} rules",
        RULES.len()
    );
}

#[test]
fn the_validator_rejects_malformed_json() {
    for good in [
        r#"{"a": [1, -2.5e3, true, false, null, "x\"é"], "b": {}}"#,
        "[]",
        " 0 ",
    ] {
        assert_eq!(validate_json(good), Ok(()), "{good}");
    }
    for bad in [
        "",
        "{",
        r#"{"a": 1,}"#,
        "[1 2]",
        r#"{"a" 1}"#,
        r#"{a: 1}"#,
        r#""unterminated"#,
        r#""bad \q escape""#,
        "01",
        "[1] [2]",
        "nul",
    ] {
        assert!(validate_json(bad).is_err(), "accepted {bad:?}");
    }
}

/// Checks that `text` is exactly one JSON value (RFC 8259 grammar).
fn validate_json(text: &str) -> Result<(), String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.value()?;
    p.skip_ws();
    match p.bytes.get(p.pos) {
        None => Ok(()),
        Some(_) => Err(p.error("trailing characters")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.sequence(b'}', |p| {
                p.skip_ws();
                p.string()?;
                p.skip_ws();
                p.expect(b':')?;
                p.value()
            }),
            Some(b'[') => self.sequence(b']', Self::value),
            Some(b'"') => self.string(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => ["true", "false", "null"]
                .into_iter()
                .find(|w| self.bytes[self.pos..].starts_with(w.as_bytes()))
                .map(|w| self.pos += w.len())
                .ok_or_else(|| self.error("expected a value")),
        }
    }

    /// An object or array: `open item (, item)* close`, or empty.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return Err(self.error("bad \\u escape"));
                            }
                            self.pos += 5;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.require_digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.require_digits()?;
        }
        Ok(())
    }

    fn digits(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn require_digits(&mut self) -> Result<(), String> {
        let start = self.pos;
        self.digits();
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }
}
