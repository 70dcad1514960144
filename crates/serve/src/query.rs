//! The line-delimited request protocol of `wfbn serve`.
//!
//! One request per `;`-separated clause; one line may carry several clauses,
//! which the server treats as a **fused batch**: every query clause on the
//! line is answered against a single pinned epoch, and clauses needing the
//! same marginal scope share one scan of the epoch's packed snapshot (see
//! [`QueryEndpoint::answer_batch`](crate::QueryEndpoint::answer_batch)).
//!
//! ```text
//! MARGINAL 0 2           marginal counts over X0, X2
//! MI 0 1 [bits]          mutual information I(X0; X1)
//! CPT 3 1 2              P(X3 | X1, X2); no parents = prior of X3
//! EPOCH                  published and pinned epoch numbers
//! SYNC                   block until every submitted batch is published
//! INGEST 0,1,0|1,1,0     submit rows (|-separated) as one batch
//! STATS                  serving counters (and metrics JSON if recording)
//! QUIT                   end this connection
//! SHUTDOWN               end this connection and stop the server
//! ```
//!
//! Blank lines and `#` comments are ignored. Responses are one `OK ...` or
//! `ERR ...` line per clause; see [`crate::server`].

use wfbn_data::dataset::DatasetError;
use wfbn_data::{Dataset, Schema};

/// One parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Marginal counts over a variable scope (sorted, deduplicated).
    Marginal(Vec<usize>),
    /// Mutual information of a variable pair.
    Mi {
        /// First variable.
        i: usize,
        /// Second variable.
        j: usize,
        /// Report in bits instead of nats.
        bits: bool,
    },
    /// Conditional probability table of `x` given `parents`.
    Cpt {
        /// Child variable.
        x: usize,
        /// Parent variables (possibly empty).
        parents: Vec<usize>,
    },
    /// Report the published and pinned epochs.
    Epoch,
    /// Block until the writer has published every submitted batch.
    Sync,
    /// Report serving counters.
    Stats,
    /// Submit rows as one batch.
    Ingest(IngestRows),
    /// Close this connection.
    Quit,
    /// Close this connection and stop the server loop.
    Shutdown,
}

impl Request {
    /// The protocol verb this request was written with.
    pub(crate) fn verb(&self) -> &'static str {
        match self {
            Request::Marginal(..) => "MARGINAL",
            Request::Mi { .. } => "MI",
            Request::Cpt { .. } => "CPT",
            Request::Epoch => "EPOCH",
            Request::Sync => "SYNC",
            Request::Stats => "STATS",
            Request::Ingest(..) => "INGEST",
            Request::Quit => "QUIT",
            Request::Shutdown => "SHUTDOWN",
        }
    }
}

/// The rows of one `INGEST` request, flattened row after row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestRows {
    states: Vec<u16>,
    /// Where each row ends in `states`.
    ends: Vec<usize>,
}

impl IngestRows {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The rows, in request order.
    pub fn rows(&self) -> impl Iterator<Item = &[u16]> {
        let starts = core::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.states[start..end])
    }

    /// The batch as a dataset over `schema`, refused exactly as
    /// [`Dataset::from_rows`] refuses it: at the first row whose width or
    /// states do not conform.
    pub(crate) fn into_dataset(self, schema: Schema) -> Result<Dataset, DatasetError> {
        let n = schema.num_vars();
        if self
            .ends
            .iter()
            .enumerate()
            .all(|(i, &end)| end == (i + 1) * n)
        {
            return Dataset::from_flat(schema, self.states);
        }
        // Rows of differing widths: a flat buffer could still be a whole
        // number of rows, so the rows are checked one by one.
        let rows: Vec<&[u16]> = self.rows().collect();
        Dataset::from_rows(schema, &rows)
    }

    /// Parses `v,v,...|v,v,...` in one pass: whitespace anywhere is skipped,
    /// `|` ends a row and `,` a state, and each state is what `u16`'s
    /// `FromStr` accepts (an optional `+`, then decimal digits).
    fn parse(text: &str) -> Result<Self, String> {
        let mut rows = IngestRows {
            states: Vec::new(),
            ends: Vec::new(),
        };
        // The state being read: its value, and where its token began.
        let (mut value, mut digits, mut plus, mut start) = (0u32, 0usize, false, 0usize);
        for (at, c) in text.char_indices().chain([(text.len(), '|')]) {
            match c {
                '0'..='9' if value <= u32::from(u16::MAX) => {
                    value = value * 10 + (c as u32 - '0' as u32);
                    digits += 1;
                }
                '+' if digits == 0 && !plus => plus = true,
                ',' | '|' => {
                    if digits == 0 || value > u32::from(u16::MAX) {
                        return Err(bad_state(&text[start..at]));
                    }
                    rows.states.push(value as u16);
                    if c == '|' {
                        rows.ends.push(rows.states.len());
                    }
                    (value, digits, plus, start) = (0, 0, false, at + 1);
                }
                c if c.is_whitespace() => {}
                _ => {
                    let end = text[at..].find([',', '|']).map_or(text.len(), |k| at + k);
                    return Err(bad_state(&text[start..end]));
                }
            }
        }
        Ok(rows)
    }
}

/// The error for one malformed state token, quoted without its whitespace.
fn bad_state(token: &str) -> String {
    let token: String = token.chars().filter(|c| !c.is_whitespace()).collect();
    format!("INGEST: bad state {token:?}")
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, String> {
    tok.parse()
        .map_err(|_| format!("{what}: expected a variable index, got {tok:?}"))
}

fn parse_clause(clause: &str) -> Result<Option<Request>, String> {
    let mut toks = clause.split_whitespace();
    let Some(verb) = toks.next() else {
        return Ok(None); // empty clause (trailing ';', blank line)
    };
    let verb_upper = verb.to_ascii_uppercase();
    if verb_upper == "INGEST" {
        // The rows are read straight from the clause text, in one pass.
        let payload = &clause.trim_start()[verb.len()..];
        if payload.trim().is_empty() {
            return Err("INGEST needs rows: INGEST v,v,...|v,v,...".into());
        }
        return IngestRows::parse(payload).map(|rows| Some(Request::Ingest(rows)));
    }
    let rest: Vec<&str> = toks.collect();
    let req = match verb_upper.as_str() {
        "MARGINAL" => {
            if rest.is_empty() {
                return Err("MARGINAL needs at least one variable".into());
            }
            let mut scope = rest
                .iter()
                .map(|t| parse_usize(t, "MARGINAL"))
                .collect::<Result<Vec<_>, _>>()?;
            scope.sort_unstable();
            scope.dedup();
            Request::Marginal(scope)
        }
        "MI" => {
            let bits = matches!(rest.last(), Some(&"bits") | Some(&"BITS"));
            let args = &rest[..rest.len() - usize::from(bits)];
            let [i, j] = args else {
                return Err("MI needs exactly two variables: MI i j [bits]".into());
            };
            Request::Mi {
                i: parse_usize(i, "MI")?,
                j: parse_usize(j, "MI")?,
                bits,
            }
        }
        "CPT" => {
            let Some((x, parents)) = rest.split_first() else {
                return Err("CPT needs a child variable: CPT x [parents...]".into());
            };
            Request::Cpt {
                x: parse_usize(x, "CPT")?,
                parents: parents
                    .iter()
                    .map(|t| parse_usize(t, "CPT"))
                    .collect::<Result<Vec<_>, _>>()?,
            }
        }
        "EPOCH" => Request::Epoch,
        "SYNC" => Request::Sync,
        "STATS" => Request::Stats,
        "QUIT" => Request::Quit,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(format!("unknown request {other:?}")),
    };
    if !rest.is_empty() && matches!(req, Request::Epoch | Request::Sync | Request::Stats) {
        return Err(format!("{verb} takes no arguments"));
    }
    Ok(Some(req))
}

/// Parses one protocol line into its (possibly fused) requests.
///
/// Blank lines and lines starting with `#` parse to an empty batch.
pub fn parse_line(line: &str) -> Result<Vec<Request>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(Vec::new());
    }
    let mut requests = Vec::new();
    for clause in line.split(';') {
        if let Some(req) = parse_clause(clause)? {
            requests.push(req);
        }
    }
    Ok(requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_verb() {
        assert_eq!(
            parse_line("MARGINAL 2 0 2").unwrap(),
            vec![Request::Marginal(vec![0, 2])]
        );
        assert_eq!(
            parse_line("MI 3 1 bits").unwrap(),
            vec![Request::Mi {
                i: 3,
                j: 1,
                bits: true
            }]
        );
        assert_eq!(
            parse_line("CPT 3 1 2").unwrap(),
            vec![Request::Cpt {
                x: 3,
                parents: vec![1, 2]
            }]
        );
        assert_eq!(parse_line("epoch").unwrap(), vec![Request::Epoch]);
        assert_eq!(parse_line("SYNC").unwrap(), vec![Request::Sync]);
        assert_eq!(parse_line("STATS").unwrap(), vec![Request::Stats]);
        assert_eq!(
            parse_line("INGEST 0,1,0|1,1,1").unwrap(),
            vec![Request::Ingest(IngestRows {
                states: vec![0, 1, 0, 1, 1, 1],
                ends: vec![3, 6]
            })]
        );
        assert_eq!(parse_line("QUIT").unwrap(), vec![Request::Quit]);
        assert_eq!(parse_line("SHUTDOWN").unwrap(), vec![Request::Shutdown]);
    }

    #[test]
    fn fuses_semicolon_separated_clauses() {
        let batch = parse_line("MI 0 1; MI 0 1; MARGINAL 1;").unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[2], Request::Marginal(vec![1]));
    }

    #[test]
    fn blank_lines_and_comments_are_empty_batches() {
        assert!(parse_line("").unwrap().is_empty());
        assert!(parse_line("   ").unwrap().is_empty());
        assert!(parse_line("# warm-up script").unwrap().is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_line("MI 0").unwrap_err().contains("two variables"));
        assert!(parse_line("MARGINAL").unwrap_err().contains("at least one"));
        assert!(parse_line("MARGINAL x").unwrap_err().contains("variable"));
        assert!(parse_line("INGEST 0,banana").unwrap_err().contains("bad state"));
        assert!(parse_line("INGEST  ").unwrap_err().contains("needs rows"));
        assert!(parse_line("FROB 1").unwrap_err().contains("unknown"));
        assert!(parse_line("EPOCH 3").unwrap_err().contains("no arguments"));
    }

    fn ingest(line: &str) -> Result<Vec<Vec<u16>>, String> {
        match parse_line(line)?.as_slice() {
            [Request::Ingest(rows)] => Ok(rows.rows().map(<[u16]>::to_vec).collect()),
            other => panic!("not one INGEST: {other:?}"),
        }
    }

    #[test]
    fn ingest_skips_whitespace_anywhere() {
        assert_eq!(
            ingest("INGEST 0, 1 |1 ,0"),
            Ok(vec![vec![0, 1], vec![1, 0]])
        );
        // Whitespace inside a state joins its digits.
        assert_eq!(
            ingest("ingest 1 2,+3\t|65535"),
            Ok(vec![vec![12, 3], vec![65535]])
        );
        assert_eq!(ingest("INGEST 7"), Ok(vec![vec![7]]));
    }

    #[test]
    fn ingest_quotes_the_first_bad_state() {
        for (line, token) in [
            ("INGEST 0,,1", ""),
            ("INGEST 0,1|", ""),
            ("INGEST 0,1 0|2,x 9", "x9"),
            ("INGEST 65536", "65536"),
            ("INGEST 0,-0", "-0"),
            ("INGEST ++1", "++1"),
            ("INGEST 1+", "1+"),
            ("INGEST +", "+"),
        ] {
            assert_eq!(
                ingest(line),
                Err(format!("INGEST: bad state {token:?}")),
                "{line}"
            );
        }
    }

    #[test]
    fn ragged_rows_are_refused_even_when_the_total_is_whole_rows() {
        let schema = Schema::uniform(2, 2).unwrap();
        let parsed = |line: &str| match parse_line(line).unwrap().pop() {
            Some(Request::Ingest(rows)) => rows,
            other => panic!("not an INGEST: {other:?}"),
        };
        // 4 states = 2 rows of 2, but the rows are 3 and 1 wide.
        let err = parsed("INGEST 0,1,0|1").into_dataset(schema.clone());
        assert_eq!(err.unwrap_err(), DatasetError::InvalidRow { row: 0 });
        let err = parsed("INGEST 0,1|1,1|0,0,1|1").into_dataset(schema.clone());
        assert_eq!(err.unwrap_err(), DatasetError::InvalidRow { row: 2 });
        // Out-of-range states are refused at their row, as before.
        let err = parsed("INGEST 0,1|1,2").into_dataset(schema.clone());
        assert_eq!(err.unwrap_err(), DatasetError::InvalidRow { row: 1 });
        let data = parsed("INGEST 0,1|1,1").into_dataset(schema).unwrap();
        assert_eq!(data.flat(), [0, 1, 1, 1]);
    }
}
