//! The line-delimited request protocol of `wfbn serve`.
//!
//! One request per `;`-separated clause; one line may carry several clauses,
//! which the server treats as a **fused batch**: every query clause on the
//! line is answered against a single pinned epoch, and clauses needing the
//! same marginal scope share one scan of the epoch's packed snapshot (see
//! [`QueryReader::answer_batch`](crate::QueryReader::answer_batch)).
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
    /// The largest state in each column, over the rows that reach it.
    col_max: Vec<u16>,
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
    ///
    /// Rows all `schema`-wide are checked once per column against the
    /// maxima the parser kept; the rows are scanned only to name the first
    /// refused one.
    pub(crate) fn into_dataset(self, schema: Schema) -> Result<Dataset, DatasetError> {
        let n = schema.num_vars();
        let conforms = self
            .ends
            .iter()
            .enumerate()
            .all(|(i, &end)| end == (i + 1) * n)
            && self
                .col_max
                .iter()
                .zip(schema.arities())
                .all(|(m, r)| m < r);
        if !conforms {
            if let Some(row) = self.rows().position(|row| !schema.validates_row(row)) {
                return Err(DatasetError::InvalidRow { row });
            }
        }
        Ok(Dataset::from_flat_unchecked(schema, self.states))
    }

    /// Parses `v,v,...|v,v,...` in one pass over the bytes: whitespace
    /// anywhere is skipped, `|` ends a row and `,` a state, and each state is
    /// what `u16`'s `FromStr` accepts (an optional `+`, then decimal digits).
    ///
    /// Once the first row has set the width, each row of that many
    /// single-digit states with no whitespace (`d,d,...,d|`, the common
    /// case) is taken whole; any other row is stepped through byte by byte.
    fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        // Each state takes at least a digit and a separator.
        let mut rows = IngestRows {
            states: Vec::with_capacity(bytes.len() / 2 + 1),
            ends: Vec::new(),
            col_max: Vec::new(),
        };
        let mut at = 0;
        loop {
            if let Some(&width) = rows.ends.first() {
                while let Some(row) = bytes.get(at..at + 2 * width) {
                    if !rows.take_single_digit_row(row) {
                        break;
                    }
                    at += row.len();
                }
            }
            match rows.step_row(text, at)? {
                Some(next) => at = next,
                None => return Ok(rows),
            }
        }
    }

    /// Takes `row` as `d,d,...,d|` of `row.len() / 2` single-digit states,
    /// if it is one; otherwise changes nothing and returns `false`.
    ///
    /// Four `d,` pairs are checked and decoded at once: XOR with `"0,0,0,0,"`
    /// leaves each pair as one little-endian `u16` that is the digit's value
    /// when the pair is canonical, and at least 10 when it is not.
    fn take_single_digit_row(&mut self, row: &[u8]) -> bool {
        const PAIRS: u64 = u64::from_le_bytes(*b"0,0,0,0,");
        const NOT_NIBBLE: u64 = 0xfff0_fff0_fff0_fff0;
        const PLUS_SIX: u64 = 0x0006_0006_0006_0006;
        const SIXTEEN: u64 = 0x0010_0010_0010_0010;
        let lanes =
            |word: &[u8]| u64::from_le_bytes(word.try_into().expect("an 8-byte chunk")) ^ PAIRS;
        let Some((body, &[last, bar])) = row.split_last_chunk::<2>() else {
            return false;
        };
        let words = body.chunks_exact(8);
        // A lane is below 10 iff it is below 16 and adding 6 keeps it so;
        // below 16, no lane carries into the next.
        let canonical = words.clone().all(|w| {
            let t = lanes(w);
            t & NOT_NIBBLE | (t + PLUS_SIX) & SIXTEEN == 0
        }) && words
            .remainder()
            .chunks_exact(2)
            .all(|pair| pair[0].is_ascii_digit() && pair[1] == b',')
            && last.is_ascii_digit()
            && bar == b'|';
        if !canonical {
            return false;
        }
        let base = self.states.len();
        self.states.resize(base + row.len() / 2, 0);
        let (head, tail) = self.states[base..].split_at_mut(4 * words.len());
        for (w, out) in words.clone().zip(head.chunks_exact_mut(4)) {
            let t = lanes(w);
            out.copy_from_slice(&[
                t as u16,
                (t >> 16) as u16,
                (t >> 32) as u16,
                (t >> 48) as u16,
            ]);
        }
        let digits = words.remainder().iter().step_by(2).chain([&last]);
        for (out, &b) in tail.iter_mut().zip(digits) {
            *out = u16::from(b - b'0');
        }
        for (max, &s) in self.col_max.iter_mut().zip(&self.states[base..]) {
            *max = (*max).max(s);
        }
        self.ends.push(self.states.len());
        true
    }

    /// Steps through one row from byte `at` of `text`. Returns where the next
    /// row begins, or `None` when the end of the payload ended this row.
    fn step_row(&mut self, text: &str, mut at: usize) -> Result<Option<usize>, String> {
        let bytes = text.as_bytes();
        // The state being read: its value, digits, sign, and first byte.
        let (mut value, mut digits, mut plus, mut start) = (0u32, 0usize, false, at);
        while let Some(&b) = bytes.get(at) {
            match b {
                b'0'..=b'9' if value <= u32::from(u16::MAX) => {
                    value = value * 10 + u32::from(b - b'0');
                    digits += 1;
                }
                b'+' if digits == 0 && !plus => plus = true,
                b',' | b'|' => {
                    if !self.push_state(value, digits) {
                        return Err(bad_state(text, start));
                    }
                    if b == b'|' {
                        self.end_row(bytes.len());
                        return Ok(Some(at + 1));
                    }
                    (value, digits, plus, start) = (0, 0, false, at + 1);
                }
                _ if b.is_ascii() => {
                    if !char::from(b).is_whitespace() {
                        return Err(bad_state(text, start));
                    }
                }
                _ => {
                    // A non-ASCII byte begins a `char`: only whitespace is
                    // skipped.
                    let c = text[at..].chars().next().expect("`at` is a char boundary");
                    if !c.is_whitespace() {
                        return Err(bad_state(text, start));
                    }
                    at += c.len_utf8();
                    continue;
                }
            }
            at += 1;
        }
        if !self.push_state(value, digits) {
            return Err(bad_state(text, start));
        }
        self.end_row(bytes.len());
        Ok(None)
    }

    /// Adds the state read as `digits` digits of `value` to the current row;
    /// `false` if that is no `u16`.
    fn push_state(&mut self, value: u32, digits: usize) -> bool {
        let state = match u16::try_from(value) {
            Ok(state) if digits > 0 => state,
            _ => return false,
        };
        let col = self.states.len() - self.ends.last().copied().unwrap_or(0);
        match self.col_max.get_mut(col) {
            Some(max) => *max = (*max).max(state),
            None => self.col_max.push(state),
        }
        self.states.push(state);
        true
    }

    /// Ends the current row. After the first, room is made for as many
    /// rows of its width as the payload could hold.
    fn end_row(&mut self, payload_len: usize) {
        self.ends.push(self.states.len());
        if self.ends.len() == 1 {
            self.ends.reserve(payload_len / (2 * self.states.len()));
        }
    }
}

/// The error for the malformed state token starting at byte `start` of
/// `text`, quoted up to its `,` or `|` and without its whitespace.
fn bad_state(text: &str, start: usize) -> String {
    let token = text[start..].split([',', '|']).next().unwrap_or_default();
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
                ends: vec![3, 6],
                col_max: vec![1, 1, 1],
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
        // Whitespace is Unicode's: a vertical tab and a no-break space too.
        assert_eq!(
            ingest("INGEST 0,1|1,\u{b}0|0\u{a0},1"),
            Ok(vec![vec![0, 1], vec![1, 0], vec![0, 1]])
        );
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

        // 1 200 single-digit rows refused at the first, a middle or the last
        // row: one state too many or too few, or a last-column state equal
        // to its arity. Each is refused where `Dataset::from_rows` refuses.
        let schema = Schema::new(vec![2, 3, 10, 4]).unwrap();
        let rows: Vec<Vec<u16>> = (0..1200u16)
            .map(|i| vec![i % 2, i % 3, i % 10, i % 4])
            .collect();
        let line = |rows: &[Vec<u16>]| {
            let rendered: Vec<String> = rows
                .iter()
                .map(|row| row.iter().map(u16::to_string).collect::<Vec<_>>().join(","))
                .collect();
            format!("INGEST {}", rendered.join("|"))
        };
        let spoilers: [fn(&mut Vec<u16>); 3] =
            [|row| row.push(1), |row| row.truncate(3), |row| row[3] = 4];
        for bad in [0, 600, 1199] {
            for spoil in spoilers {
                let mut spoiled = rows.clone();
                spoil(&mut spoiled[bad]);
                let err = parsed(&line(&spoiled))
                    .into_dataset(schema.clone())
                    .unwrap_err();
                assert_eq!(err, DatasetError::InvalidRow { row: bad });
                let refs: Vec<&[u16]> = spoiled.iter().map(Vec::as_slice).collect();
                assert_eq!(Dataset::from_rows(schema.clone(), &refs), Err(err));
            }
        }
        let data = parsed(&line(&rows)).into_dataset(schema).unwrap();
        assert_eq!(data.flat(), rows.concat());
    }
}
