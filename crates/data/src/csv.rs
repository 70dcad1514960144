//! Minimal CSV import/export for datasets.
//!
//! Discrete training data is conventionally exchanged as integer CSV (one
//! row per observation). This module implements exactly that dialect —
//! unquoted base-10 integers, comma separator, `\n` records, optional
//! trailing newline — without pulling in a dependency.

use crate::dataset::Dataset;
use crate::schema::{Schema, SchemaError};
use core::fmt;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A field could not be parsed as a `u16` state.
    BadField {
        /// 1-based line number.
        line: usize,
        /// The raw field text.
        field: String,
    },
    /// A row's field count disagrees with the schema.
    WrongWidth {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
        /// Number of fields expected.
        expected: usize,
    },
    /// A state value is out of range for its variable.
    StateOutOfRange {
        /// 1-based line number.
        line: usize,
        /// Variable index.
        var: usize,
    },
    /// The schema inferred from the input is invalid: the input holds no
    /// variable, or its state space does not fit a 64-bit key.
    Schema(SchemaError),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::BadField { line, field } => {
                write!(f, "line {line}: cannot parse field {field:?} as a state")
            }
            CsvError::WrongWidth {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} fields, expected {expected}"),
            CsvError::StateOutOfRange { line, var } => {
                write!(f, "line {line}: state for variable {var} out of range")
            }
            CsvError::Schema(e) => write!(f, "inferred schema: {e}"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes `dataset` as integer CSV (no header).
pub fn write_csv<W: Write>(dataset: &Dataset, mut w: W) -> std::io::Result<()> {
    // Serialize into a reusable line buffer to avoid a write syscall per field.
    let mut line = String::new();
    for row in dataset.rows() {
        line.clear();
        for (j, s) in row.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            // u16 is at most 5 digits; fmt::Write on String cannot fail.
            use core::fmt::Write as _;
            let _ = write!(line, "{s}");
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()
}

/// Reads integer CSV (no header) into a dataset conforming to `schema`.
pub fn read_csv<R: Read>(schema: Schema, r: R) -> Result<Dataset, CsvError> {
    let n = schema.num_vars();
    let mut reader = BufReader::new(r);
    let mut states: Vec<u16> = Vec::new();
    let mut buf = String::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = buf.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        let mut width = 0usize;
        for (var, field) in trimmed.split(',').enumerate() {
            let field = field.trim();
            let value: u16 = field.parse().map_err(|_| CsvError::BadField {
                line: line_no,
                field: field.to_string(),
            })?;
            if var < n && value >= schema.arity(var) {
                return Err(CsvError::StateOutOfRange { line: line_no, var });
            }
            states.push(value);
            width += 1;
        }
        if width != n {
            return Err(CsvError::WrongWidth {
                line: line_no,
                found: width,
                expected: n,
            });
        }
    }
    Ok(Dataset::from_flat_unchecked(schema, states))
}

/// Infers the tightest schema (per-column `max + 1`, floored at arity 2)
/// from integer CSV, then re-parses it into a dataset.
pub fn read_csv_infer_schema(text: &str) -> Result<Dataset, CsvError> {
    let mut maxima: Vec<u16> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        for (var, field) in trimmed.split(',').enumerate() {
            let field = field.trim();
            let value: u16 = field.parse().map_err(|_| CsvError::BadField {
                line: i + 1,
                field: field.to_string(),
            })?;
            if var >= maxima.len() {
                maxima.resize(var + 1, 0);
            }
            maxima[var] = maxima[var].max(value);
        }
    }
    // A column holding 65535 would need arity 65536, which no `u16` arity
    // holds: saturate, and `read_csv` refuses the state as out of range.
    let arities: Vec<u16> = maxima
        .iter()
        .map(|&mx| mx.saturating_add(1).max(2))
        .collect();
    let schema = Schema::new(arities).map_err(CsvError::Schema)?;
    read_csv(schema, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{uniform::UniformIndependent, Generator};

    #[test]
    fn round_trip_preserves_data() {
        let schema = Schema::new(vec![2, 3, 5]).unwrap();
        let d = UniformIndependent::new(schema.clone()).generate(200, 11);
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let back = read_csv(schema, buf.as_slice()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn parses_crlf_and_blank_lines() {
        let schema = Schema::uniform(2, 2).unwrap();
        let d = read_csv(schema, "0,1\r\n\r\n1,0\n".as_bytes()).unwrap();
        assert_eq!(d.num_samples(), 2);
        assert_eq!(d.row(1), &[1, 0]);
    }

    #[test]
    fn reports_bad_field_with_line_number() {
        let schema = Schema::uniform(2, 2).unwrap();
        match read_csv(schema, "0,1\n0,x\n".as_bytes()) {
            Err(CsvError::BadField { line: 2, field }) => assert_eq!(field, "x"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reports_wrong_width() {
        let schema = Schema::uniform(3, 2).unwrap();
        match read_csv(schema, "0,1\n".as_bytes()) {
            Err(CsvError::WrongWidth {
                line: 1,
                found: 2,
                expected: 3,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reports_out_of_range_state() {
        let schema = Schema::uniform(2, 2).unwrap();
        match read_csv(schema, "0,2\n".as_bytes()) {
            Err(CsvError::StateOutOfRange { line: 1, var: 1 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn schema_inference() {
        let d = read_csv_infer_schema("0,4\n1,0\n0,2\n").unwrap();
        assert_eq!(d.schema().arities(), &[2, 5]);
        assert_eq!(d.num_samples(), 3);
    }

    #[test]
    fn inferred_schema_errors_keep_their_cause() {
        for text in ["", "\n\n"] {
            let err = read_csv_infer_schema(text).unwrap_err();
            assert!(
                matches!(err, CsvError::Schema(SchemaError::Empty)),
                "{err:?}"
            );
            assert!(
                err.to_string()
                    .contains("schema must contain at least one variable"),
                "{err}"
            );
        }
        // 64 binary columns need 2^64 keys, one more than a u64 holds.
        let row = |n: usize| vec!["1"; n].join(",") + "\n";
        let err = read_csv_infer_schema(&row(64)).unwrap_err();
        assert!(
            matches!(err, CsvError::Schema(SchemaError::StateSpaceOverflow)),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .contains("state-space size exceeds the 64-bit key range"),
            "{err}"
        );
        assert_eq!(read_csv_infer_schema(&row(63)).unwrap().num_vars(), 63);
    }

    #[test]
    fn empty_input_round_trips_to_zero_rows() {
        let schema = Schema::uniform(2, 2).unwrap();
        let d = read_csv(schema, "".as_bytes()).unwrap();
        assert_eq!(d.num_samples(), 0);
    }
}
