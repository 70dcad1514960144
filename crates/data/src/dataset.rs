//! The training-data matrix **D**.
//!
//! Stored row-major in a single flat `Vec<u16>` (state strings are read a
//! whole row at a time by the encoding stage, so row-major is the
//! cache-friendly layout for table construction — each thread streams a
//! contiguous byte range).

use crate::schema::Schema;
use core::fmt;

/// An immutable `m × n` matrix of discrete observations.
///
/// # Examples
///
/// ```
/// use wfbn_data::{Dataset, Schema};
///
/// let schema = Schema::uniform(3, 2).unwrap();
/// let d = Dataset::from_rows(schema, &[&[0, 1, 0], &[1, 1, 1]]).unwrap();
/// assert_eq!(d.num_samples(), 2);
/// assert_eq!(d.row(1), &[1, 1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    schema: Schema,
    /// Row-major states; length is `m * n`.
    states: Vec<u16>,
}

/// Errors from dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// A row does not match the schema (wrong length or out-of-range state).
    InvalidRow {
        /// Index of the offending row.
        row: usize,
    },
    /// The flat buffer length is not a multiple of the number of variables.
    RaggedBuffer,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::InvalidRow { row } => {
                write!(f, "row {row} does not conform to the schema")
            }
            DatasetError::RaggedBuffer => {
                write!(f, "flat state buffer is not a whole number of rows")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset from explicit rows, validating each against `schema`.
    pub fn from_rows(schema: Schema, rows: &[&[u16]]) -> Result<Self, DatasetError> {
        let mut states = Vec::with_capacity(rows.len() * schema.num_vars());
        for (i, row) in rows.iter().enumerate() {
            if !schema.validates_row(row) {
                return Err(DatasetError::InvalidRow { row: i });
            }
            states.extend_from_slice(row);
        }
        Ok(Self { schema, states })
    }

    /// Builds a dataset from a flat row-major buffer, validating every state.
    pub fn from_flat(schema: Schema, states: Vec<u16>) -> Result<Self, DatasetError> {
        let n = schema.num_vars();
        if states.len() % n != 0 {
            return Err(DatasetError::RaggedBuffer);
        }
        for (i, row) in states.chunks_exact(n).enumerate() {
            if !schema.validates_row(row) {
                return Err(DatasetError::InvalidRow { row: i });
            }
        }
        Ok(Self { schema, states })
    }

    /// Builds a dataset from a flat buffer **without validating states**.
    ///
    /// Intended for generators that construct states already in range; the
    /// length/shape invariant is still checked.
    pub fn from_flat_unchecked(schema: Schema, states: Vec<u16>) -> Self {
        assert_eq!(
            states.len() % schema.num_vars(),
            0,
            "flat buffer is not a whole number of rows"
        );
        debug_assert!(states
            .chunks_exact(schema.num_vars())
            .all(|row| schema.validates_row(row)));
        Self { schema, states }
    }

    /// The variable schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of samples `m`.
    pub fn num_samples(&self) -> usize {
        if self.schema.num_vars() == 0 {
            0
        } else {
            self.states.len() / self.schema.num_vars()
        }
    }

    /// Number of variables `n`.
    pub fn num_vars(&self) -> usize {
        self.schema.num_vars()
    }

    /// The `i`-th observation (state string).
    ///
    /// # Panics
    ///
    /// Panics if `i >= m`.
    pub fn row(&self, i: usize) -> &[u16] {
        let n = self.schema.num_vars();
        &self.states[i * n..(i + 1) * n]
    }

    /// Iterator over all rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u16]> + '_ {
        self.states.chunks_exact(self.schema.num_vars())
    }

    /// The rows in the half-open range `[start, end)` as a flat slice.
    ///
    /// This is the view each construction thread streams in stage 1.
    pub fn row_range(&self, start: usize, end: usize) -> &[u16] {
        let n = self.schema.num_vars();
        &self.states[start * n..end * n]
    }

    /// The raw row-major buffer.
    pub fn flat(&self) -> &[u16] {
        &self.states
    }

    /// Empirical frequency of state `s` for variable `j` (an O(m) scan;
    /// test/diagnostic helper, not a hot path).
    pub fn empirical_frequency(&self, j: usize, s: u16) -> f64 {
        let m = self.num_samples();
        if m == 0 {
            return 0.0;
        }
        let hits = self.rows().filter(|row| row[j] == s).count();
        hits as f64 / m as f64
    }
}

/// Incremental dataset builder for producers that emit one row at a time.
///
/// # Examples
///
/// ```
/// use wfbn_data::{DatasetBuilder, Schema};
///
/// let mut b = DatasetBuilder::new(Schema::uniform(2, 3).unwrap());
/// b.push_row(&[0, 2]).unwrap();
/// b.push_row(&[1, 1]).unwrap();
/// let d = b.finish();
/// assert_eq!(d.num_samples(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    schema: Schema,
    states: Vec<u16>,
}

impl DatasetBuilder {
    /// Starts an empty dataset with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            states: Vec::new(),
        }
    }

    /// Pre-allocates space for `m` rows.
    pub fn with_capacity(schema: Schema, m: usize) -> Self {
        let n = schema.num_vars();
        Self {
            schema,
            states: Vec::with_capacity(m * n),
        }
    }

    /// Appends one observation, validating it against the schema.
    pub fn push_row(&mut self, row: &[u16]) -> Result<(), DatasetError> {
        if !self.schema.validates_row(row) {
            return Err(DatasetError::InvalidRow {
                row: self.states.len() / self.schema.num_vars(),
            });
        }
        self.states.extend_from_slice(row);
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.states.len() / self.schema.num_vars()
    }

    /// `true` if no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Finalizes the dataset.
    pub fn finish(self) -> Dataset {
        Dataset {
            schema: self.schema,
            states: self.states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema23() -> Schema {
        Schema::new(vec![2, 3]).unwrap()
    }

    #[test]
    fn from_rows_round_trip() {
        let d = Dataset::from_rows(schema23(), &[&[0, 0], &[1, 2], &[0, 1]]).unwrap();
        assert_eq!(d.num_samples(), 3);
        assert_eq!(d.num_vars(), 2);
        assert_eq!(d.row(0), &[0, 0]);
        assert_eq!(d.row(2), &[0, 1]);
        let collected: Vec<&[u16]> = d.rows().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn rejects_bad_rows() {
        assert_eq!(
            Dataset::from_rows(schema23(), &[&[0, 0], &[2, 0]]),
            Err(DatasetError::InvalidRow { row: 1 })
        );
        assert_eq!(
            Dataset::from_rows(schema23(), &[&[0, 0, 0]]),
            Err(DatasetError::InvalidRow { row: 0 })
        );
    }

    #[test]
    fn from_flat_checks_shape_and_range() {
        assert_eq!(
            Dataset::from_flat(schema23(), vec![0, 0, 1]),
            Err(DatasetError::RaggedBuffer)
        );
        assert_eq!(
            Dataset::from_flat(schema23(), vec![0, 3]),
            Err(DatasetError::InvalidRow { row: 0 })
        );
        let d = Dataset::from_flat(schema23(), vec![0, 2, 1, 0]).unwrap();
        assert_eq!(d.num_samples(), 2);
    }

    #[test]
    fn row_range_matches_rows() {
        let d = Dataset::from_rows(schema23(), &[&[0, 0], &[1, 1], &[1, 2], &[0, 2]]).unwrap();
        assert_eq!(d.row_range(1, 3), &[1, 1, 1, 2]);
        assert_eq!(d.row_range(0, 0), &[] as &[u16]);
        assert_eq!(d.row_range(0, 4).len(), 8);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::from_rows(schema23(), &[]).unwrap();
        assert_eq!(d.num_samples(), 0);
        assert_eq!(d.rows().count(), 0);
    }

    #[test]
    fn builder_accumulates_and_validates() {
        let mut b = DatasetBuilder::with_capacity(schema23(), 10);
        assert!(b.is_empty());
        b.push_row(&[1, 2]).unwrap();
        b.push_row(&[0, 0]).unwrap();
        assert!(b.push_row(&[0, 3]).is_err());
        assert_eq!(b.len(), 2);
        let d = b.finish();
        assert_eq!(d.row(0), &[1, 2]);
    }

    #[test]
    fn empirical_frequency_counts() {
        let d = Dataset::from_rows(schema23(), &[&[0, 0], &[1, 0], &[1, 2], &[1, 1]]).unwrap();
        assert!((d.empirical_frequency(0, 1) - 0.75).abs() < 1e-12);
        assert!((d.empirical_frequency(1, 0) - 0.5).abs() < 1e-12);
        let empty = Dataset::from_rows(schema23(), &[]).unwrap();
        assert_eq!(empty.empirical_frequency(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn unchecked_still_validates_shape() {
        let _ = Dataset::from_flat_unchecked(schema23(), vec![0, 0, 0]);
    }
}
