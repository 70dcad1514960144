//! Fuzzing the CSV loader (`wfbn_data::csv`).
//!
//! Two properties:
//!
//! * **No panic**: arbitrary bytes, and soups of CSV tokens, separators,
//!   edge-of-range numbers and Unicode whitespace, make `read_csv` and
//!   `read_csv_infer_schema` return `Ok` or `Err`.
//! * **Round trip**: `write_csv` then `read_csv` under the same schema gives
//!   back the dataset; inferring the schema from the text gives back the
//!   same rows.

use proptest::collection::vec;
use proptest::prelude::*;
use wfbn_data::csv::{read_csv, read_csv_infer_schema, write_csv};
use wfbn_data::{Dataset, Schema};

/// Pieces an adversarial CSV text is glued from.
const PIECES: [&str; 24] = [
    "0",
    "1",
    "2",
    "9",
    "00",
    "-1",
    "+1",
    "65534",
    "65535",
    "65536",
    "1e3",
    "x",
    ",",
    ",,",
    "\n",
    "\r\n",
    "\r",
    " ",
    "\t",
    "\u{a0}",
    "\u{feff}",
    "é",
    "\u{2028}",
    "18446744073709551616",
];

/// A schema of 1–4 variables whose arities reach the `u16` edge.
fn schema() -> impl Strategy<Value = Schema> {
    vec(0usize..4, 1..=4).prop_map(|picks| {
        let arities = picks.iter().map(|&k| [2, 3, 300, u16::MAX][k]).collect();
        Schema::new(arities).unwrap()
    })
}

/// A dataset of 0–40 rows over a random schema.
fn dataset() -> impl Strategy<Value = Dataset> {
    schema().prop_flat_map(|schema| {
        let arities = schema.arities().to_vec();
        let row = vec(any::<u16>(), arities.len()).prop_map(move |mut row| {
            for (s, &r) in row.iter_mut().zip(&arities) {
                *s %= r;
            }
            row
        });
        vec(row, 0..40).prop_map(move |rows| {
            let refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
            Dataset::from_rows(schema.clone(), &refs).unwrap()
        })
    })
}

/// Feeds `bytes` to both loaders; either may refuse, neither may panic.
fn load_both(bytes: &[u8]) {
    for n in 1..=3 {
        let _ = read_csv(Schema::uniform(n, 3).unwrap(), bytes);
    }
    let _ = read_csv_infer_schema(&String::from_utf8_lossy(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..80)) {
        load_both(&bytes);
    }

    #[test]
    fn token_soups_never_panic(picks in vec(0usize..PIECES.len(), 0..24)) {
        let text: String = picks.iter().map(|&k| PIECES[k]).collect();
        load_both(text.as_bytes());
    }

    #[test]
    fn write_then_read_round_trips(data in dataset()) {
        let mut text = Vec::new();
        write_csv(&data, &mut text).unwrap();
        let back = read_csv(data.schema().clone(), text.as_slice()).unwrap();
        prop_assert_eq!(&back, &data);
        if data.num_samples() > 0 {
            let inferred = read_csv_infer_schema(std::str::from_utf8(&text).unwrap()).unwrap();
            prop_assert_eq!(inferred.flat(), data.flat());
            prop_assert_eq!(inferred.num_samples(), data.num_samples());
        }
    }
}

#[test]
fn the_largest_state_is_refused_not_wrapped() {
    // 65535 would need arity 65536, which a `u16` arity cannot hold.
    assert!(read_csv_infer_schema("65535\n").is_err());
    assert!(read_csv_infer_schema("65534\n").is_ok());
}
