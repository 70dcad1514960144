//! Fuzzing the serve protocol parser (`wfbn_serve::query::parse_line`).
//!
//! Three properties:
//!
//! * **No panic**: arbitrary text — random bytes, and soups of protocol
//!   tokens, separators and Unicode whitespace — parses to `Ok` or `Err`.
//! * **Query round trip**: every `Query::protocol_line` the workload
//!   generator can emit parses back to the matching `Request`.
//! * **INGEST round trip**: rows rendered as an `INGEST` line, with
//!   whitespace sprinkled anywhere, parse back to exactly those rows; and on
//!   arbitrary payloads the one-pass row parser accepts and refuses exactly
//!   what a token-by-token reference parser does, with the same message —
//!   also on lines of hundreds of rows with at most one byte mutated, where
//!   the parser hands over between whole rows and single bytes mid-line.

use proptest::collection::vec;
use proptest::prelude::*;
use wfbn_serve::query::parse_line;
use wfbn_serve::Request;
use wfbn_workload::Query;

/// Pieces an adversarial line is glued from.
const PIECES: [&str; 34] = [
    "MARGINAL",
    "MI",
    "CPT",
    "INGEST",
    "EPOCH",
    "SYNC",
    "STATS",
    "QUIT",
    "SHUTDOWN",
    "bits",
    "ingest",
    "0",
    "1",
    "7",
    "65535",
    "65536",
    "18446744073709551616",
    "+",
    "-",
    ",",
    "|",
    ";",
    " ",
    "  ",
    "\t",
    "#",
    "x",
    "é",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "00",
    "9",
    "\n",
];

/// Characters of an adversarial `INGEST` payload.
const PAYLOAD: [char; 16] = [
    '0', '1', '2', '5', '6', '9', ',', '|', '+', '-', ' ', '\t', 'x', 'é', '\u{a0}', '\u{3000}',
];

/// What one byte of a long `INGEST` payload may be mutated to.
const MUTATIONS: [&str; 16] = [
    ",", "|", "+", " ", "x", "\u{a0}", "0", "1", "2", "3", "4", "5", "6", "7", "8", "9",
];

/// The `INGEST` row parser as it was before the one-pass parser: strip all
/// whitespace, split rows on `|` and states on `,`, and parse each state
/// as a `u16`. The reference the one-pass parser must agree with.
fn reference_ingest(payload: &str) -> Result<Vec<Vec<u16>>, String> {
    let joined: String = payload.split_whitespace().collect();
    joined
        .split('|')
        .map(|row| {
            row.split(',')
                .map(|s| {
                    s.parse::<u16>()
                        .map_err(|_| format!("INGEST: bad state {s:?}"))
                })
                .collect()
        })
        .collect()
}

/// The rows of a line that parsed to a single `INGEST`.
fn ingest_rows(line: &str) -> Result<Vec<Vec<u16>>, String> {
    match parse_line(line)?.as_slice() {
        [Request::Ingest(rows)] => Ok(rows.rows().map(<[u16]>::to_vec).collect()),
        other => panic!("{line:?} did not parse to one INGEST: {other:?}"),
    }
}

/// The error of an `INGEST` line with this payload.
fn ingest_rows_err(payload: &str) -> String {
    parse_line(&format!("INGEST {payload}")).unwrap_err()
}

fn query() -> impl Strategy<Value = Query> {
    (0usize..3, vec(0usize..40, 1..6)).prop_map(|(kind, vars)| match kind {
        0 => Query::Marginal(vars),
        1 => Query::Mi(vars[0], *vars.last().unwrap()),
        _ => Query::Cpt {
            x: vars[0],
            parents: vars[1..].to_vec(),
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..80)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = parse_line(&line);
    }

    #[test]
    fn token_soups_never_panic(picks in vec(0usize..PIECES.len(), 0..24)) {
        let line: String = picks.iter().map(|&k| PIECES[k]).collect();
        let _ = parse_line(&line);
        let _ = parse_line(&format!("INGEST {line}"));
    }

    #[test]
    fn generated_queries_parse_back(q in query()) {
        let line = q.protocol_line();
        let expected = match &q {
            Query::Marginal(scope) => {
                let mut scope = scope.clone();
                scope.sort_unstable();
                scope.dedup();
                Request::Marginal(scope)
            }
            Query::Mi(i, j) => Request::Mi { i: *i, j: *j, bits: false },
            Query::Cpt { x, parents } => Request::Cpt { x: *x, parents: parents.clone() },
        };
        prop_assert_eq!(parse_line(&line), Ok(vec![expected.clone()]), "{}", line);
        // Fused with itself on one line: one request per clause.
        let fused = parse_line(&format!("{line}; {line};")).unwrap();
        prop_assert_eq!(fused, vec![expected.clone(), expected]);
    }

    #[test]
    fn ingest_lines_parse_back_to_their_rows(
        width in 1usize..6,
        states in vec(any::<u16>(), 1..60),
        spaces in vec(0usize..4, 0..240),
    ) {
        let rows: Vec<Vec<u16>> = states.chunks(width).map(<[u16]>::to_vec).collect();
        let rendered: Vec<String> = rows
            .iter()
            .map(|row| row.iter().map(u16::to_string).collect::<Vec<_>>().join(","))
            .collect();
        let line = format!("INGEST {}", rendered.join("|"));
        prop_assert_eq!(ingest_rows(&line), Ok(rows.clone()), "{}", line);
        // Whitespace after any character of the payload is stripped; inside
        // a state it only joins the state's own digits back together.
        let mut spaced = String::from("INGEST");
        for (k, c) in line["INGEST".len()..].chars().enumerate() {
            spaced.push(c);
            spaced.push_str([" ", "\t", "\u{a0}", ""][spaces.get(k).copied().unwrap_or(3)]);
        }
        prop_assert_eq!(ingest_rows(&spaced), Ok(rows), "{:?}", spaced);
    }

    #[test]
    fn ingest_payloads_match_the_reference_parser(picks in vec(0usize..PAYLOAD.len(), 1..40)) {
        let payload: String = picks.iter().map(|&k| PAYLOAD[k]).collect();
        if payload.trim().is_empty() {
            prop_assert!(ingest_rows_err(&payload).contains("needs rows"));
        } else {
            let line = format!("INGEST {payload}");
            prop_assert_eq!(ingest_rows(&line), reference_ingest(&payload), "{:?}", payload);
        }
    }

    #[test]
    fn long_ingest_lines_match_the_reference_parser(
        width in 1usize..18,
        multi_digit in any::<bool>(),
        seed in any::<u64>(),
        rows in 100usize..400,
        mutation in proptest::option::of((any::<usize>(), 0..MUTATIONS.len())),
    ) {
        // Rendered rows of single-digit states, or of states of any width.
        let mut x = seed;
        let mut state = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let high = (x >> 48) as u16;
            if multi_digit { high } else { high % 10 }
        };
        let rendered: Vec<String> = (0..rows)
            .map(|_| (0..width).map(|_| state().to_string()).collect::<Vec<_>>().join(","))
            .collect();
        let mut payload = rendered.join("|");
        if let Some((place, k)) = mutation {
            let at = place % payload.len();
            payload.replace_range(at..at + 1, MUTATIONS[k]);
        }
        let line = format!("INGEST {payload}");
        prop_assert_eq!(ingest_rows(&line), reference_ingest(&payload), "{:?}", mutation);
    }
}
