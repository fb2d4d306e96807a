//! The paper's tables as a test: every paper experiment (`f1`, `t1..t9`,
//! `a1`, `a2`) must print exactly the rows committed under
//! `tests/golden/<id>.txt`.
//!
//! Wall-clock columns — a header ending in `_ms`, or `events_per_sec` — read
//! `_` in the golden files and are blanked to `_` in the output; every other
//! cell is compared exactly (f1's `e2e_latency_us` is simulated time, so it
//! stays). There is no bless
//! switch: a change that moves a table edits its golden file, and the diff
//! shows in review.

use std::fmt::Write as _;

use rvaas_bench::run_experiment;

const PAPER_TABLES: [&str; 12] = [
    "f1", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "a1", "a2",
];

/// `rows` with every cell under a wall-clock header replaced by `_`. The
/// first row with a ` | ` separator is the table's header.
fn mask_wall_clock(rows: &[String]) -> Vec<String> {
    let mut masked: Option<Vec<bool>> = None;
    rows.iter()
        .map(|row| {
            let cells: Vec<&str> = row.split(" | ").collect();
            if cells.len() < 2 {
                return row.clone();
            }
            match &masked {
                None => {
                    masked = Some(
                        cells
                            .iter()
                            .map(|h| h.ends_with("_ms") || *h == "events_per_sec")
                            .collect(),
                    );
                    row.clone()
                }
                Some(mask) => cells
                    .iter()
                    .enumerate()
                    .map(|(i, cell)| {
                        if mask.get(i) == Some(&true) {
                            "_"
                        } else {
                            cell
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" | "),
            }
        })
        .collect()
}

#[test]
fn the_paper_tables_match_their_golden_files() {
    let mut report = String::new();
    for id in PAPER_TABLES {
        let path = format!("{}/tests/golden/{id}.txt", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let expected: Vec<&str> = golden.lines().collect();
        let actual = mask_wall_clock(&run_experiment(id));
        for line in 0..expected.len().max(actual.len()) {
            let (want, got) = (
                expected.get(line).copied(),
                actual.get(line).map(String::as_str),
            );
            if want != got {
                let _ = writeln!(
                    report,
                    "{id}.txt line {}:\n  expected: {}\n  actual:   {}",
                    line + 1,
                    want.unwrap_or("(none)"),
                    got.unwrap_or("(none)")
                );
            }
        }
    }
    assert!(
        report.is_empty(),
        "paper tables differ from tests/golden:\n{report}"
    );
}
