//! Hostile input never panics the trace layer: the fixture CSVs, with
//! lines dropped or duplicated and fields replaced, inserted or
//! removed, either parse or fail with a typed `TraceError` under every
//! ingest mode. A dataset that parses expands to exactly its
//! `total_invocations()` events.

use litmus_trace::{fixture, AzureDataset, ExpandConfig, IngestMode, LossyIngest};
use proptest::prelude::*;

/// Field values a damaged or adversarial file might carry: empty,
/// non-finite, negative, one past `u32::MAX`, huge, and not a number.
const HOSTILE: [&str; 8] = [
    "",
    "NaN",
    "inf",
    "-1",
    "4294967296",
    "1e308",
    "not-a-number",
    "0",
];

/// Applies one mutation to `csv`. `op` picks it: drop a line,
/// duplicate it, or (most often) replace a field, insert one before it
/// or remove it. `line` and `field` wrap around the text's shape.
fn mutate(csv: &str, (op, line, field, token): (u32, usize, usize, usize)) -> String {
    let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
    if lines.is_empty() {
        return String::new();
    }
    let line = line % lines.len();
    let token = HOSTILE[token % HOSTILE.len()];
    match op {
        0 => {
            lines.remove(line);
        }
        1 => {
            let copy = lines[line].clone();
            lines.insert(line, copy);
        }
        _ => {
            let mut fields: Vec<&str> = lines[line].split(',').collect();
            let field = field % fields.len();
            match op {
                6 => fields.insert(field, token),
                7 => {
                    fields.remove(field);
                }
                _ => fields[field] = token,
            }
            lines[line] = fields.join(",");
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_fixtures_parse_or_fail_typed(
        mutations in prop::collection::vec(
            (0usize..3, (0u32..8, 0usize..64, 0usize..64, 0usize..64)),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let mut files = [
            fixture::INVOCATIONS_CSV.to_owned(),
            fixture::DURATIONS_CSV.to_owned(),
            fixture::MEMORY_CSV.to_owned(),
        ];
        for (file, mutation) in mutations {
            files[file] = mutate(&files[file], mutation);
        }
        for mode in [
            IngestMode::Strict,
            IngestMode::Lossy(LossyIngest::Skip),
            IngestMode::Lossy(LossyIngest::ImputeMedians),
        ] {
            match AzureDataset::from_csv_with(&files[0], &files[1], &files[2], mode) {
                Ok((dataset, _)) => {
                    let trace = dataset
                        .expand(ExpandConfig::new(seed).minute_ms(100))
                        .expect("a positive minute length expands");
                    prop_assert_eq!(trace.len() as u64, dataset.total_invocations());
                }
                Err(err) => prop_assert!(!err.to_string().is_empty()),
            }
        }
    }
}
