//! Columnar block path — selective-filter scan throughput on sealed data.
//!
//! Loads a four-column table sized in whole 512-slot shard units, seals
//! every unit with one compaction pass, and measures the same prepared
//! selective-filter query with `columnar_enabled` off (row batch path)
//! and on (sealed blocks: vectorized range predicate, zone-map skipping,
//! late materialization). Two data layouts:
//!
//! * **clustered** — the filter column is insert-ordered, so zone maps
//!   exclude every non-matching unit outright; this is the layout the
//!   block path is built for and carries the acceptance gate.
//! * **uniform** — the filter column is uniform random, so every zone map
//!   straddles the predicate and the win is the vectorized sweep plus
//!   late materialization alone; reported for context, ungated.
//!
//! Acceptance gate for this reproduction: clustered selective-filter scan
//! throughput with columnar on must reach [`COLUMNAR_SPEEDUP_GATE`] times
//! the row path. Emits `results/columnar_scan.txt` and machine-readable
//! `results/BENCH_columnar.json`.

use std::fmt::Write as _;
use std::time::Instant;

use mb2_engine::{Database, DatabaseConfig, Knob};

use crate::report::{fmt, results_dir, Table};
use crate::Scale;

/// Required clustered selective-scan speedup, columnar on vs off.
pub const COLUMNAR_SPEEDUP_GATE: f64 = 2.0;

/// Slots per shard-map unit (the seal granule).
const UNIT: usize = 512;

/// Rows matched by the selective predicate, as a fraction of the table.
const SELECTIVITY: f64 = 0.02;

struct Layout {
    name: &'static str,
    /// Filter-column value for row `i` of `n`.
    key: fn(i: usize, n: usize) -> i64,
}

/// Build, load, and seal one table; return the database.
fn build(rows: usize, layout: &Layout) -> Database {
    let cfg = DatabaseConfig {
        wal_enabled: false,
        ..DatabaseConfig::bench()
    };
    let db = Database::new(cfg).expect("database");
    db.execute("CREATE TABLE wide (a INT, b INT, c INT, d INT)")
        .unwrap();
    let mut i = 0;
    while i < rows {
        let n = 256.min(rows - i);
        let vals: Vec<String> = (i..i + n)
            .map(|j| {
                let k = (layout.key)(j, rows);
                format!("({j}, {k}, {}, {})", j % 97, j % 13)
            })
            .collect();
        db.execute(&format!("INSERT INTO wide VALUES {}", vals.join(", ")))
            .unwrap();
        i += n;
    }
    let report = db.compact_now();
    assert!(
        report.units_sealed >= rows / UNIT,
        "expected every full unit sealed, got {report:?}"
    );
    db
}

/// Median swept rows/sec for `query` over `reps` timed repetitions (one
/// warmup rep discarded).
fn measure(db: &Database, sql: &str, rows: usize, reps: usize) -> (f64, usize) {
    let plan = db.prepare(sql).expect("prepare scan");
    let mut rates = Vec::with_capacity(reps);
    let mut matched = 0usize;
    for rep in 0..=reps {
        let t0 = Instant::now();
        let result = db.execute_plan(&plan, None).expect("scan");
        let secs = t0.elapsed().as_secs_f64();
        matched = result.rows.len();
        if rep > 0 {
            rates.push(rows as f64 / secs);
        }
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    (rates[rates.len() / 2], matched)
}

pub fn run(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str("# Columnar block path — selective scan throughput on sealed data\n\n");

    let units = scale.pick(16, 64);
    let rows = units * UNIT;
    let reps = scale.pick(5, 9);

    let layouts = [
        Layout {
            name: "clustered",
            key: |i, _| i as i64,
        },
        Layout {
            name: "uniform",
            // Multiplicative hash scatters keys uniformly over [0, n).
            key: |i, n| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) % n as u64) as i64,
        },
    ];

    let mut table = Table::new(
        format!("swept rows/sec, {rows} sealed rows (median of {reps})"),
        &["layout", "query", "row path", "columnar", "speedup"],
    );
    let mut json_rows = Vec::new();
    let mut clustered_selective_speedup = 0.0;
    for layout in &layouts {
        let db = build(rows, layout);
        let hi = (rows as f64 * SELECTIVITY) as i64;
        let mid = rows as i64 / 2;
        let queries = [
            (
                "selective",
                format!(
                    "SELECT a, d FROM wide WHERE b >= {mid} AND b < {}",
                    mid + hi
                ),
            ),
            ("full", "SELECT a, d FROM wide".to_string()),
        ];
        for (qname, sql) in &queries {
            db.set_knob(Knob::ColumnarEnabled, false).unwrap();
            let (row_rate, row_matched) = measure(&db, sql, rows, reps);
            db.set_knob(Knob::ColumnarEnabled, true).unwrap();
            let (col_rate, col_matched) = measure(&db, sql, rows, reps);
            assert_eq!(
                row_matched, col_matched,
                "result cardinality drifted: {} {qname}",
                layout.name
            );
            let speedup = col_rate / row_rate;
            if layout.name == "clustered" && *qname == "selective" {
                clustered_selective_speedup = speedup;
            }
            table.row(&[
                layout.name.to_string(),
                qname.to_string(),
                fmt(row_rate),
                fmt(col_rate),
                format!("{speedup:.2}x"),
            ]);
            json_rows.push(format!(
                "    {{\"layout\": \"{}\", \"query\": \"{qname}\", \
                 \"row_rows_per_sec\": {row_rate:.1}, \
                 \"columnar_rows_per_sec\": {col_rate:.1}, \
                 \"speedup\": {speedup:.4}, \"matched\": {row_matched}}}",
                layout.name
            ));
        }
        db.shutdown();
    }
    out.push_str(&table.render());

    let pass = clustered_selective_speedup >= COLUMNAR_SPEEDUP_GATE;
    let verdict = if pass { "PASS" } else { "FAIL" };
    let _ = writeln!(
        out,
        "\nclustered selective-scan speedup: {clustered_selective_speedup:.2}x \
         (gate {COLUMNAR_SPEEDUP_GATE:.1}x) — {verdict}"
    );

    // Machine-readable companion: hand-rolled JSON, no serde dependency.
    let mut json = String::from("{\n  \"experiment\": \"columnar_scan\",\n");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"selectivity\": {SELECTIVITY},");
    let _ = writeln!(
        json,
        "  \"clustered_selective_speedup\": {clustered_selective_speedup:.4},"
    );
    let _ = writeln!(json, "  \"gate\": {COLUMNAR_SPEEDUP_GATE},");
    let _ = writeln!(json, "  \"gate_pass\": {pass},");
    json.push_str("  \"results\": [\n");
    json.push_str(&json_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    let path = results_dir().join("BENCH_columnar.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        let _ = writeln!(out, "\njson: {}", path.display());
    }

    out
}
