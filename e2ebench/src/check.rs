//! Correctness checks that fail the run.
//!
//! - `tpch`, `htap`: every wire result equals the in-process result of the
//!   same SQL on the same (read-only) database.
//! - `tatp`: each table's final row count equals its loaded count plus the
//!   acknowledged rows affected by committed inserts and deletes.
//! - `smallbank`: the WAL recovered into a fresh database dumps the same
//!   tables as the live database.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use mb2_common::{DbResult, Value};
use mb2_engine::{recover, Database, DatabaseConfig};

use crate::driver::StreamResult;
use crate::workload::Stream;

pub fn table_counts(db: &Database) -> DbResult<BTreeMap<String, i64>> {
    let mut counts = BTreeMap::new();
    for table in db.catalog().table_names() {
        let r = db.execute(&format!("SELECT COUNT(*) FROM {table}"))?;
        let n = match r.rows.first().and_then(|row| row.first()) {
            Some(Value::Int(n)) => *n,
            other => panic!("COUNT(*) returned {other:?}"),
        };
        counts.insert(table, n);
    }
    Ok(counts)
}

/// The table an INSERT or DELETE statement changes, with the sign of its
/// rows-affected count.
fn row_delta_target(sql: &str) -> Option<(&str, i64)> {
    let mut words = sql.split_whitespace();
    let verb = words.next()?.to_ascii_uppercase();
    let _into_or_from = words.next()?;
    let table = words.next()?;
    match verb.as_str() {
        "INSERT" => Some((table, 1)),
        "DELETE" => Some((table, -1)),
        _ => None,
    }
}

/// `tatp`: loaded + acknowledged inserts − acknowledged deletes == final.
pub fn row_counts(
    db: &Database,
    loaded: &BTreeMap<String, i64>,
    streams: &[Stream],
    results: &[StreamResult],
) -> DbResult<Vec<String>> {
    let mut expected = loaded.clone();
    for (stream, result) in streams.iter().zip(results) {
        for outcome in result.outcomes.iter().filter(|o| o.ok) {
            let Some(responses) = &outcome.responses else {
                continue;
            };
            for (sql, resp) in stream.ops[outcome.op].stmts.iter().zip(responses) {
                if let Some((table, sign)) = row_delta_target(sql) {
                    *expected.entry(table.to_string()).or_default() += sign * resp.count as i64;
                }
            }
        }
    }
    let actual = table_counts(db)?;
    Ok(expected
        .iter()
        .filter(|(t, n)| actual.get(*t) != Some(n))
        .map(|(t, n)| format!("table {t}: expected {n} rows, found {:?}", actual.get(t)))
        .collect())
}

/// `tpch`/`htap`: each wire result against the in-process result of the
/// same SQL (run once per distinct SQL text). Streams are checked in
/// parallel, one thread each, as they were served.
pub fn wire_vs_in_process(
    db: &Database,
    streams: &[Stream],
    results: &[StreamResult],
) -> DbResult<Vec<String>> {
    let per_stream: Vec<DbResult<Vec<String>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(results)
            .map(|(stream, result)| scope.spawn(move || check_stream(db, stream, result)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut problems = Vec::new();
    for p in per_stream {
        problems.extend(p?);
    }
    Ok(problems)
}

fn check_stream(db: &Database, stream: &Stream, result: &StreamResult) -> DbResult<Vec<String>> {
    let mut expected: HashMap<&str, Vec<Vec<Value>>> = HashMap::new();
    let mut problems = Vec::new();
    for outcome in result.outcomes.iter().filter(|o| o.ok) {
        let Some(responses) = &outcome.responses else {
            continue;
        };
        for (sql, resp) in stream.ops[outcome.op].stmts.iter().zip(responses) {
            if !expected.contains_key(sql.as_str()) {
                expected.insert(sql, db.execute(sql)?.rows);
            }
            let rows = &expected[sql.as_str()];
            if *rows != resp.rows && problems.len() < 8 {
                problems.push(format!(
                    "wire result differs from in-process result ({} vs {} rows) for: {sql}",
                    resp.rows.len(),
                    rows.len()
                ));
            }
        }
    }
    Ok(problems)
}

fn dump(db: &Database) -> DbResult<BTreeMap<String, Vec<Vec<Value>>>> {
    let mut out = BTreeMap::new();
    for table in db.catalog().table_names() {
        let mut rows = db.execute(&format!("SELECT * FROM {table}"))?.rows;
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        out.insert(table, rows);
    }
    Ok(out)
}

/// `smallbank`: recover the WAL into a fresh database and compare dumps.
pub fn wal_recovery(db: &Database, wal_path: &Path) -> DbResult<Vec<String>> {
    let live = dump(db)?;
    let config = DatabaseConfig {
        wal_enabled: false,
        ..DatabaseConfig::default()
    };
    let (recovered, _report) = recover(wal_path, config)?;
    let replayed = dump(&recovered)?;
    recovered.shutdown();
    let mut problems = Vec::new();
    for (table, rows) in &live {
        match replayed.get(table) {
            None => problems.push(format!("table {table} missing after WAL recovery")),
            Some(r) if r != rows => problems.push(format!(
                "table {table}: recovered dump differs from live ({} vs {} rows)",
                r.len(),
                rows.len()
            )),
            Some(_) => {}
        }
    }
    Ok(problems)
}
