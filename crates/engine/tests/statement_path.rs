//! Invariants of the statement path that every `Database`/`Session` execute
//! entry point shares: an index build is WAL-logged and invalidates the plan
//! cache wherever it runs, the statement tap sees every DML/SELECT, and an
//! autocommit statement's commit belongs to the statement's own metrics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mb2_common::fault::{points, FaultMode};
use mb2_common::{DbResult, FaultInjector};
use mb2_engine::{recover, Database, DatabaseConfig, StatementTap};
use mb2_exec::Batch;

fn temp_wal(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mb2_stmt_path_{}_{name}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn discard(_: Batch) -> DbResult<()> {
    Ok(())
}

fn sample_value(text: &str, sample: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(sample) && l.as_bytes().get(sample.len()) == Some(&b' '))
        .map_or(0, |l| l.rsplit(' ').next().unwrap().parse().unwrap())
}

#[test]
fn in_transaction_streamed_index_build_is_logged_and_invalidates_plans() {
    let path = temp_wal("txn_index");
    let db = Database::new(DatabaseConfig {
        wal_enabled: true,
        wal_path: Some(path.clone()),
        wal_sync_commit: true,
        ..DatabaseConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 5))
            .unwrap();
    }
    let query = "SELECT b FROM t WHERE a = 7";
    // Warm the plan cache with the pre-index (sequential scan) plan.
    let before = db.prepare_cached(query).unwrap();

    let mut s = db.session();
    for sql in ["BEGIN", "CREATE INDEX t_a ON t (a)", "COMMIT"] {
        s.execute_streaming(sql, None, &mut discard).unwrap();
    }
    drop(s);

    let fresh = db.prepare(query).unwrap();
    assert_ne!(*before, fresh, "the index must change the plan");
    assert_eq!(
        *db.prepare_cached(query).unwrap(),
        fresh,
        "the index build must invalidate the plan cache"
    );

    db.shutdown();
    let (recovered, report) = recover(&path, DatabaseConfig::default()).unwrap();
    assert_eq!(report.indexes_created, 1, "{report:?}");
    assert_eq!(recovered.catalog().get("t").unwrap().indexes().len(), 1);
    // Recovery re-analyzes, so compare the access path, not the estimates.
    let plan = format!("{:?}", recovered.prepare(query).unwrap());
    assert!(
        plan.contains("IndexScan { table: \"t\", index: \"t_a\""),
        "{plan}"
    );
    drop(recovered);
    let _ = std::fs::remove_file(&path);
}

#[derive(Default)]
struct CountingTap(AtomicUsize);

impl StatementTap for CountingTap {
    fn observe(&self, _sql: &str) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn tap_sees_every_statement_on_every_entry_point() {
    let db = Database::open();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2)").unwrap();
    let tap = Arc::new(CountingTap::default());
    db.set_statement_tap(Some(tap.clone() as Arc<dyn StatementTap>));
    let seen = || tap.0.load(Ordering::Relaxed);

    // In a transaction, streamed (the server's path): only the SELECT and
    // the UPDATE are reported, never the transaction control.
    let mut s = db.session();
    for sql in [
        "BEGIN",
        "SELECT a FROM t WHERE b = 1",
        "UPDATE t SET b = 3 WHERE a = 2",
        "COMMIT",
    ] {
        s.execute_streaming(sql, None, &mut discard).unwrap();
    }
    assert_eq!(seen(), 2, "in-transaction streaming");

    // The same statements, materialized.
    for sql in [
        "BEGIN",
        "SELECT a FROM t WHERE b = 1",
        "UPDATE t SET b = 1 WHERE a = 2",
        "COMMIT",
    ] {
        s.execute(sql).unwrap();
    }
    assert_eq!(seen(), 4, "in-transaction materialized");

    // Autocommit, streamed and materialized; DDL is never reported.
    db.execute_streaming("SELECT a FROM t", None, &mut discard)
        .unwrap();
    db.execute("DELETE FROM t WHERE a = 1").unwrap();
    db.execute("CREATE INDEX t_b ON t (b)").unwrap();
    assert_eq!(seen(), 6, "autocommit");
}

#[test]
fn streamed_autocommit_commit_is_part_of_the_statement() {
    let faults = Arc::new(FaultInjector::new(7));
    let db = Database::new(DatabaseConfig {
        faults: Some(faults.clone()),
        ..DatabaseConfig::default()
    })
    .unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();

    // A failed commit is the statement's failure.
    faults.arm(points::TXN_COMMIT, FaultMode::Nth(1));
    assert!(db
        .execute_streaming("INSERT INTO t VALUES (1)", None, &mut discard)
        .is_err());
    let text = db.metrics_prometheus();
    assert_eq!(sample_value(&text, "mb2_stmt_total{kind=\"insert\"}"), 1);
    assert_eq!(
        sample_value(&text, "mb2_stmt_errors_total{kind=\"insert\"}"),
        1
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0]
            .as_i64()
            .unwrap(),
        0,
        "the failed commit must not publish the row"
    );

    // A stalled commit is inside the statement's latency.
    let stall = Duration::from_millis(20);
    faults.arm_delay(points::TXN_COMMIT, stall);
    db.execute_streaming("INSERT INTO t VALUES (2)", None, &mut discard)
        .unwrap();
    faults.disarm(points::TXN_COMMIT);
    let text = db.metrics_prometheus();
    assert_eq!(
        sample_value(&text, "mb2_stmt_latency_us_count{kind=\"insert\"}"),
        1
    );
    assert!(
        sample_value(&text, "mb2_stmt_latency_us_sum{kind=\"insert\"}") >= stall.as_micros() as u64,
        "{text}"
    );
}
