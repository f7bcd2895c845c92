//! Server lifecycle: handshake, admission control, idle timeout, and
//! graceful drain-then-shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_common::DbError;
use mb2_engine::{Database, DatabaseConfig};
use mb2_server::{Client, Server, ServerConfig};

fn start_server(db_cfg: DatabaseConfig, srv_cfg: ServerConfig) -> Server {
    let db = Arc::new(Database::new(db_cfg).expect("database"));
    Server::start(db, srv_cfg).expect("server start")
}

fn addr_of(server: &Server) -> String {
    server.local_addr().to_string()
}

#[test]
fn handshake_and_query_roundtrip() {
    let server = start_server(DatabaseConfig::default(), ServerConfig::default());
    let mut client = Client::connect(addr_of(&server)).expect("connect");

    client.query("CREATE TABLE t (id INT, v INT)").expect("ddl");
    let ins = client
        .query("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .expect("insert");
    assert_eq!(ins.count, 3);

    let resp = client
        .query("SELECT id, v FROM t ORDER BY id")
        .expect("select");
    assert_eq!(resp.count, 3);
    assert_eq!(resp.rows.len(), 3);

    // Typed engine errors arrive in-band and leave the connection usable.
    let err = client.query("SELECT * FROM missing").unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)), "got {err:?}");
    let resp = client
        .query("SELECT id FROM t WHERE id = 2")
        .expect("after error");
    assert_eq!(resp.rows.len(), 1);

    server.shutdown();
}

#[test]
fn explicit_transactions_span_requests() {
    let server = start_server(DatabaseConfig::default(), ServerConfig::default());
    let addr = addr_of(&server);
    let mut writer = Client::connect(&addr).expect("connect");
    writer.query("CREATE TABLE acct (id INT, bal INT)").unwrap();
    writer.query("INSERT INTO acct VALUES (1, 100)").unwrap();

    writer.query("BEGIN").unwrap();
    writer
        .query("UPDATE acct SET bal = 50 WHERE id = 1")
        .unwrap();

    // Snapshot isolation: a second connection (its own session) must not
    // see the uncommitted write.
    let mut reader = Client::connect(&addr).expect("connect 2");
    let before = reader.query("SELECT bal FROM acct WHERE id = 1").unwrap();
    assert_eq!(before.rows, vec![vec![mb2_common::Value::Int(100)]]);

    writer.query("COMMIT").unwrap();
    let after = reader.query("SELECT bal FROM acct WHERE id = 1").unwrap();
    assert_eq!(after.rows, vec![vec![mb2_common::Value::Int(50)]]);

    server.shutdown();
}

/// An index built inside an explicit transaction over the wire is as
/// durable as one built in autocommit, and retires cached plans.
#[test]
fn in_transaction_index_build_survives_recovery() {
    let path = std::env::temp_dir().join(format!(
        "mb2_lifecycle_{}_txn_index.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let server = start_server(
        DatabaseConfig {
            wal_enabled: true,
            wal_path: Some(path.clone()),
            wal_sync_commit: true,
            ..DatabaseConfig::default()
        },
        ServerConfig::default(),
    );
    let db = server.db();
    let mut client = Client::connect(addr_of(&server)).expect("connect");
    client.query("CREATE TABLE t (a INT, b INT)").unwrap();
    client
        .query("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let query = "SELECT b FROM t WHERE a = 2";
    let before = db.prepare_cached(query).unwrap();
    for sql in ["BEGIN", "CREATE INDEX t_a ON t (a)", "COMMIT"] {
        client.query(sql).unwrap();
    }
    let fresh = db.prepare(query).unwrap();
    assert_ne!(*before, fresh);
    assert_eq!(*db.prepare_cached(query).unwrap(), fresh);
    let resp = client.query(query).unwrap();
    assert_eq!(resp.rows, vec![vec![mb2_common::Value::Int(20)]]);
    server.shutdown();
    drop(db);

    let (recovered, report) =
        mb2_engine::recover(&path, DatabaseConfig::default()).expect("recover");
    assert_eq!(report.indexes_created, 1, "{report:?}");
    // Recovery re-analyzes, so compare the access path, not the estimates.
    let plan = format!("{:?}", recovered.prepare(query).unwrap());
    assert!(
        plan.contains("IndexScan { table: \"t\", index: \"t_a\""),
        "{plan}"
    );
    drop(recovered);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn connection_limit_rejects_with_typed_busy() {
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&server);
    let _c1 = Client::connect(&addr).expect("conn 1");
    let _c2 = Client::connect(&addr).expect("conn 2");
    let err = match Client::connect(&addr) {
        Ok(_) => panic!("third connection must be shed"),
        Err(e) => e,
    };
    assert!(matches!(err, DbError::ServerBusy(_)), "got {err:?}");
    server.shutdown();
}

#[test]
fn overload_sheds_queries_with_server_busy_not_queueing() {
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            max_inflight_queries: 2,
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&server);

    // Seed a table big enough that a scan occupies its permit for a
    // measurable time.
    {
        let mut admin = Client::connect(&addr).expect("admin");
        admin.query("CREATE TABLE big (id INT, v INT)").unwrap();
        for chunk in 0..40 {
            let rows: Vec<String> = (0..250)
                .map(|i| format!("({}, {})", chunk * 250 + i, i % 97))
                .collect();
            admin
                .query(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
                .unwrap();
        }
    }

    let busy = Arc::new(AtomicUsize::new(0));
    let ok = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let busy = busy.clone();
            let ok = ok.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("client");
                let deadline = Instant::now() + Duration::from_millis(400);
                while Instant::now() < deadline {
                    match c.query("SELECT COUNT(*), SUM(v) FROM big") {
                        Ok(resp) => {
                            assert_eq!(resp.rows.len(), 1);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(DbError::ServerBusy(_)) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error: {e:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let busy = busy.load(Ordering::Relaxed);
    let ok = ok.load(Ordering::Relaxed);
    assert!(ok > 0, "some queries must be admitted");
    assert!(
        busy > 0,
        "8 clients against max_inflight_queries=2 must trip admission control (ok={ok})"
    );

    // Rejections are visible in the registry, and rejected work was never
    // queued: the in-flight gauge cannot exceed the bound.
    let prom = server.db().metrics_prometheus();
    let rejected = prom
        .lines()
        .find(|l| l.starts_with("mb2_server_queries_rejected_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("rejected counter exported");
    assert!(rejected >= busy as f64);
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_after_timeout() {
    let server = start_server(
        DatabaseConfig::default(),
        ServerConfig {
            idle_timeout: Duration::from_millis(100),
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(addr_of(&server)).expect("connect");
    client.query("CREATE TABLE t (id INT)").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let err = client
        .query("SELECT * FROM t")
        .expect_err("idle-timed-out connection must not serve");
    assert!(matches!(err, DbError::Net(_)), "got {err:?}");
    server.shutdown();
}

/// The headline drain requirement: with the GC and WAL flusher parked in
/// 30-second waits and idle clients connected, a full drain-then-shutdown
/// (server workers + acceptor + engine background threads) completes in
/// under 250ms. Exercises both the condvar-interruptible background waits
/// and the server's poll-based workers.
#[test]
fn graceful_shutdown_drains_and_joins_quickly() {
    let mut db_cfg = DatabaseConfig {
        gc_interval: Some(Duration::from_secs(30)),
        wal_background: true,
        ..DatabaseConfig::default()
    };
    db_cfg.knobs.wal_flush_interval = Duration::from_secs(30);
    let server = start_server(
        db_cfg,
        ServerConfig {
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );
    let addr = addr_of(&server);

    let mut clients: Vec<Client> = (0..4)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();
    clients[0].query("CREATE TABLE t (id INT, v INT)").unwrap();
    for (i, c) in clients.iter_mut().enumerate() {
        c.query(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    // Leave all four connections open and idle; drain must not wait for
    // them to disconnect on their own.
    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "drain-then-shutdown took {elapsed:?} (budget 250ms)"
    );
}

#[test]
fn shutdown_finishes_inflight_query_before_closing() {
    let server = start_server(DatabaseConfig::default(), ServerConfig::default());
    let addr = addr_of(&server);
    {
        let mut admin = Client::connect(&addr).expect("admin");
        admin.query("CREATE TABLE big (id INT, v INT)").unwrap();
        for chunk in 0..40 {
            let rows: Vec<String> = (0..250)
                .map(|i| format!("({}, {})", chunk * 250 + i, i))
                .collect();
            admin
                .query(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
                .unwrap();
        }
    }

    // Run scans continuously on a worker thread while the main thread
    // shuts the server down: every query must either complete correctly
    // or fail with a network error (connection closed between requests) —
    // never a torn result.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("client");
            let mut completed = 0u32;
            loop {
                match c.query("SELECT COUNT(*) FROM big") {
                    Ok(resp) => {
                        assert_eq!(resp.rows, vec![vec![mb2_common::Value::Int(10_000)]]);
                        completed += 1;
                    }
                    Err(DbError::Net(_)) => return completed,
                    Err(e) => panic!("unexpected error: {e:?}"),
                }
            }
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let completed = worker.join().unwrap();
    assert!(
        completed > 0,
        "worker should have completed queries before drain"
    );
}
