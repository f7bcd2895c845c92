//! Seeded chaos scenarios against a live server under concurrent SmallBank
//! load. Every scenario ends (and every plan event is followed by) the
//! wire-vs-oracle dump comparison: zero acknowledged commits lost.
//!
//! The seed comes from `CHAOS_SEED` so CI can sweep seeds:
//! `CHAOS_SEED=3 cargo test -p mb2-chaos -- --test-threads=1`.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use mb2_chaos::{ChaosConfig, ChaosEvent, ChaosHarness, ChaosPlan};
use mb2_common::fault::points;
use mb2_common::DbError;
use mb2_engine::{Knob, KnobValue};

/// Each scenario stands up a full server plus worker fleet; on small CI
/// hosts running them concurrently turns timing-based plans into noise.
/// Serialize them regardless of the runner's `--test-threads`.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn metric(prom: &str, name: &str) -> f64 {
    prom.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} not exported"))
}

/// Crash the server mid-workload and recover from the WAL: connections
/// tear, the replacement comes up on a new port, workers reconnect, and no
/// acknowledged commit is missing afterwards.
#[test]
fn kill_and_recover_mid_workload() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        name: "kill_recover",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(Duration::from_millis(60), ChaosEvent::KillAndRecover)
        .then(Duration::from_millis(40), ChaosEvent::KillAndRecover)
        .run(&mut h, 60);
    let report = h.report();
    assert!(
        report.committed > 0,
        "workload must make progress through two crash-recoveries: {report:?}"
    );
    h.shutdown();
}

/// Poison the WAL under load with the self-healing supervisor enabled:
/// the engine degrades to read-only, the supervisor replays the log into a
/// replacement and swaps it in, and the workload resumes committing.
#[test]
fn wal_poison_supervisor_self_heals() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        supervisor: true,
        name: "self_heal",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(Duration::from_millis(50), ChaosEvent::PoisonWal)
        .then(
            Duration::from_millis(10),
            ChaosEvent::HealWal {
                timeout: Duration::from_secs(15),
            },
        )
        .run(&mut h, 60);
    assert!(
        h.server().engine_epoch() >= 1,
        "supervisor must have swapped in a recovered engine"
    );

    // The recovered engine serves writes again.
    let before = h.report().committed;
    h.run_phase(40);
    assert!(
        h.report().committed > before,
        "no commits landed after the supervisor swap"
    );
    h.assert_consistent();

    let prom = h.db().metrics_prometheus();
    assert!(metric(&prom, "mb2_server_recoveries_total") >= 1.0);
    assert!(metric(&prom, "mb2_recovery_runs_total") >= 1.0);
    assert_eq!(metric(&prom, "mb2_health_state"), 0.0);
    h.shutdown();
}

/// While degraded (before healing), reads must still be served and writes
/// must fail with the typed `WalUnavailable` — checked mid-outage on a
/// supervisor-less harness so the degraded window stays open.
#[test]
fn degraded_mode_serves_reads_rejects_writes() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        supervisor: false,
        name: "degraded",
        ..ChaosConfig::default()
    });
    h.run_phase(30);

    h.faults
        .arm(points::WAL_FSYNC, mb2_common::fault::FaultMode::Always);
    let mut c = h.client().expect("connect");
    // First write poisons the log (or finds it already poisoned by a
    // concurrent worker — either way the error is the typed one).
    let err = c
        .query("UPDATE sb_checking SET bal = bal + 1.0 WHERE custid = 0")
        .expect_err("write on failing fsync must not be acknowledged");
    assert!(matches!(err, DbError::WalUnavailable(_)), "got {err:?}");
    assert!(h.db().is_read_only());

    // Reads keep working against the degraded engine.
    let resp = c.query("SELECT COUNT(*) FROM sb_accounts").unwrap();
    assert_eq!(resp.rows[0][0], mb2_common::Value::Int(400));
    drop(c);

    // The degraded state never acknowledged the write, so the oracle
    // (which skips it) must still match.
    h.assert_consistent();
    h.faults.disarm(points::WAL_FSYNC);
    h.shutdown();
}

/// A slow disk (stalled fsync) throttles commits but corrupts nothing.
#[test]
fn fsync_stall_preserves_consistency() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        name: "fsync_stall",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(
            Duration::from_millis(30),
            ChaosEvent::FsyncStall(Duration::from_millis(2)),
        )
        .then(Duration::from_millis(50), ChaosEvent::ClearFsyncStall)
        .run(&mut h, 50);
    assert!(h.report().committed > 0);
    h.shutdown();
}

/// Starving the garbage collector must not affect correctness — versions
/// pile up, the starved-cycle counter ticks, and once resumed GC catches
/// up with the workload's final state intact.
#[test]
fn gc_starvation_and_catchup() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        gc_interval: Some(Duration::from_millis(2)),
        name: "gc_starve",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(Duration::from_millis(20), ChaosEvent::StarveGc)
        .then(Duration::from_millis(60), ChaosEvent::ResumeGc)
        .run(&mut h, 50);
    let prom = h.db().metrics_prometheus();
    assert!(
        metric(&prom, "mb2_gc_cycles_starved_total") > 0.0,
        "the gc.cycle fault should have starved at least one pass"
    );
    // Let the resumed collector take a few passes before teardown.
    std::thread::sleep(Duration::from_millis(20));
    h.assert_consistent();
    h.shutdown();
}

/// Flipping execution knobs (batch size, morsel parallelism) mid-workload
/// changes plans and thread pools but never results.
#[test]
fn knob_flips_mid_workload() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        name: "knob_flips",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(
            Duration::from_millis(20),
            ChaosEvent::SetKnob(Knob::BatchSize, KnobValue::Count(1)),
        )
        .then(
            Duration::from_millis(20),
            ChaosEvent::SetKnob(Knob::Parallelism, KnobValue::Count(3)),
        )
        .then(
            Duration::from_millis(20),
            ChaosEvent::SetKnob(Knob::BatchSize, KnobValue::Count(256)),
        )
        .then(
            Duration::from_millis(20),
            ChaosEvent::SetKnob(Knob::Parallelism, KnobValue::Count(1)),
        )
        .run(&mut h, 40);
    assert!(h.report().committed > 0);
    h.shutdown();
}

/// A storm of injected connection tears (each request frame failing with
/// probability p) forces constant reconnects and commit-ack ambiguity; the
/// ledger-marker resolution plus replay oracle still proves zero loss.
#[test]
fn read_fault_storm_never_loses_commits() {
    let _serial = serial();
    let mut h = ChaosHarness::start(ChaosConfig {
        seed: seed(),
        name: "read_storm",
        ..ChaosConfig::default()
    });
    ChaosPlan::new()
        .then(Duration::from_millis(10), ChaosEvent::ReadFaultStorm(0.05))
        .then(Duration::from_millis(80), ChaosEvent::ClearReadFaults)
        .run(&mut h, 60);
    let report = h.report();
    assert!(report.committed > 0, "storm must not stop all progress");
    assert!(
        h.faults.fired(points::SERVER_READ) > 0,
        "the read fault should have torn at least one connection"
    );
    h.shutdown();
}
