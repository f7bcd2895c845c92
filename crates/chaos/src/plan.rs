//! Chaos plans: seeded, timed event sequences executed against a running
//! harness, with the zero-loss invariant asserted after every event.

use std::time::{Duration, Instant};

use mb2_common::fault::{points, FaultMode};
use mb2_engine::{Knob, KnobValue};

use crate::harness::ChaosHarness;

/// One chaos event. Events either reconfigure the fault injector, flip
/// engine knobs, or restart the stack outright.
#[derive(Debug, Clone)]
pub enum ChaosEvent {
    /// Crash the server and recover a replacement from the WAL on a new
    /// port (harness-driven restart-with-recovery).
    KillAndRecover,
    /// Persistent fsync failure: the next durable commit poisons the WAL
    /// and the engine degrades to read-only.
    PoisonWal,
    /// Stop failing fsync and wait for the supervisor to swap in a
    /// recovered engine (requires `ChaosConfig::supervisor`).
    HealWal {
        /// How long to wait for the epoch bump before declaring failure.
        timeout: Duration,
    },
    /// Stall every WAL fsync by this much (slow-disk emulation).
    FsyncStall(Duration),
    /// Clear the fsync stall.
    ClearFsyncStall,
    /// Starve the garbage collector: every GC cycle is skipped.
    StarveGc,
    /// Let the garbage collector run again.
    ResumeGc,
    /// Tear server connections: each request frame independently fails
    /// with this probability.
    ReadFaultStorm(f64),
    /// Stop tearing connections.
    ClearReadFaults,
    /// Flip an engine knob mid-workload (a parallelism change rebuilds the
    /// exec pool under live queries).
    SetKnob(Knob, KnobValue),
}

/// A timed sequence of events. For each event the harness runs a phase of
/// concurrent load, fires the event `after` the phase starts, joins the
/// phase, and asserts wire-vs-oracle consistency — so every event is
/// followed by a full zero-loss check.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    pub events: Vec<(Duration, ChaosEvent)>,
}

impl ChaosPlan {
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Append an event fired `after` the phase begins.
    pub fn then(mut self, after: Duration, event: ChaosEvent) -> ChaosPlan {
        self.events.push((after, event));
        self
    }

    /// Execute the plan: one load phase of `attempts_per_worker` per event,
    /// the event mid-phase, and a consistency check after each join.
    pub fn run(self, harness: &mut ChaosHarness, attempts_per_worker: usize) {
        for (after, event) in self.events {
            let phase = harness.start_phase(attempts_per_worker);
            std::thread::sleep(after);
            apply(harness, &event);
            harness.join_phase(phase);
            harness.assert_consistent();
        }
    }
}

fn apply(harness: &mut ChaosHarness, event: &ChaosEvent) {
    match event {
        ChaosEvent::KillAndRecover => {
            let report = harness.kill_and_recover();
            assert!(
                report.records_read > 0,
                "crash recovery should replay a non-empty log"
            );
        }
        ChaosEvent::PoisonWal => {
            harness.faults.arm(points::WAL_FSYNC, FaultMode::Always);
        }
        ChaosEvent::HealWal { timeout } => {
            harness.faults.disarm(points::WAL_FSYNC);
            // The supervisor may already have swapped (its replacement
            // engine carries no injector); wait until the serving engine is
            // writable again either way.
            let deadline = Instant::now() + *timeout;
            while harness.db().is_read_only() {
                assert!(
                    Instant::now() < deadline,
                    "supervisor did not recover within {timeout:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        ChaosEvent::FsyncStall(delay) => {
            harness.faults.arm_delay(points::WAL_FSYNC, *delay);
        }
        ChaosEvent::ClearFsyncStall => {
            harness.faults.disarm(points::WAL_FSYNC);
        }
        ChaosEvent::StarveGc => {
            harness.faults.arm(points::GC_CYCLE, FaultMode::Always);
        }
        ChaosEvent::ResumeGc => {
            harness.faults.disarm(points::GC_CYCLE);
        }
        ChaosEvent::ReadFaultStorm(p) => {
            harness
                .faults
                .arm(points::SERVER_READ, FaultMode::Probability(*p));
        }
        ChaosEvent::ClearReadFaults => {
            harness.faults.disarm(points::SERVER_READ);
        }
        ChaosEvent::SetKnob(knob, value) => {
            harness
                .db()
                .set_knob(*knob, *value)
                .expect("chaos plans pass each knob a value of its kind");
        }
    }
}
