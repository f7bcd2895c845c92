//! The runtime knob table (behavior knobs, paper §4.2; knob actions, §8.7).
//! Each knob is one [`KnobSpec`] row: how it is read, clamped and applied
//! live, how the planner prices a change, and how the autopilot steps it.
//! Six knobs are [`Knobs`] fields; the GC and compaction cadences live on
//! their background threads.

use std::fmt;
use std::time::Duration;

use mb2_common::{DbError, DbResult, OuKind};
use mb2_exec::ExecutionMode;

use crate::{Database, Knobs};

/// A runtime-tunable knob. Declaration order is table order, which is also
/// the order the autopilot enumerates knob candidates in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Knob {
    ExecutionMode,
    BatchSize,
    Parallelism,
    WalFlushInterval,
    GcInterval,
    ColumnarEnabled,
    CompactionInterval,
    ShardCount,
}

/// A knob setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobValue {
    Mode(ExecutionMode),
    Count(usize),
    Interval(Duration),
    Flag(bool),
}

/// How the self-driving planner prices a change to a knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// A query-plan OU feature: re-predict the forecast under new [`Knobs`].
    Plan,
    /// The cadence of a background thread whose passes this OU models:
    /// price the change in recurring background cost.
    Cadence(OuKind),
}

/// How the autopilot proposes changes from a knob's current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Never a pilot action.
    Fixed,
    /// Flip the flag or the execution mode.
    Toggle,
    /// Double (capped at `cap`) and halve, dropping steps below `floor` and
    /// steps equal to the current value. Bounds are in the value's unit: a
    /// count, or nanoseconds of an interval.
    Scale { floor: u64, cap: u64 },
}

/// One row of the knob table. The variant `get` returns is the knob's
/// value kind.
pub struct KnobSpec {
    /// The knob's name (its [`Knobs`] field name, where it has one).
    pub name: &'static str,
    /// Stable action label (the `action` value of `mb2_pilot_*` metrics).
    pub label: &'static str,
    /// Name used in action descriptions.
    pub title: &'static str,
    pub pricing: Pricing,
    pub step: Step,
    /// Whether the knob acts on this database at all (the pilot steps only
    /// live knobs).
    live: fn(&Database) -> bool,
    /// Read the value: from the snapshot for a [`Knobs`] field, else from
    /// the thread that owns it.
    get: fn(&Database, &Knobs) -> KnobValue,
    /// Store a value of the right kind into a snapshot, clamped (a no-op
    /// for knobs outside [`Knobs`]).
    put: fn(&mut Knobs, KnobValue),
    /// Live side effect, run after `put` stored the value.
    pub(crate) apply: fn(&Database, KnobValue),
}

/// One millisecond in [`Step::Scale`]'s interval unit (nanoseconds).
const MS: u64 = 1_000_000;
const NO_CAP: u64 = u64::MAX;

// One row per knob; `rustfmt::skip` keeps each row's rules together.
#[rustfmt::skip]
static KNOBS: [KnobSpec; 8] = [
    KnobSpec { name: "execution_mode", label: "set_execution_mode", title: "execution mode",
        pricing: Pricing::Plan, step: Step::Toggle, live: |_| true,
        get: |_, k| KnobValue::Mode(k.execution_mode), apply: |_, _| {},
        put: |k, v| if let KnobValue::Mode(m) = v { k.execution_mode = m } },
    KnobSpec { name: "batch_size", label: "set_batch_size", title: "batch size",
        pricing: Pricing::Plan, step: Step::Scale { floor: 1, cap: NO_CAP }, live: |_| true,
        get: |_, k| KnobValue::Count(k.batch_size), apply: |_, _| {},
        put: |k, v| if let KnobValue::Count(n) = v { k.batch_size = n.max(1) } },
    // The pilot caps parallelism steps at 8 workers. A change replaces the
    // exec pool; in-flight queries keep their `Arc` to the old one.
    KnobSpec { name: "parallelism", label: "set_parallelism", title: "parallelism",
        pricing: Pricing::Plan, step: Step::Scale { floor: 1, cap: 8 }, live: |_| true,
        get: |_, k| KnobValue::Count(k.parallelism), apply: |db, _| db.rebuild_pool(),
        put: |k, v| if let KnobValue::Count(n) = v { k.parallelism = n.max(1) } },
    KnobSpec { name: "wal_flush_interval", label: "set_wal_flush_interval",
        title: "WAL flush interval", pricing: Pricing::Cadence(OuKind::LogFlush),
        step: Step::Scale { floor: MS, cap: NO_CAP }, live: |db| db.wal().is_some(),
        get: |_, k| KnobValue::Interval(k.wal_flush_interval),
        put: |k, v| if let KnobValue::Interval(d) = v { k.wal_flush_interval = d },
        apply: |db, v| if let (Some(wal), KnobValue::Interval(d)) = (db.wal(), v) {
            wal.set_flush_interval(d) } },
    KnobSpec { name: "gc_interval", label: "set_gc_interval", title: "GC interval",
        pricing: Pricing::Cadence(OuKind::GarbageCollection),
        step: Step::Scale { floor: MS, cap: NO_CAP }, live: |_| true,
        get: |db, _| KnobValue::Interval(db.gc().interval()), put: |_, _| {},
        apply: |db, v| if let KnobValue::Interval(d) = v { db.gc().set_interval(d) } },
    KnobSpec { name: "columnar_enabled", label: "set_columnar_enabled", title: "columnar scans",
        pricing: Pricing::Plan, step: Step::Toggle, live: |_| true,
        get: |_, k| KnobValue::Flag(k.columnar_enabled), apply: |_, _| {},
        put: |k, v| if let KnobValue::Flag(on) = v { k.columnar_enabled = on } },
    KnobSpec { name: "compaction_interval", label: "set_compaction_interval",
        title: "compaction interval", pricing: Pricing::Cadence(OuKind::Compaction),
        step: Step::Scale { floor: MS, cap: NO_CAP }, live: |_| true,
        get: |db, _| KnobValue::Interval(db.compactor().interval()), put: |_, _| {},
        apply: |db, v| if let KnobValue::Interval(d) = v { db.compactor().set_interval(d) } },
    // Applies to tables created (or re-created by recovery) afterwards: a
    // table's shard map is fixed at creation. Not a pilot action.
    KnobSpec { name: "shard_count", label: "set_shard_count", title: "shard count",
        pricing: Pricing::Plan, step: Step::Fixed, live: |_| true,
        get: |_, k| KnobValue::Count(k.shard_count), apply: |_, _| {},
        put: |k, v| if let KnobValue::Count(n) = v { k.shard_count = n.max(1) } },
];

impl Knob {
    /// Every knob, in table order.
    #[rustfmt::skip]
    pub const ALL: [Knob; 8] = [
        Knob::ExecutionMode, Knob::BatchSize, Knob::Parallelism, Knob::WalFlushInterval,
        Knob::GcInterval, Knob::ColumnarEnabled, Knob::CompactionInterval, Knob::ShardCount,
    ];

    /// This knob's table row.
    pub fn spec(self) -> &'static KnobSpec {
        &KNOBS[self as usize]
    }

    /// The knob's value as of the `knobs` snapshot (a cadence kept outside
    /// [`Knobs`] is read live from `db`).
    pub fn read(self, db: &Database, knobs: &Knobs) -> KnobValue {
        (self.spec().get)(db, knobs)
    }

    /// A copy of `knobs` with this knob set to `value`, clamped (unchanged
    /// for knobs outside [`Knobs`]). Nothing live changes. Fails when
    /// `value` is not of the knob's kind.
    pub fn with(self, db: &Database, knobs: &Knobs, value: KnobValue) -> DbResult<Knobs> {
        let (spec, current) = (self.spec(), self.read(db, knobs));
        if std::mem::discriminant(&value) != std::mem::discriminant(&current) {
            return Err(DbError::Plan(format!(
                "knob {} takes values like {current:?}, got {value:?}",
                spec.name
            )));
        }
        let mut out = *knobs;
        (spec.put)(&mut out, value);
        Ok(out)
    }

    /// The autopilot's candidate settings from the knob's current value,
    /// per its [`Step`] rule (upward step first).
    pub fn steps(self, db: &Database) -> Vec<KnobValue> {
        let spec = self.spec();
        if !(spec.live)(db) {
            return Vec::new();
        }
        let scale = |cur: u64, floor: u64, cap: u64| {
            [cur.saturating_mul(2).min(cap), cur / 2]
                .into_iter()
                .filter(move |&m| m >= floor && m != cur)
        };
        match (spec.step, db.knob(self)) {
            (Step::Toggle, KnobValue::Flag(on)) => vec![KnobValue::Flag(!on)],
            (Step::Toggle, KnobValue::Mode(ExecutionMode::Compiled)) => {
                vec![KnobValue::Mode(ExecutionMode::Interpret)]
            }
            (Step::Toggle, KnobValue::Mode(ExecutionMode::Interpret)) => {
                vec![KnobValue::Mode(ExecutionMode::Compiled)]
            }
            (Step::Scale { floor, cap }, KnobValue::Count(n)) => scale(n as u64, floor, cap)
                .map(|m| KnobValue::Count(m as usize))
                .collect(),
            (Step::Scale { floor, cap }, KnobValue::Interval(d)) => {
                scale(d.as_nanos() as u64, floor, cap)
                    .map(|m| KnobValue::Interval(Duration::from_nanos(m)))
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

// `db.set_knob(Knob::BatchSize, n)` instead of spelling out the variant.
macro_rules! knob_value_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for KnobValue {
            fn from(v: $ty) -> Self {
                KnobValue::$variant(v)
            }
        }
    )*};
}
knob_value_from!(ExecutionMode => Mode, usize => Count, Duration => Interval, bool => Flag);

impl fmt::Display for KnobValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnobValue::Mode(m) => write!(f, "{m:?}"),
            KnobValue::Count(n) => write!(f, "{n}"),
            KnobValue::Interval(d) => write!(f, "{d:?}"),
            KnobValue::Flag(on) => write!(f, "{on}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatabaseConfig;

    #[test]
    fn table_rows_follow_declaration_order() {
        for (i, knob) in Knob::ALL.into_iter().enumerate() {
            assert_eq!(knob as usize, i);
            assert!(knob.spec().label.ends_with(knob.spec().name));
        }
    }

    #[test]
    fn set_knob_clamps_and_rejects_wrong_kinds() {
        let db = Database::open();
        for knob in [Knob::BatchSize, Knob::Parallelism, Knob::ShardCount] {
            db.set_knob(knob, KnobValue::Count(0)).unwrap();
            assert_eq!(db.knob(knob), KnobValue::Count(1), "{knob:?}");
        }
        assert!(db.set_knob(Knob::BatchSize, true).is_err());
        assert!(Knob::GcInterval
            .with(&db, &db.knobs(), KnobValue::Count(3))
            .is_err());
        assert_eq!(db.knob(Knob::BatchSize), KnobValue::Count(1));
    }

    #[test]
    fn cadence_knobs_retune_their_threads() {
        let db = Database::new(DatabaseConfig {
            gc_interval: Some(Duration::from_millis(50)),
            compaction_interval: Some(Duration::from_millis(50)),
            ..DatabaseConfig::default()
        })
        .unwrap();
        let d = Duration::from_millis(7);
        for knob in [
            Knob::WalFlushInterval,
            Knob::GcInterval,
            Knob::CompactionInterval,
        ] {
            db.set_knob(knob, KnobValue::Interval(d)).unwrap();
            assert_eq!(db.knob(knob), KnobValue::Interval(d), "{knob:?}");
        }
        assert_eq!(db.wal().unwrap().flush_interval(), d);
        assert_eq!(db.knobs().wal_flush_interval, d);
        db.shutdown();
    }

    #[test]
    fn steps_follow_the_table_rules() {
        let db = Database::open();
        db.set_knob(Knob::Parallelism, KnobValue::Count(8)).unwrap();
        assert_eq!(
            Knob::Parallelism.steps(&db),
            vec![KnobValue::Count(4)],
            "capped at 8"
        );
        db.set_knob(Knob::BatchSize, KnobValue::Count(1)).unwrap();
        assert_eq!(Knob::BatchSize.steps(&db), vec![KnobValue::Count(2)]);
        db.set_knob(Knob::WalFlushInterval, Duration::from_millis(1))
            .unwrap();
        assert_eq!(
            Knob::WalFlushInterval.steps(&db),
            vec![KnobValue::Interval(Duration::from_millis(2))],
            "floored at 1ms"
        );
        // Background GC never started: no cadence to step.
        assert!(Knob::GcInterval.steps(&db).is_empty());
        assert!(Knob::ShardCount.steps(&db).is_empty());
        assert_eq!(
            Knob::ColumnarEnabled.steps(&db),
            vec![KnobValue::Flag(true)]
        );
    }
}
