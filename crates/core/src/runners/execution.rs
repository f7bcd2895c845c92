//! OU-runners for the execution-engine OUs (paper §6.2).
//!
//! Each runner is a specialized SQL microbenchmark sweeping one OU's input
//! space: row counts with exponential steps, selectivities, group-key
//! cardinalities, join build sizes, expression sizes, and both execution
//! modes. Thanks to the §4.3 label normalization the sweep only needs to
//! reach the convergence point (paper: <1M tuples; default here 16k so the
//! full pipeline runs in CI time — configurable upward).

use mb2_common::{DbResult, HardwareProfile, Prng};
use mb2_engine::{Database, DatabaseConfig, Knob};
use mb2_exec::ExecutionMode;

use crate::collect::TrainingRepo;
use crate::runners::{exponential_steps, measure_plan, RunnerConfig};
use crate::translate::{OuTranslator, TranslatorConfig};

/// Sweep configuration for the execution runners.
#[derive(Debug, Clone)]
pub struct ExecutionRunnerConfig {
    /// Largest table size to exercise (convergence point).
    pub max_rows: usize,
    /// Smallest table size.
    pub min_rows: usize,
    pub modes: Vec<ExecutionMode>,
    pub measure: RunnerConfig,
    /// Translator configuration (e.g. hardware-context features for §8.6).
    pub translator: TranslatorConfig,
    /// Emulated hardware profile for the runner database.
    pub hw: HardwareProfile,
    /// Fig. 9a software-update emulation knob.
    pub jht_sleep_every: usize,
    /// Batch-size knob values to sweep (each is a full query sweep).
    pub batch_sizes: Vec<usize>,
    /// Parallelism knob values to sweep.
    pub parallelism: Vec<usize>,
    /// Columnar-scan knob values to sweep. Flipping the knob on compacts
    /// the dataset first, so Block/Scan samples see sealed blocks.
    pub columnar: Vec<bool>,
}

impl Default for ExecutionRunnerConfig {
    fn default() -> Self {
        ExecutionRunnerConfig {
            max_rows: 16_384,
            min_rows: 64,
            modes: vec![ExecutionMode::Interpret, ExecutionMode::Compiled],
            measure: RunnerConfig::default(),
            translator: TranslatorConfig::default(),
            hw: HardwareProfile::default(),
            jht_sleep_every: 0,
            // Tuple-at-a-time vs. vectorized, serial vs. 4-way parallel:
            // the knob corners the batch/parallelism OU features train on.
            batch_sizes: vec![1, mb2_exec::DEFAULT_BATCH_SIZE],
            parallelism: vec![1, 4],
            columnar: vec![false, true],
        }
    }
}

impl ExecutionRunnerConfig {
    /// A fast configuration for tests.
    pub fn smoke() -> ExecutionRunnerConfig {
        ExecutionRunnerConfig {
            max_rows: 256,
            min_rows: 64,
            modes: vec![ExecutionMode::Compiled],
            measure: RunnerConfig {
                repetitions: 3,
                warmups: 1,
                ..RunnerConfig::default()
            },
            batch_sizes: vec![mb2_exec::DEFAULT_BATCH_SIZE],
            parallelism: vec![1],
            columnar: vec![false],
            ..ExecutionRunnerConfig::default()
        }
    }
}

/// Run every execution-OU runner, returning the collected training data.
pub fn run_execution_runners(cfg: &ExecutionRunnerConfig) -> DbResult<TrainingRepo> {
    let mut repo = TrainingRepo::new();
    let translator = OuTranslator::new(cfg.translator.clone());
    for &rows in &exponential_steps(cfg.min_rows, cfg.max_rows) {
        let db = build_dataset(rows, cfg.measure.seed)?;
        db.set_hw(cfg.hw);
        db.set_jht_sleep_every(cfg.jht_sleep_every);
        for &mode in &cfg.modes {
            db.set_knob(Knob::ExecutionMode, mode)?;
            for &batch in &cfg.batch_sizes {
                db.set_knob(Knob::BatchSize, batch)?;
                for &workers in &cfg.parallelism {
                    db.set_knob(Knob::Parallelism, workers)?;
                    for &columnar in &cfg.columnar {
                        db.set_knob(Knob::ColumnarEnabled, columnar)?;
                        if columnar {
                            // Seal frozen units so block scans have blocks
                            // to serve (DML in the sweep dirties some; the
                            // next pass re-seals them).
                            db.compact_now();
                        }
                        sweep_queries(&db, rows, &translator, cfg, &mut repo)?;
                    }
                    db.set_knob(Knob::ColumnarEnabled, false)?;
                }
            }
        }
    }
    Ok(repo)
}

/// Join-only sweep — the restricted retraining path used when a software
/// update touches only the join hash table (paper §8.5 / Fig. 9a).
pub fn run_join_runner(cfg: &ExecutionRunnerConfig) -> DbResult<TrainingRepo> {
    let mut repo = TrainingRepo::new();
    let translator = OuTranslator::new(cfg.translator.clone());
    for &rows in &exponential_steps(cfg.min_rows, cfg.max_rows) {
        let db = build_dataset(rows, cfg.measure.seed)?;
        db.set_hw(cfg.hw);
        db.set_jht_sleep_every(cfg.jht_sleep_every);
        for &mode in &cfg.modes {
            db.set_knob(Knob::ExecutionMode, mode)?;
            for &batch in &cfg.batch_sizes {
                db.set_knob(Knob::BatchSize, batch)?;
                for &workers in &cfg.parallelism {
                    db.set_knob(Knob::Parallelism, workers)?;
                    for sql in [
                        "SELECT * FROM ou_r1, ou_r2 WHERE ou_r1.jk = ou_r2.k",
                        "SELECT * FROM ou_r1, ou_r2 WHERE ou_r1.jk = ou_r2.k AND ou_r2.w > 100.0",
                    ] {
                        let plan = db.prepare(sql)?;
                        repo.add_all(measure_plan(&db, &plan, &translator, &cfg.measure, false)?);
                    }
                }
            }
        }
    }
    Ok(repo)
}

/// Create and populate the runner tables: `ou_r1` (probe/base table with
/// group columns of three cardinalities and a join key) and `ou_r2` (join
/// build side).
fn build_dataset(rows: usize, seed: u64) -> DbResult<Database> {
    let db = Database::new(DatabaseConfig::bench())?;
    db.execute("CREATE TABLE ou_r1 (k INT, g1 INT, g2 INT, jk INT, v FLOAT, pad VARCHAR(32))")?;
    db.execute("CREATE TABLE ou_r2 (k INT, w FLOAT, pad VARCHAR(16))")?;
    let mut rng = Prng::new(seed);
    let g1_card = (rows / 64).max(2);
    let g2_card = (rows / 8).max(4);
    let build_rows = (rows / 8).max(8);
    insert_batch(&db, "ou_r1", rows, |i| {
        format!(
            "({i}, {}, {}, {}, {}.25, '{}')",
            i % g1_card,
            i % g2_card,
            i % build_rows,
            i * 3,
            rng_pad(&mut rng, 8)
        )
    })?;
    insert_batch(&db, "ou_r2", build_rows, |i| {
        format!("({i}, {}.5, '{}')", i * 7, rng_pad(&mut rng, 4))
    })?;
    // Secondary index for the index-scan runner (also yields an IndexBuild
    // sample as a side effect via the util runner; here it is unmeasured).
    db.execute("CREATE INDEX ou_r1_k ON ou_r1 (k)")?;
    db.execute("ANALYZE ou_r1")?;
    db.execute("ANALYZE ou_r2")?;
    Ok(db)
}

fn rng_pad(rng: &mut Prng, len: usize) -> String {
    rng.string(len)
}

fn insert_batch(
    db: &Database,
    table: &str,
    rows: usize,
    mut gen: impl FnMut(usize) -> String,
) -> DbResult<()> {
    const BATCH: usize = 500;
    let mut i = 0;
    while i < rows {
        let end = (i + BATCH).min(rows);
        let values: Vec<String> = (i..end).map(&mut gen).collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", values.join(", ")))?;
        i = end;
    }
    Ok(())
}

/// The per-mode query sweep.
fn sweep_queries(
    db: &Database,
    rows: usize,
    translator: &OuTranslator,
    cfg: &ExecutionRunnerConfig,
    repo: &mut TrainingRepo,
) -> DbResult<()> {
    let measure = &cfg.measure;
    let mut run = |sql: &str, mutating: bool| -> DbResult<()> {
        let plan = db.prepare(sql)?;
        let samples = measure_plan(db, &plan, translator, measure, mutating)?;
        repo.add_all(samples);
        Ok(())
    };

    // Sequential scan + filter + output, at three selectivities.
    for frac in [0usize, 2, 10] {
        let bound = rows.checked_div(frac).map_or(0, |d| rows - d);
        run(&format!("SELECT * FROM ou_r1 WHERE k >= {bound}"), false)?;
    }
    // Arithmetic-heavy projections (two expression sizes).
    run("SELECT k + 1 FROM ou_r1", false)?;
    run(
        "SELECT k * 2 + g1 * g2 - 7, v / 2.0 + 1.0 FROM ou_r1",
        false,
    )?;

    // Index scans: point lookups and short prefix ranges.
    run(
        &format!("SELECT * FROM ou_r1 WHERE k = {}", rows / 2),
        false,
    )?;
    run(
        &format!("SELECT * FROM ou_r1 WHERE k = {} AND g1 >= 0", rows / 3),
        false,
    )?;

    // Aggregations at three key cardinalities.
    for g in ["g1", "g2", "k"] {
        run(
            &format!("SELECT {g}, COUNT(*), SUM(v) FROM ou_r1 GROUP BY {g}"),
            false,
        )?;
    }

    // Sorts: high- and low-cardinality keys, plus a composite key.
    run("SELECT * FROM ou_r1 ORDER BY k", false)?;
    run("SELECT * FROM ou_r1 ORDER BY g1", false)?;
    run("SELECT * FROM ou_r1 ORDER BY g1, g2 DESC", false)?;

    // Hash joins (build side is the smaller ou_r2), varying build-side
    // selectivity and probe-side selectivity so probe fan-out and output
    // volume cover a range.
    run("SELECT * FROM ou_r1, ou_r2 WHERE ou_r1.jk = ou_r2.k", false)?;
    run(
        "SELECT * FROM ou_r1, ou_r2 WHERE ou_r1.jk = ou_r2.k AND ou_r2.w > 100.0",
        false,
    )?;
    run(
        &format!(
            "SELECT * FROM ou_r1, ou_r2 WHERE ou_r1.jk = ou_r2.k AND ou_r1.k < {}",
            rows / 4
        ),
        false,
    )?;
    run(
        "SELECT ou_r1.k + ou_r2.k FROM ou_r1, ou_r2 \
         WHERE ou_r1.jk = ou_r2.k AND ou_r1.v > 2.0 AND ou_r2.w > 50.0",
        false,
    )?;

    // DML (rolled back by the measurement harness).
    let multi: Vec<String> = (0..32)
        .map(|i| format!("({}, 0, 0, 0, 0.5, 'zz')", rows + i))
        .collect();
    run(
        &format!("INSERT INTO ou_r1 VALUES {}", multi.join(", ")),
        true,
    )?;
    run(
        &format!("UPDATE ou_r1 SET v = v + 1.0 WHERE k < {}", rows / 4),
        true,
    )?;
    run(&format!("DELETE FROM ou_r1 WHERE k < {}", rows / 8), true)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::OuKind;

    #[test]
    fn smoke_sweep_covers_all_execution_ous() {
        let repo = run_execution_runners(&ExecutionRunnerConfig::smoke()).unwrap();
        for ou in [
            OuKind::SeqScan,
            OuKind::IdxScan,
            OuKind::JoinHashBuild,
            OuKind::JoinHashProbe,
            OuKind::AggBuild,
            OuKind::AggProbe,
            OuKind::SortBuild,
            OuKind::SortIter,
            OuKind::InsertTuple,
            OuKind::UpdateTuple,
            OuKind::DeleteTuple,
            OuKind::ArithmeticFilter,
            OuKind::OutputResult,
        ] {
            assert!(repo.count(ou) > 0, "no samples for {ou}");
        }
    }

    #[test]
    fn sweep_varies_batch_and_parallelism_features() {
        let cfg = ExecutionRunnerConfig {
            max_rows: 64,
            min_rows: 64,
            modes: vec![ExecutionMode::Compiled],
            measure: RunnerConfig {
                repetitions: 1,
                warmups: 0,
                ..RunnerConfig::default()
            },
            batch_sizes: vec![1, 1024],
            parallelism: vec![1, 2],
            ..ExecutionRunnerConfig::default()
        };
        let repo = run_execution_runners(&cfg).unwrap();
        // SeqScan features end in [batch_size, parallelism, shard_count];
        // the sweep must produce both corners of each knob.
        let mut batches = std::collections::BTreeSet::new();
        let mut workers = std::collections::BTreeSet::new();
        for s in repo.samples(OuKind::SeqScan) {
            let n = s.features.len();
            batches.insert(s.features[n - 3] as u64);
            workers.insert(s.features[n - 2] as u64);
        }
        assert_eq!(batches.into_iter().collect::<Vec<_>>(), vec![1, 1024]);
        assert_eq!(workers.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn columnar_sweep_produces_block_scan_samples() {
        let cfg = ExecutionRunnerConfig {
            max_rows: 1024,
            min_rows: 1024,
            modes: vec![ExecutionMode::Compiled],
            measure: RunnerConfig {
                repetitions: 1,
                warmups: 0,
                ..RunnerConfig::default()
            },
            batch_sizes: vec![mb2_exec::DEFAULT_BATCH_SIZE],
            parallelism: vec![1],
            columnar: vec![false, true],
            ..ExecutionRunnerConfig::default()
        };
        let repo = run_execution_runners(&cfg).unwrap();
        let samples = repo.samples(OuKind::BlockScan);
        assert!(!samples.is_empty(), "columnar sweep must price Block/Scan");
        // Feature shape: [n_tuples, selectivity, n_cols, batch, par, shards].
        for s in samples {
            assert_eq!(s.features.len(), 6);
            assert!((0.0..=1.0).contains(&s.features[1]), "{:?}", s.features);
        }
        // The off-corner must not emit Block/Scan instances.
        let off = run_execution_runners(&ExecutionRunnerConfig {
            columnar: vec![false],
            ..cfg
        })
        .unwrap();
        assert_eq!(off.count(OuKind::BlockScan), 0);
    }

    #[test]
    fn sweep_varies_tuple_counts() {
        let cfg = ExecutionRunnerConfig {
            max_rows: 256,
            min_rows: 64,
            modes: vec![ExecutionMode::Compiled],
            measure: RunnerConfig {
                repetitions: 2,
                warmups: 0,
                ..RunnerConfig::default()
            },
            ..ExecutionRunnerConfig::default()
        };
        let repo = run_execution_runners(&cfg).unwrap();
        let tuples: std::collections::BTreeSet<u64> = repo
            .samples(OuKind::SeqScan)
            .iter()
            .map(|s| s.features[0] as u64)
            .collect();
        assert!(tuples.len() >= 2, "row-count sweep missing: {tuples:?}");
    }
}
