//! The OU translator (paper §6.1): extract OUs + model features from query
//! and action plans. The same translator serves offline training-data
//! collection and runtime inference (Fig. 2 / Fig. 3).

use mb2_common::{OuKind, Prng};
use mb2_engine::Knobs;
use mb2_exec::subtree_size;
use mb2_sql::PlanNode;

use crate::features::OuInstance;

/// Translator configuration.
#[derive(Debug, Clone, Default)]
pub struct TranslatorConfig {
    /// Append the CPU frequency (GHz) to every OU's features (paper §8.6).
    pub include_hw_context: bool,
    /// Gaussian noise injected into the tuple-count and cardinality features
    /// as `(relative std-dev, seed)` — the paper's §8.5 robustness study.
    pub cardinality_noise: Option<(f64, u64)>,
}

/// Extracts OUs and features from plans.
#[derive(Default)]
pub struct OuTranslator {
    pub config: TranslatorConfig,
}

impl OuTranslator {
    pub fn new(config: TranslatorConfig) -> OuTranslator {
        OuTranslator { config }
    }

    /// Translate a plan into its OU instances, numbered identically to the
    /// executor (pre-order DFS).
    pub fn translate_plan(&self, plan: &PlanNode, knobs: &Knobs) -> Vec<OuInstance> {
        let mut out = Vec::new();
        self.walk(plan, 0, knobs, &mut out);
        if let Some((sigma, seed)) = self.config.cardinality_noise {
            let mut rng = Prng::new(seed);
            for inst in &mut out {
                if let Some(i) = crate::features::normalization_feature(inst.ou) {
                    inst.features[i] = (inst.features[i] * (1.0 + sigma * rng.gaussian())).max(1.0);
                }
                if let Some(i) = crate::features::cardinality_feature(inst.ou) {
                    inst.features[i] = (inst.features[i] * (1.0 + sigma * rng.gaussian())).max(1.0);
                }
            }
        }
        out
    }

    fn push(
        &self,
        out: &mut Vec<OuInstance>,
        node_id: u32,
        ou: OuKind,
        mut features: Vec<f64>,
        knobs: &Knobs,
    ) {
        // Behavior knobs are appended here, uniformly, so the per-node
        // `walk` arms only build the base (work-shape) features. Matches
        // the trailing knob names in `feature_names`.
        match ou {
            OuKind::SeqScan
            | OuKind::IdxScan
            | OuKind::JoinHashBuild
            | OuKind::JoinHashProbe
            | OuKind::AggBuild
            | OuKind::AggProbe
            | OuKind::SortBuild
            | OuKind::SortIter
            | OuKind::InsertTuple
            | OuKind::UpdateTuple
            | OuKind::DeleteTuple
            | OuKind::OutputResult
            | OuKind::BlockScan => {
                features.push(knobs.batch_size.max(1) as f64);
                features.push(knobs.parallelism.max(1) as f64);
                features.push(knobs.shard_count.max(1) as f64);
            }
            OuKind::ArithmeticFilter => {
                features.push(knobs.batch_size.max(1) as f64);
                features.push(knobs.parallelism.max(1) as f64);
            }
            _ => {}
        }
        debug_assert_eq!(features.len(), crate::features::feature_width(ou));
        if self.config.include_hw_context {
            features.push(knobs.hw.cpu_freq_ghz);
        }
        out.push(OuInstance {
            node_id,
            ou,
            features,
        });
    }

    fn walk(&self, node: &PlanNode, id: u32, knobs: &Knobs, out: &mut Vec<OuInstance>) {
        self.walk_inner(node, id, knobs, false, out);
    }

    /// `victim` marks the scan child of an UPDATE/DELETE: the executor runs
    /// those through the slot-tracking row path (it must hold the version
    /// chain to latch the victim), so they never take the block fast path
    /// and must not be priced with a Block/Scan OU.
    fn walk_inner(
        &self,
        node: &PlanNode,
        id: u32,
        knobs: &Knobs,
        victim: bool,
        out: &mut Vec<OuInstance>,
    ) {
        let mode = knobs.execution_mode.as_feature();
        match node {
            PlanNode::SeqScan { filter, est, .. } => {
                self.push(
                    out,
                    id,
                    OuKind::SeqScan,
                    vec![
                        est.rows_in,
                        est.n_cols as f64,
                        est.width,
                        est.rows_in,
                        0.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                if knobs.columnar_enabled && !victim {
                    // The block path sweeps the same tuples the row scan
                    // would; selectivity drives how much late
                    // materialization the survivors cost.
                    let selectivity = if est.rows_in > 0.0 {
                        (est.rows_out / est.rows_in).clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    self.push(
                        out,
                        id,
                        OuKind::BlockScan,
                        vec![est.rows_in, selectivity, est.n_cols as f64],
                        knobs,
                    );
                }
                if let Some(f) = filter {
                    self.push(
                        out,
                        id,
                        OuKind::ArithmeticFilter,
                        vec![est.rows_in, f.op_count() as f64, mode],
                        knobs,
                    );
                }
            }
            PlanNode::IndexScan {
                filter, est, range, ..
            } => {
                self.push(
                    out,
                    id,
                    OuKind::IdxScan,
                    vec![
                        est.rows_in,
                        est.n_cols as f64,
                        est.width,
                        est.rows_in.max(1.0),
                        range.lo.len() as f64,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                if let Some(f) = filter {
                    self.push(
                        out,
                        id,
                        OuKind::ArithmeticFilter,
                        vec![est.rows_in, f.op_count() as f64, mode],
                        knobs,
                    );
                }
            }
            PlanNode::HashJoin {
                build,
                probe,
                filter,
                est,
                build_keys,
                ..
            } => {
                let build_id = id + 1;
                let probe_id = id + 1 + subtree_size(build);
                self.walk_inner(build, build_id, knobs, false, out);
                self.walk_inner(probe, probe_id, knobs, false, out);
                let b = build.est();
                let p = probe.est();
                self.push(
                    out,
                    id,
                    OuKind::JoinHashBuild,
                    vec![
                        b.rows_out.max(1.0),
                        b.n_cols as f64,
                        b.width,
                        est.cardinality.max(1.0),
                        b.width + build_keys.len() as f64 * 16.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                self.push(
                    out,
                    id,
                    OuKind::JoinHashProbe,
                    vec![
                        p.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.rows_out.max(1.0),
                        est.width,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                if let Some(f) = filter {
                    self.push(
                        out,
                        id,
                        OuKind::ArithmeticFilter,
                        vec![est.rows_out.max(1.0), f.op_count() as f64, mode],
                        knobs,
                    );
                }
            }
            PlanNode::NestedLoopJoin {
                outer,
                inner,
                filter,
                ..
            } => {
                let outer_id = id + 1;
                let inner_id = id + 1 + subtree_size(outer);
                self.walk_inner(outer, outer_id, knobs, false, out);
                self.walk_inner(inner, inner_id, knobs, false, out);
                let pairs = outer.est().rows_out.max(1.0) * inner.est().rows_out.max(1.0);
                let ops = filter.as_ref().map_or(0, |f| f.op_count()) as f64;
                self.push(
                    out,
                    id,
                    OuKind::ArithmeticFilter,
                    vec![pairs, ops, mode],
                    knobs,
                );
            }
            PlanNode::Aggregate {
                input,
                group_by,
                aggs,
                est,
            } => {
                self.walk_inner(input, id + 1, knobs, false, out);
                let i = input.est();
                let payload = (group_by.len() + aggs.len()) as f64 * 16.0;
                self.push(
                    out,
                    id,
                    OuKind::AggBuild,
                    vec![
                        i.rows_out.max(1.0),
                        i.n_cols as f64,
                        i.width,
                        est.cardinality.max(1.0),
                        payload,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                self.push(
                    out,
                    id,
                    OuKind::AggProbe,
                    vec![
                        est.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.cardinality.max(1.0),
                        payload,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::Sort { input, keys, est } => {
                self.walk_inner(input, id + 1, knobs, false, out);
                let i = input.est();
                self.push(
                    out,
                    id,
                    OuKind::SortBuild,
                    vec![
                        i.rows_out.max(1.0),
                        i.n_cols as f64,
                        i.width,
                        est.cardinality.max(1.0),
                        keys.len() as f64 * 16.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
                self.push(
                    out,
                    id,
                    OuKind::SortIter,
                    vec![
                        est.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.cardinality.max(1.0),
                        keys.len() as f64 * 16.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::Filter {
                input,
                predicate,
                est,
            } => {
                self.walk_inner(input, id + 1, knobs, false, out);
                self.push(
                    out,
                    id,
                    OuKind::ArithmeticFilter,
                    vec![est.rows_in.max(1.0), predicate.op_count() as f64, mode],
                    knobs,
                );
            }
            PlanNode::Project { input, exprs, est } => {
                self.walk_inner(input, id + 1, knobs, false, out);
                let ops: usize = exprs.iter().map(|e| e.op_count()).sum();
                self.push(
                    out,
                    id,
                    OuKind::ArithmeticFilter,
                    vec![est.rows_in.max(1.0), ops.max(1) as f64, mode],
                    knobs,
                );
            }
            PlanNode::Limit { input, .. } => {
                self.walk_inner(input, id + 1, knobs, false, out);
            }
            PlanNode::Output { input, est, .. } => {
                self.walk_inner(input, id + 1, knobs, false, out);
                self.push(
                    out,
                    id,
                    OuKind::OutputResult,
                    vec![
                        est.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.rows_out.max(1.0),
                        0.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::Insert { est, .. } => {
                self.push(
                    out,
                    id,
                    OuKind::InsertTuple,
                    vec![
                        est.rows_in.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.rows_in.max(1.0),
                        0.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::Update {
                scan,
                est,
                assignments,
                ..
            } => {
                self.walk_inner(scan, id + 1, knobs, true, out);
                self.push(
                    out,
                    id,
                    OuKind::UpdateTuple,
                    vec![
                        est.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.rows_out.max(1.0),
                        assignments.len() as f64,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::Delete { scan, est, .. } => {
                self.walk_inner(scan, id + 1, knobs, true, out);
                self.push(
                    out,
                    id,
                    OuKind::DeleteTuple,
                    vec![
                        est.rows_out.max(1.0),
                        est.n_cols as f64,
                        est.width,
                        est.rows_out.max(1.0),
                        0.0,
                        0.0,
                        mode,
                    ],
                    knobs,
                );
            }
            PlanNode::CreateIndex {
                columns,
                threads,
                est,
                ..
            } => {
                self.push(
                    out,
                    id,
                    OuKind::IndexBuild,
                    vec![
                        est.rows_in.max(1.0),
                        columns.len() as f64,
                        est.width,
                        est.cardinality.max(1.0),
                        *threads as f64,
                    ],
                    knobs,
                );
            }
        }
    }

    // --------------------------------------------------------------
    // Non-plan OUs: features derived from forecast-level quantities.
    // --------------------------------------------------------------

    /// Log Record Serialize OU features for a batch of records.
    pub fn log_serialize_features(
        &self,
        total_bytes: f64,
        n_records: f64,
        knobs: &Knobs,
    ) -> OuInstance {
        let n_buffers = (total_bytes / mb2_engine::wal::LOG_BUFFER_CAPACITY as f64)
            .ceil()
            .max(1.0);
        let avg = if n_records > 0.0 {
            total_bytes / n_records
        } else {
            0.0
        };
        self.finish_util(
            OuKind::LogSerialize,
            vec![total_bytes, n_records, n_buffers, avg],
            knobs,
        )
    }

    /// Log Record Flush OU features for one forecast interval.
    pub fn log_flush_features(&self, total_bytes: f64, knobs: &Knobs) -> OuInstance {
        let n_buffers = (total_bytes / mb2_engine::wal::LOG_BUFFER_CAPACITY as f64)
            .ceil()
            .max(1.0);
        self.finish_util(
            OuKind::LogFlush,
            vec![
                total_bytes,
                n_buffers,
                knobs.wal_flush_interval.as_millis() as f64,
            ],
            knobs,
        )
    }

    /// Garbage Collection OU features.
    pub fn gc_features(
        &self,
        n_versions: f64,
        n_slots: f64,
        interval_ms: f64,
        knobs: &Knobs,
    ) -> OuInstance {
        self.finish_util(
            OuKind::GarbageCollection,
            vec![n_versions, n_slots, interval_ms],
            knobs,
        )
    }

    /// Compaction OU features: frozen tuples a pass would seal, blocks it
    /// would produce, and the cadence knob that sets how often it pays
    /// that cost.
    pub fn compaction_features(
        &self,
        n_sealed: f64,
        n_blocks: f64,
        interval_ms: f64,
        knobs: &Knobs,
    ) -> OuInstance {
        self.finish_util(
            OuKind::Compaction,
            vec![n_sealed, n_blocks, interval_ms],
            knobs,
        )
    }

    /// Transaction Begin / Commit OU features.
    pub fn txn_features(
        &self,
        ou: OuKind,
        arrival_rate: f64,
        active_txns: f64,
        knobs: &Knobs,
    ) -> OuInstance {
        debug_assert!(matches!(ou, OuKind::TxnBegin | OuKind::TxnCommit));
        self.finish_util(ou, vec![arrival_rate, active_txns], knobs)
    }

    /// Index Build OU features for an action outside a plan.
    pub fn index_build_features(
        &self,
        n_tuples: f64,
        n_key_cols: f64,
        key_size: f64,
        cardinality: f64,
        threads: f64,
        knobs: &Knobs,
    ) -> OuInstance {
        self.finish_util(
            OuKind::IndexBuild,
            vec![n_tuples, n_key_cols, key_size, cardinality, threads],
            knobs,
        )
    }

    fn finish_util(&self, ou: OuKind, mut features: Vec<f64>, knobs: &Knobs) -> OuInstance {
        // Commit-lock striping and the per-shard GC cadence scale with the
        // table shard count, so the txn and GC OUs carry it as a knob.
        if matches!(
            ou,
            OuKind::GarbageCollection | OuKind::TxnBegin | OuKind::TxnCommit | OuKind::Compaction
        ) {
            features.push(knobs.shard_count.max(1) as f64);
        }
        debug_assert_eq!(features.len(), crate::features::feature_width(ou));
        if self.config.include_hw_context {
            features.push(knobs.hw.cpu_freq_ghz);
        }
        OuInstance {
            node_id: 0,
            ou,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_engine::{Database, Knob, KnobValue};

    fn db_with_data() -> Database {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT, c FLOAT)")
            .unwrap();
        for i in 0..100 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {}, 1.5)", i % 10))
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        db
    }

    #[test]
    fn translation_matches_execution_ous() {
        // Every (node_id, OU) emitted by the translator must be measured by
        // the executor, and vice versa.
        use parking_lot::Mutex;
        struct Rec(Mutex<Vec<(u32, OuKind)>>);
        impl mb2_exec::OuRecorder for Rec {
            fn record(&self, id: u32, ou: OuKind, _: mb2_common::Metrics) {
                self.0.lock().push((id, ou));
            }
        }

        let db = db_with_data();
        let sqls = [
            "SELECT * FROM t WHERE a < 50",
            "SELECT b, COUNT(*), SUM(c) FROM t GROUP BY b ORDER BY b",
            "SELECT a + b * 2 FROM t ORDER BY a + b * 2 LIMIT 5",
            "INSERT INTO t VALUES (999, 9, 9.9)",
            "UPDATE t SET c = c + 1.0 WHERE a = 3",
            "DELETE FROM t WHERE a = 999",
        ];
        let translator = OuTranslator::default();
        for sql in sqls {
            let plan = db.prepare(sql).unwrap();
            let expected: Vec<(u32, OuKind)> = translator
                .translate_plan(&plan, &db.knobs())
                .into_iter()
                .map(|i| (i.node_id, i.ou))
                .collect();
            let rec = Rec(Mutex::new(Vec::new()));
            db.execute_plan(&plan, Some(&rec)).unwrap();
            let mut measured = rec.0.into_inner();
            let mut expected_sorted = expected.clone();
            expected_sorted.sort();
            measured.sort();
            assert_eq!(expected_sorted, measured, "OU mismatch for {sql}");
        }
    }

    #[test]
    fn columnar_translation_matches_execution_ous() {
        // With the columnar knob on, the translator must emit a Block/Scan
        // instance exactly where the executor opens one: every sequential
        // scan except the slot-tracking victim scans under UPDATE/DELETE.
        use parking_lot::Mutex;
        struct Rec(Mutex<Vec<(u32, OuKind)>>);
        impl mb2_exec::OuRecorder for Rec {
            fn record(&self, id: u32, ou: OuKind, _: mb2_common::Metrics) {
                self.0.lock().push((id, ou));
            }
        }

        let db = db_with_data();
        db.set_knob(Knob::ColumnarEnabled, true).unwrap();
        db.compact_now();
        let translator = OuTranslator::default();
        for sql in [
            "SELECT * FROM t WHERE a < 50",
            "SELECT b, COUNT(*), SUM(c) FROM t GROUP BY b ORDER BY b",
            "UPDATE t SET c = c + 1.0 WHERE a = 3",
            "DELETE FROM t WHERE a = 42",
        ] {
            let plan = db.prepare(sql).unwrap();
            let mut expected: Vec<(u32, OuKind)> = translator
                .translate_plan(&plan, &db.knobs())
                .into_iter()
                .map(|i| (i.node_id, i.ou))
                .collect();
            let has_block_scan = expected.iter().any(|(_, ou)| *ou == OuKind::BlockScan);
            assert_eq!(
                has_block_scan,
                sql.starts_with("SELECT"),
                "victim scans must not be priced as Block/Scan: {sql}"
            );
            let rec = Rec(Mutex::new(Vec::new()));
            db.execute_plan(&plan, Some(&rec)).unwrap();
            let mut measured = rec.0.into_inner();
            expected.sort();
            measured.sort();
            assert_eq!(expected, measured, "OU mismatch for {sql}");
        }
    }

    #[test]
    fn translated_tuple_features_match_measured_work() {
        // On an ANALYZEd table with exact-cardinality queries (no filters),
        // the translator's leading tuple-count feature must equal the tuple
        // work the batch executor actually accounts per (node, OU) — the
        // feature/label join the OU models train on.
        use parking_lot::Mutex;
        use std::collections::HashMap;
        struct Rec(Mutex<HashMap<(u32, OuKind), u64>>);
        impl mb2_exec::OuRecorder for Rec {
            fn record(&self, _: u32, _: OuKind, _: mb2_common::Metrics) {}
            fn record_work(&self, id: u32, ou: OuKind, w: mb2_exec::WorkCounts) {
                *self.0.lock().entry((id, ou)).or_insert(0) += w.tuples;
            }
        }

        let db = db_with_data();
        let translator = OuTranslator::default();
        for sql in [
            "SELECT * FROM t",
            "SELECT a FROM t ORDER BY a",
            "SELECT COUNT(*) FROM t",
        ] {
            let plan = db.prepare(sql).unwrap();
            let rec = Rec(Mutex::new(HashMap::new()));
            db.execute_plan(&plan, Some(&rec)).unwrap();
            let measured = rec.0.into_inner();
            for inst in translator.translate_plan(&plan, &db.knobs()) {
                let got = measured.get(&(inst.node_id, inst.ou)).copied().unwrap_or(0);
                assert_eq!(
                    got as f64, inst.features[0],
                    "tuple feature mismatch for {sql}, node {} {:?}",
                    inst.node_id, inst.ou
                );
            }
        }
    }

    #[test]
    fn feature_vectors_have_declared_width() {
        let db = db_with_data();
        let plan = db.prepare("SELECT b, COUNT(*) FROM t GROUP BY b").unwrap();
        for inst in OuTranslator::default().translate_plan(&plan, &db.knobs()) {
            assert_eq!(inst.features.len(), crate::features::feature_width(inst.ou));
        }
    }

    #[test]
    fn hw_context_appends_one_feature() {
        let db = db_with_data();
        let plan = db.prepare("SELECT * FROM t").unwrap();
        let translator = OuTranslator::new(TranslatorConfig {
            include_hw_context: true,
            cardinality_noise: None,
        });
        for inst in translator.translate_plan(&plan, &db.knobs()) {
            assert_eq!(
                inst.features.len(),
                crate::features::feature_width(inst.ou) + 1
            );
            assert_eq!(*inst.features.last().unwrap(), db.knobs().hw.cpu_freq_ghz);
        }
    }

    #[test]
    fn noise_perturbs_tuple_and_cardinality_features() {
        let db = db_with_data();
        let plan = db.prepare("SELECT b, COUNT(*) FROM t GROUP BY b").unwrap();
        let clean = OuTranslator::default().translate_plan(&plan, &db.knobs());
        let noisy = OuTranslator::new(TranslatorConfig {
            include_hw_context: false,
            cardinality_noise: Some((0.3, 42)),
        })
        .translate_plan(&plan, &db.knobs());
        let mut changed = 0;
        for (c, n) in clean.iter().zip(&noisy) {
            assert_eq!(c.ou, n.ou);
            if c.features != n.features {
                changed += 1;
            }
        }
        assert!(changed > 0, "noise must perturb at least one OU");
    }

    #[test]
    fn knob_features_track_knob_changes() {
        let db = db_with_data();
        let plan = db.prepare("SELECT * FROM t WHERE a < 50").unwrap();
        db.set_knob(Knob::BatchSize, KnobValue::Count(7)).unwrap();
        db.set_knob(Knob::Parallelism, KnobValue::Count(3)).unwrap();
        db.set_knob(Knob::ShardCount, KnobValue::Count(5)).unwrap();
        let t = OuTranslator::default();
        let knobs = db.knobs();
        let insts = t.translate_plan(&plan, &knobs);
        assert!(!insts.is_empty());
        for inst in &insts {
            let tail = &inst.features[inst.features.len().saturating_sub(3)..];
            match inst.ou {
                OuKind::SeqScan | OuKind::OutputResult => {
                    assert_eq!(tail, &[7.0, 3.0, 5.0], "{:?}", inst.ou);
                }
                OuKind::ArithmeticFilter => {
                    assert_eq!(&tail[1..], &[7.0, 3.0], "{:?}", inst.ou);
                }
                _ => {}
            }
        }
        assert_eq!(
            *t.txn_features(OuKind::TxnCommit, 1.0, 1.0, &knobs)
                .features
                .last()
                .unwrap(),
            5.0
        );
        assert_eq!(
            *t.gc_features(1.0, 1.0, 1.0, &knobs)
                .features
                .last()
                .unwrap(),
            5.0
        );
    }

    #[test]
    fn util_features_shapes() {
        let t = OuTranslator::default();
        let knobs = Knobs::default();
        assert_eq!(
            t.log_serialize_features(8192.0, 100.0, &knobs)
                .features
                .len(),
            4
        );
        assert_eq!(t.log_flush_features(8192.0, &knobs).features.len(), 3);
        assert_eq!(t.gc_features(10.0, 100.0, 5.0, &knobs).features.len(), 4);
        assert_eq!(
            t.txn_features(OuKind::TxnBegin, 100.0, 4.0, &knobs)
                .features
                .len(),
            3
        );
        assert_eq!(
            t.index_build_features(1000.0, 2.0, 16.0, 500.0, 4.0, &knobs)
                .features
                .len(),
            5
        );
        assert_eq!(
            t.compaction_features(512.0, 1.0, 100.0, &knobs)
                .features
                .len(),
            4
        );
    }
}
