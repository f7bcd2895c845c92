//! The `Database` facade.

use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use mb2_catalog::Catalog;
use mb2_common::{Column, DbError, DbResult, FaultInjector, Schema};
use mb2_exec::{
    collect, execute_batched, Batch, ExecContext, ExecPool, ObsRecorder, OuRecorder, QueryResult,
    DEFAULT_MORSEL_SLOTS,
};
use mb2_index::IndexObs;
use mb2_obs::MetricsRegistry;
use mb2_sql::{parse, PlanNode, Planner, PlannerOverrides, Statement};
use mb2_txn::{Compactor, GarbageCollector, Transaction, TxnManager};
use mb2_wal::{LogManager, LogManagerConfig, LogRecord, LoggedColumn};

use crate::config::{DatabaseConfig, Knobs};
use crate::health::{DegradedReason, HealthState, HealthTracker};
use crate::knob::{Knob, KnobValue};
use crate::metrics::{classify, EngineMetrics, StatementKind};
use crate::session::Session;
use crate::tasks::{BackgroundTask, StatementTap};

/// An embedded in-memory DBMS instance.
pub struct Database {
    catalog: Catalog,
    txns: Arc<TxnManager>,
    gc: Arc<GarbageCollector>,
    compactor: Arc<Compactor>,
    wal: Option<Arc<LogManager>>,
    knobs: RwLock<Knobs>,
    /// Shared morsel-execution worker pool; `None` while `knobs.parallelism`
    /// is 1 (serial execution never touches the pool).
    pool: RwLock<Option<Arc<ExecPool>>>,
    metrics: Arc<MetricsRegistry>,
    engine_metrics: EngineMetrics,
    obs_recorder: Arc<ObsRecorder>,
    index_obs: Arc<IndexObs>,
    /// Fault injection shared by every subsystem (and attached to tables as
    /// they are created); `None` in production.
    faults: Option<Arc<FaultInjector>>,
    health: HealthTracker,
    /// Upper-layer background components (the autopilot) quiesced by
    /// [`Database::shutdown`] before the engine's own subsystems. Weak so
    /// registration never keeps a task alive.
    background_tasks: Mutex<Vec<Weak<dyn BackgroundTask>>>,
    /// Observer of every DML/SELECT statement (workload forecasting).
    statement_tap: RwLock<Option<Arc<dyn StatementTap>>>,
    /// Plans keyed by SQL text for [`Database::prepare_cached`] — the
    /// paper's cached-query-plan assumption (§3) made concrete so the
    /// server's admission path can price a statement without re-planning
    /// it on every arrival. Invalidated wholesale by any DDL.
    plan_cache: Mutex<std::collections::HashMap<String, Arc<PlanNode>>>,
}

/// Cap on distinct SQL texts held by the plan cache; the whole cache is
/// dropped at the cap (ad-hoc one-off texts cannot grow it unboundedly,
/// and hot templates repopulate within one round).
const PLAN_CACHE_CAP: usize = 1024;

impl Database {
    pub fn new(config: DatabaseConfig) -> DbResult<Database> {
        let metrics = config
            .metrics
            .clone()
            .unwrap_or_else(MetricsRegistry::shared);
        metrics.set_enabled(config.metrics_enabled);
        let wal = if config.wal_enabled {
            Some(Arc::new(LogManager::new(LogManagerConfig {
                path: config.wal_path.clone(),
                flush_interval: config.knobs.wal_flush_interval,
                background: config.wal_background,
                fsync: config.wal_fsync,
                sync_commit: config.wal_sync_commit,
                max_flush_retries: config.wal_flush_retries,
                retry_backoff: config.wal_retry_backoff,
                faults: config.faults.clone(),
                metrics: Some(metrics.clone()),
            })?))
        } else {
            None
        };
        let txns = TxnManager::with_metrics(wal.clone(), &metrics);
        txns.set_faults(config.faults.clone());
        let gc = GarbageCollector::with_metrics(txns.clone(), &metrics);
        gc.set_faults(config.faults.clone());
        if let Some(interval) = config.gc_interval {
            gc.start_background(interval);
        }
        let compactor = Compactor::with_metrics(txns.clone(), &metrics);
        if let Some(interval) = config.compaction_interval {
            compactor.start_background(interval);
        }
        let db = Database {
            catalog: Catalog::new(),
            txns,
            gc,
            compactor,
            wal,
            knobs: RwLock::new(config.knobs),
            pool: RwLock::new(None),
            engine_metrics: EngineMetrics::new(&metrics),
            obs_recorder: ObsRecorder::new(&metrics),
            index_obs: IndexObs::new(&metrics),
            faults: config.faults,
            health: HealthTracker::new(&metrics),
            metrics,
            background_tasks: Mutex::new(Vec::new()),
            statement_tap: RwLock::new(None),
            plan_cache: Mutex::new(std::collections::HashMap::new()),
        };
        db.rebuild_pool();
        Ok(db)
    }

    /// Open with default configuration.
    pub fn open() -> Database {
        Database::new(DatabaseConfig::default()).expect("default config cannot fail")
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    pub fn gc(&self) -> &Arc<GarbageCollector> {
        &self.gc
    }

    /// The columnar compactor sealing frozen shard units into blocks.
    pub fn compactor(&self) -> &Arc<Compactor> {
        &self.compactor
    }

    /// Run one synchronous compaction pass across every table (tests and
    /// operator tooling; the background thread calls the same entry point).
    pub fn compact_now(&self) -> mb2_txn::CompactionReport {
        self.compactor.run_once()
    }

    pub fn wal(&self) -> Option<&Arc<LogManager>> {
        self.wal.as_ref()
    }

    /// The registry every subsystem of this database publishes into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Render all metrics in the Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// Render all metrics as a JSON snapshot.
    pub fn metrics_json(&self) -> String {
        self.metrics.json_snapshot()
    }

    /// Flip the registry's enable switch ("turn off the tracker"): `false`
    /// stops span clock reads; counters and histogram handles stay live.
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.metrics.set_enabled(enabled);
    }

    /// An [`OuRecorder`] that folds per-OU measurements into this database's
    /// registry. Pass it to `execute_recorded` to populate the
    /// `mb2_ou_elapsed_us{ou=...}` runtime histograms.
    pub fn obs_recorder(&self) -> &Arc<ObsRecorder> {
        &self.obs_recorder
    }

    /// Latch/build instrumentation shared by every index this database
    /// creates.
    pub fn index_obs(&self) -> &Arc<IndexObs> {
        &self.index_obs
    }

    pub fn knobs(&self) -> Knobs {
        *self.knobs.read()
    }

    /// A knob's current value (see [`Knob`] for the table of knobs).
    pub fn knob(&self, knob: Knob) -> KnobValue {
        knob.read(self, &self.knobs())
    }

    /// Set a knob at runtime: the value is clamped and its live side
    /// effect applied as the knob's table row says. Fails, changing
    /// nothing, when `value` is not of the knob's kind.
    pub fn set_knob(&self, knob: Knob, value: impl Into<KnobValue>) -> DbResult<()> {
        let value = value.into();
        {
            let mut knobs = self.knobs.write();
            *knobs = knob.with(self, &knobs, value)?;
        }
        (knob.spec().apply)(self, value);
        Ok(())
    }

    pub fn set_hw(&self, hw: mb2_common::HardwareProfile) {
        self.knobs.write().hw = hw;
    }

    pub fn set_jht_sleep_every(&self, n: usize) {
        self.knobs.write().jht_sleep_every = n;
    }

    /// Register a background component (e.g. the autopilot) to be
    /// quiesced by [`Database::shutdown`] *before* the exec pool, GC, and
    /// WAL flusher are torn down. Held weakly: a dropped task is skipped.
    pub fn register_background_task(&self, task: Weak<dyn BackgroundTask>) {
        self.background_tasks.lock().push(task);
    }

    /// Install (or clear) the statement tap consulted on every successful
    /// DML/SELECT parse. See [`StatementTap`].
    pub fn set_statement_tap(&self, tap: Option<Arc<dyn StatementTap>>) {
        *self.statement_tap.write() = tap;
    }

    /// Report a DML/SELECT statement to the installed tap, if any. Cheap
    /// when no tap is installed (one read-lock acquisition).
    fn tap_statement(&self, sql: &str) {
        if let Some(tap) = self.statement_tap.read().as_ref() {
            tap.observe(sql);
        }
    }

    /// Replace the exec pool with one sized to `knobs.parallelism`,
    /// joining the old pool's workers once in-flight queries release it.
    pub(crate) fn rebuild_pool(&self) {
        let n = self.knobs().parallelism;
        *self.pool.write() = (n > 1).then(|| ExecPool::with_metrics(n, &self.metrics));
    }

    /// Per-shard storage statistics for every table, sorted by table name:
    /// `(table name, ShardStats)` rows. Feeds `SHOW SHARDS` and the
    /// per-shard storage gauges.
    pub fn shard_status(&self) -> Vec<(String, mb2_storage::ShardStats)> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                for stats in entry.table.shard_stats() {
                    out.push((name.clone(), stats));
                }
            }
        }
        out
    }

    /// Per-shard columnar block statistics for every table, sorted by table
    /// name: `(table name, BlockShardStats)` rows. Feeds `SHOW BLOCKS` and
    /// the per-shard block gauges.
    pub fn block_status(&self) -> Vec<(String, mb2_storage::BlockShardStats)> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                for stats in entry.table.block_stats() {
                    out.push((name.clone(), stats));
                }
            }
        }
        out
    }

    /// The shared morsel-execution pool, if parallelism is enabled.
    pub fn exec_pool(&self) -> Option<Arc<ExecPool>> {
        self.pool.read().clone()
    }

    /// Whether the WAL has latched into the read-only (poisoned) state.
    pub fn is_read_only(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.is_poisoned())
    }

    /// The fault injector threaded through this database's subsystems.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Probe and return the engine's health. A poisoned WAL observed while
    /// the tracker still says healthy transitions it to degraded
    /// (read-only); the supervisor drives the recovering/healthy
    /// transitions via [`Database::set_health`].
    pub fn health(&self) -> HealthState {
        let state = self.health.state();
        if state == HealthState::Healthy && self.is_read_only() {
            let degraded = HealthState::Degraded(DegradedReason::WalPoisoned);
            self.health.set(degraded);
            return degraded;
        }
        state
    }

    /// Set the health state directly (supervisor transitions).
    pub fn set_health(&self, state: HealthState) {
        self.health.set(state);
    }

    /// Fail with [`DbError::WalUnavailable`] if durable writes are
    /// impossible. DDL checks this before mutating the catalog so schema
    /// changes never outrun what the log can persist.
    fn check_wal_writable(&self) -> DbResult<()> {
        match &self.wal {
            Some(wal) => wal.check_writable(),
            None => Ok(()),
        }
    }

    /// Log a DDL record with the same durability as a committed transaction:
    /// under `wal_sync_commit` the record is flushed before the DDL is
    /// acknowledged.
    pub(crate) fn log_ddl(&self, record: &LogRecord) -> DbResult<()> {
        if let Some(wal) = &self.wal {
            let seq = wal.append_seq(record)?;
            if wal.config().sync_commit {
                if let Err(e) = wal.flush_now() {
                    // Same phantom guard as the commit path: if a
                    // group-commit rider already made this record durable,
                    // the DDL must be acknowledged as applied.
                    if wal.durable_seq() < seq {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Begin an explicit transaction.
    pub fn begin(&self) -> Transaction {
        self.txns.begin()
    }

    /// Open a session (supports BEGIN/COMMIT/ROLLBACK statements).
    pub fn session(&self) -> Session<'_> {
        self.engine_metrics.sessions.inc();
        Session::new(self)
    }

    /// Parse + plan a statement (for prepared/cached execution, matching the
    /// paper's cached-query-plan assumption in §3).
    pub fn prepare(&self, sql: &str) -> DbResult<PlanNode> {
        let stmt = parse(sql)?;
        Planner::new(&self.catalog).plan(&stmt)
    }

    /// [`prepare`](Self::prepare) through a cache keyed by SQL text. The
    /// hot path for repeated statements (the server's admission scheduler
    /// prices every arrival): a hit costs one map lookup instead of a
    /// parse + plan. DDL invalidates the whole cache — plans reference
    /// catalog state (table ids, index choices) that DDL changes.
    pub fn prepare_cached(&self, sql: &str) -> DbResult<Arc<PlanNode>> {
        if let Some(plan) = self.plan_cache.lock().get(sql) {
            self.engine_metrics.plan_cache_hits.inc();
            return Ok(plan.clone());
        }
        self.engine_metrics.plan_cache_misses.inc();
        let plan = Arc::new(self.prepare(sql)?);
        let mut cache = self.plan_cache.lock();
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        cache.insert(sql.to_string(), plan.clone());
        Ok(plan)
    }

    /// Drop every cached plan. Called after any successful DDL (including
    /// index builds and ANALYZE — both change what the planner would pick).
    pub fn invalidate_plan_cache(&self) {
        self.plan_cache.lock().clear();
    }

    /// [`prepare`](Self::prepare) with what-if [`PlannerOverrides`]
    /// (hypothetical and hidden indexes) applied during planning. The
    /// catalog is not touched, so this is safe under concurrent live
    /// traffic — the oracle planner uses it to price index actions. Plans
    /// produced against a hypothetical index reference an index that does
    /// not exist and must not be executed.
    pub fn prepare_with(&self, sql: &str, overrides: &PlannerOverrides) -> DbResult<PlanNode> {
        let stmt = parse(sql)?;
        Planner::with_overrides(&self.catalog, overrides).plan(&stmt)
    }

    /// Execute one statement in autocommit mode.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        self.execute_recorded(sql, None)
    }

    /// Execute one statement in autocommit mode with an OU recorder.
    pub fn execute_recorded(
        &self,
        sql: &str,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        let stmt = parse(sql)?;
        collect(|sink| self.run(&stmt, sql, None, recorder, sink))
    }

    /// Execute a pre-planned statement in autocommit mode.
    pub fn execute_plan(
        &self,
        plan: &PlanNode,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.run_plan(plan, None, recorder, sink))
    }

    /// Execute a plan inside an existing transaction.
    pub fn execute_plan_in(
        &self,
        plan: &PlanNode,
        txn: &mut Transaction,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.run_plan(plan, Some(txn), recorder, sink))
    }

    /// Execute one statement in autocommit mode, streaming result batches
    /// to `on_batch` instead of materializing a [`QueryResult`] — result
    /// rows reach the caller as they are produced, and a callback error
    /// aborts the query (and its upstream scans) early. DDL and DML run
    /// to completion without invoking the callback. Returns the number of
    /// rows streamed (or rows affected).
    pub fn execute_streaming(
        &self,
        sql: &str,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        self.run(&parse(sql)?, sql, None, recorder, on_batch)
    }

    /// Streaming analog of [`Database::execute_plan_in`].
    pub fn execute_plan_streaming_in(
        &self,
        plan: &PlanNode,
        txn: &mut Transaction,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        self.run_plan(plan, Some(txn), recorder, on_batch)
    }

    /// Execute a statement inside an existing transaction (used by sessions
    /// and by the concurrent runners).
    pub fn execute_in(
        &self,
        sql: &str,
        txn: &mut Transaction,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        let stmt = parse(sql)?;
        collect(|sink| self.run(&stmt, sql, Some(txn), recorder, sink))
    }

    /// The one statement path behind every SQL entry point: classify a
    /// parsed statement, then run DDL here (autocommit only) or tap, plan
    /// and hand it to [`Database::run_plan`] — in `txn` when given, else
    /// in a transaction of its own. Transaction control belongs to
    /// [`Session`].
    pub(crate) fn run(
        &self,
        stmt: &Statement,
        sql: &str,
        txn: Option<&mut Transaction>,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                return Err(DbError::Plan(
                    "transaction control requires a session (Database::session)".into(),
                ))
            }
            Statement::Select(_)
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => self.tap_statement(sql),
            // Index builds run through the executor; `run_plan` logs them.
            Statement::CreateIndex { .. } => {}
            Statement::CreateTable { name, columns } => {
                return self.run_ddl(txn.is_some(), || {
                    self.check_wal_writable()?;
                    let schema = Schema::new(
                        columns
                            .iter()
                            .map(|c| {
                                let mut col = Column::new(c.name.clone(), c.ty);
                                if let Some(len) = c.varchar_len {
                                    col = col.with_varchar_len(len);
                                }
                                col
                            })
                            .collect(),
                    );
                    let entry = self.catalog.create_table_with_shards(
                        name,
                        schema,
                        self.knobs().shard_count.max(1),
                    )?;
                    self.gc.register(entry.table.clone());
                    self.compactor.register(entry.table.clone());
                    entry.table.set_faults(self.faults.clone());
                    self.log_ddl(&LogRecord::CreateTable {
                        table_id: entry.table.id.0,
                        name: entry.table.name.clone(),
                        columns: entry
                            .table
                            .schema()
                            .columns()
                            .iter()
                            .map(|c| LoggedColumn {
                                name: c.name.clone(),
                                type_tag: LogRecord::type_tag(c.ty),
                                varchar_len: c.varchar_len as u32,
                            })
                            .collect(),
                    })
                })
            }
            Statement::DropTable { name } => {
                return self.run_ddl(txn.is_some(), || {
                    self.check_wal_writable()?;
                    let id = self.catalog.get(name)?.table.id.0;
                    self.catalog.drop_table(name)?;
                    self.log_ddl(&LogRecord::DropTable { table_id: id })
                })
            }
            Statement::DropIndex { name, table } => {
                return self.run_ddl(txn.is_some(), || {
                    self.check_wal_writable()?;
                    let entry = self.catalog.get(table)?;
                    entry.drop_index(name)?;
                    self.log_ddl(&LogRecord::DropIndex {
                        table_id: entry.table.id.0,
                        name: name.clone(),
                    })
                })
            }
            Statement::Analyze { table } => {
                return self.run_ddl(txn.is_some(), || {
                    self.catalog.get(table)?.analyze(self.txns.now());
                    Ok(())
                })
            }
        }
        let plan = Planner::new(&self.catalog).plan(stmt)?;
        self.run_plan(&plan, txn, recorder, on_batch)
    }

    /// Run one catalog-only DDL statement (rejected inside a transaction),
    /// counted in the `ddl` series; success drops every cached plan.
    fn run_ddl(&self, in_txn: bool, ddl: impl FnOnce() -> DbResult<()>) -> DbResult<usize> {
        if in_txn {
            return Err(DbError::Plan("DDL is autocommit-only".into()));
        }
        self.observed(StatementKind::Ddl, || {
            ddl()?;
            self.invalidate_plan_cache();
            Ok(0)
        })
    }

    /// The one plan runner: executes `plan` in `txn`, or — with `None` — in
    /// a transaction of its own that it commits (or aborts on error). An
    /// index build is checked against the WAL first, then logged, and
    /// drops every cached plan.
    fn run_plan(
        &self,
        plan: &PlanNode,
        txn: Option<&mut Transaction>,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        self.observed(classify(plan), || {
            let mut own = None;
            let txn = match txn {
                Some(txn) => txn,
                None => own.insert(self.txns.begin()),
            };
            // Index builds must be loggable before we spend the work
            // building them; a poisoned WAL rejects the DDL up front.
            if matches!(plan, PlanNode::CreateIndex { .. }) {
                self.check_wal_writable()?;
            }
            let knobs = self.knobs();
            let n = execute_batched(
                plan,
                &mut ExecContext {
                    catalog: &self.catalog,
                    txn,
                    mode: knobs.execution_mode,
                    recorder,
                    hw: knobs.hw,
                    jht_sleep_every: knobs.jht_sleep_every,
                    index_obs: Some(self.index_obs.clone()),
                    batch_size: knobs.batch_size.max(1),
                    pool: self.exec_pool(),
                    morsel_slots: DEFAULT_MORSEL_SLOTS,
                    columnar: knobs.columnar_enabled,
                },
                on_batch,
            )?;
            if let PlanNode::CreateIndex {
                table,
                index,
                columns,
                ..
            } = plan
            {
                if let Ok(entry) = self.catalog.get(table) {
                    self.log_ddl(&LogRecord::CreateIndex {
                        table_id: entry.table.id.0,
                        name: index.clone(),
                        columns: columns.iter().map(|&c| c as u32).collect(),
                    })?;
                }
                self.invalidate_plan_cache();
            }
            // An error above drops `own`, which aborts it.
            match own {
                Some(own) => own.commit().map(|_| n),
                None => Ok(n),
            }
        })
    }

    /// Count one statement of `kind` in `mb2_stmt_total`, then either time
    /// it into `mb2_stmt_latency_us` or count its error. The span covers
    /// all of `stmt` — for an autocommit statement, its commit too, so
    /// commit-side stalls (WAL pressure, commit-lock contention, injected
    /// faults) show in the latency the autopilot's verify step judges by.
    fn observed(
        &self,
        kind: StatementKind,
        stmt: impl FnOnce() -> DbResult<usize>,
    ) -> DbResult<usize> {
        let series = self.engine_metrics.stmt(kind);
        series.count.inc();
        let span = self.metrics.span();
        let result = stmt();
        match &result {
            Ok(_) => {
                span.observe(&series.latency_us);
            }
            Err(_) => series.errors.inc(),
        }
        result
    }

    /// Recompute statistics for every table.
    pub fn analyze_all(&self) {
        let now = self.txns.now();
        for name in self.catalog.table_names() {
            if let Ok(entry) = self.catalog.get(&name) {
                entry.analyze(now);
            }
        }
    }

    /// Stop background threads. Registered [`BackgroundTask`]s (the
    /// autopilot) are quiesced *first*, while the exec pool, GC, and WAL
    /// flusher are still alive — a task mid-action may be running a query
    /// on the pool or a WAL-logged index build, and tearing those down
    /// underneath it would turn a clean drain into an error.
    pub fn shutdown(&self) {
        let tasks: Vec<Weak<dyn BackgroundTask>> = self.background_tasks.lock().drain(..).collect();
        for task in tasks {
            if let Some(task) = task.upgrade() {
                task.quiesce();
            }
        }
        // Dropping the last `Arc` joins the pool's worker threads; queries
        // still holding a clone keep it alive until they finish.
        *self.pool.write() = None;
        self.compactor.shutdown();
        self.gc.shutdown();
        if let Some(wal) = &self.wal {
            wal.shutdown();
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::Value;
    use mb2_exec::ExecutionMode;

    #[test]
    fn ddl_and_autocommit_dml() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b VARCHAR(8))").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        let r = db.execute("SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(db.execute("CREATE TABLE t (a INT)").is_err());
    }

    #[test]
    fn error_rolls_back_autocommit_txn() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // Division by zero in the projection aborts the statement; the
        // update applied by... here SELECT doesn't modify, so instead test
        // a failing multi-row change: second row divides by zero.
        let err = db.execute("UPDATE t SET a = 1 / (a - 1)");
        assert!(err.is_err());
        let r = db.execute("SELECT a FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1), "update must have rolled back");
    }

    #[test]
    fn prepared_plan_reuse() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let plan = db.prepare("SELECT COUNT(*) FROM t WHERE a < 5").unwrap();
        let a = db.execute_plan(&plan, None).unwrap();
        let b = db.execute_plan(&plan, None).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.rows[0][0], Value::Int(5));
    }

    #[test]
    fn analyze_updates_stats() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({})", i % 5))
                .unwrap();
        }
        db.execute("ANALYZE t").unwrap();
        let stats = db.catalog().get("t").unwrap().stats();
        assert_eq!(stats.row_count, 50);
        assert_eq!(stats.columns[0].distinct, 5);
    }

    #[test]
    fn knob_changes_apply() {
        let db = Database::open();
        assert_eq!(db.knobs().execution_mode, ExecutionMode::Compiled);
        db.set_knob(Knob::ExecutionMode, ExecutionMode::Interpret)
            .unwrap();
        assert_eq!(db.knobs().execution_mode, ExecutionMode::Interpret);
        db.set_jht_sleep_every(100);
        assert_eq!(db.knobs().jht_sleep_every, 100);
    }

    #[test]
    fn wal_accumulates_records() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let (_, records, ..) = db.wal().unwrap().stats().snapshot();
        assert!(records >= 3, "begin + insert + commit, got {records}");
    }

    #[test]
    fn transaction_control_requires_session() {
        let db = Database::open();
        assert!(db.execute("BEGIN").is_err());
    }

    #[test]
    fn parallelism_knob_rebuilds_pool_and_preserves_results() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        for i in 0..300 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7))
                .unwrap();
        }
        db.set_knob(Knob::Parallelism, KnobValue::Count(1)).unwrap();
        assert!(db.exec_pool().is_none(), "parallelism 1 runs serial");
        let serial = db.execute("SELECT a, b FROM t WHERE b < 3").unwrap().rows;
        for workers in [2usize, 4] {
            db.set_knob(Knob::Parallelism, workers).unwrap();
            let pool = db.exec_pool().expect("pool built for parallelism > 1");
            assert_eq!(pool.workers(), workers);
            assert_eq!(db.knobs().parallelism, workers);
            let got = db.execute("SELECT a, b FROM t WHERE b < 3").unwrap().rows;
            assert_eq!(got, serial, "parallel rows must be byte-identical");
        }
        // The pool publishes into the database's registry.
        let prom = db.metrics_prometheus();
        assert!(prom.contains("mb2_exec_pool_workers"));
        assert!(prom.contains("mb2_exec_pool_busy_workers"));
        db.set_knob(Knob::Parallelism, KnobValue::Count(0)).unwrap(); // clamps to 1
        assert_eq!(db.knobs().parallelism, 1);
        assert!(db.exec_pool().is_none());
    }

    #[test]
    fn columnar_knob_and_compaction_preserve_results() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        let mut stmt = String::from("INSERT INTO t VALUES ");
        for i in 0..700 {
            if i > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({i}, {})", i % 7));
        }
        db.execute(&stmt).unwrap();
        let queries = [
            "SELECT a, b FROM t WHERE b < 3",
            "SELECT a FROM t WHERE a >= 100 AND a < 200 ORDER BY a",
            "SELECT COUNT(*) FROM t",
        ];
        let want: Vec<_> = queries
            .iter()
            .map(|q| db.execute(q).unwrap().rows)
            .collect();
        // Seal the cold unit, then flip the knob: results must not move.
        let report = db.compact_now();
        assert!(report.units_sealed >= 1, "{report:?}");
        db.set_knob(Knob::ColumnarEnabled, true).unwrap();
        assert!(db.knobs().columnar_enabled);
        for (q, want) in queries.iter().zip(&want) {
            assert_eq!(&db.execute(q).unwrap().rows, want, "{q}");
        }
        let blocks = db.block_status();
        assert!(blocks.iter().any(|(name, s)| name == "t" && s.blocks > 0));
        // Writers still revive sealed rows transparently.
        db.execute("UPDATE t SET b = 99 WHERE a = 5").unwrap();
        let r = db.execute("SELECT b FROM t WHERE a = 5").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(99));
    }

    #[test]
    fn streaming_matches_materialized_at_any_batch_size() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        for i in 0..25 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 4))
                .unwrap();
        }
        let want = db
            .execute("SELECT a FROM t WHERE b = 1 ORDER BY a")
            .unwrap()
            .rows;
        assert!(!want.is_empty());
        for batch_size in [1usize, 3, 1024] {
            db.set_knob(Knob::BatchSize, batch_size).unwrap();
            let mut got: Vec<Vec<Value>> = Vec::new();
            let mut batches = 0usize;
            let n = db
                .execute_streaming("SELECT a FROM t WHERE b = 1 ORDER BY a", None, &mut |b| {
                    batches += 1;
                    got.extend(b.rows.iter().map(|r| r.as_ref().clone()));
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, want.len());
            assert_eq!(got, want);
            if batch_size == 1 {
                assert_eq!(batches, want.len(), "one row per batch at size 1");
            }
        }
        // DML and DDL run through the streaming entry point too, without
        // producing batches.
        let mut calls = 0usize;
        let n = db
            .execute_streaming("UPDATE t SET b = 9 WHERE a = 0", None, &mut |_| {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(calls, 0);
    }
}
