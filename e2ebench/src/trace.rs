//! The traced in-process replay.
//!
//! It re-executes a round's request streams through the same public entry
//! points the server calls for a query frame, recording a span around
//! each: `wire::FrameReader` (decode), `Scheduler::admit`, `sql::parse`,
//! `sql::Planner::plan`, `Database::begin`, `Database::execute_plan_in`
//! (with a benchmark-owned `OuRecorder` for the per-OU breakdown),
//! `Transaction::commit` and `wire::write_frame` (encode). Spans live in
//! memory and are written out once the run ends. With tracing off the
//! same replay runs without spans or recorder, which gives the tracing
//! overhead.

use std::io::{Cursor, Write as _};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mb2_common::{DbError, DbResult, Metrics, OuKind, Value};
use mb2_core::BehaviorModels;
use mb2_engine::exec::{OuRecorder, WorkCounts};
use mb2_engine::sql::{parse, Planner, Statement};
use mb2_engine::txn::Transaction;
use mb2_engine::Database;
use mb2_server::sched::{ConnSchedCtx, Decision, Scheduler};
use mb2_server::wire::{write_frame, Frame, FrameReader};

use crate::driver::{backoff, retryable, MAX_ATTEMPTS};
use crate::workload::{Op, Pacing, Stream};

/// Layers whose spans partition a request's server-side path.
pub const LAYERS: [&str; 8] = [
    "server.decode",
    "server.admit",
    "sql.parse",
    "sql.plan",
    "txn.begin",
    "exec.execute",
    "txn.commit",
    "server.encode",
];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same stream's list (`u32::MAX` for
    /// a request's root span).
    pub parent: u32,
    pub request: u64,
}

/// Per-OU elapsed time and scanned-tuple counts, fed by the executor.
#[derive(Default)]
pub struct OuTotals {
    inner: Mutex<OuInner>,
}

#[derive(Default)]
struct OuInner {
    elapsed_us: [f64; OuKind::ALL.len()],
    scan_tuples: u64,
}

impl OuTotals {
    pub fn elapsed_us(&self, ou: OuKind) -> f64 {
        self.lock().elapsed_us[ou_index(ou)]
    }

    pub fn scan_tuples(&self) -> u64 {
        self.lock().scan_tuples
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OuInner> {
        self.inner.lock().expect("OU totals lock poisoned")
    }
}

fn ou_index(ou: OuKind) -> usize {
    OuKind::ALL
        .iter()
        .position(|&k| k == ou)
        .expect("OuKind::ALL lists every OU")
}

impl OuRecorder for OuTotals {
    fn record(&self, _node_id: u32, ou: OuKind, metrics: Metrics) {
        self.lock().elapsed_us[ou_index(ou)] += metrics.elapsed_us();
    }

    fn record_work(&self, _node_id: u32, ou: OuKind, work: WorkCounts) {
        if matches!(ou, OuKind::SeqScan | OuKind::IdxScan | OuKind::BlockScan) {
            self.lock().scan_tuples += work.tuples;
        }
    }
}

/// What one connection of the replay measured.
#[derive(Debug, Default)]
pub struct ReplayStream {
    /// Index of the stream the connection served.
    pub stream: usize,
    /// Wall time of each completed op in microseconds.
    pub op_us: Vec<f64>,
    pub spans: Vec<Span>,
    pub statements: u64,
    pub frames: u64,
    pub bytes: u64,
    /// Rows returned plus rows affected, over all statements.
    pub result_rows: u64,
    pub predict_us: Vec<f64>,
    /// Predicted over observed execute time, per predicted statement.
    pub pred_over_obs: Vec<f64>,
    pub errors: Vec<String>,
}

struct Replayer<'a> {
    db: &'a Database,
    sched: &'a Scheduler,
    ctx: ConnSchedCtx,
    models: Option<&'a BehaviorModels>,
    recorder: Option<&'a OuTotals>,
    origin: Instant,
    traced: bool,
    out: ReplayStream,
    request: u64,
    root: u32,
}

impl Replayer<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (a plain call when untraced).
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.traced {
            return f(self);
        }
        let start_ns = self.now_ns();
        let value = f(self);
        let end_ns = self.now_ns();
        let request = self.request;
        let parent = self.root;
        self.out.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        value
    }

    /// One query frame, handled the way the server handles it.
    fn statement(&mut self, sql: &str, txn: &mut Option<Transaction>) -> DbResult<()> {
        let mut request = Vec::new();
        write_frame(&mut request, &Frame::Query { sql: sql.into() })?;
        self.out.frames += 1;
        self.out.bytes += request.len() as u64;
        self.span("server.decode", |_| {
            FrameReader::new().read_frame_blocking(&mut Cursor::new(&request))
        })?;
        let (sched, db) = (self.sched, self.db);
        let ctx = self.ctx.clone();
        let token = match self.span("server.admit", |_| sched.admit(db, sql, &ctx)) {
            Decision::Admit(token) => token,
            Decision::Reject { message, .. } => return Err(DbError::ServerBusy(message)),
        };
        let result = self.execute(sql, txn);
        let encoded = self.span("server.encode", |r| r.encode(&result));
        self.span("server.admit", |_| sched.finish(token));
        encoded?;
        result.map(|_| ())
    }

    fn execute(
        &mut self,
        sql: &str,
        txn: &mut Option<Transaction>,
    ) -> DbResult<(Vec<Vec<Value>>, u64)> {
        self.out.statements += 1;
        let db = self.db;
        let stmt = self.span("sql.parse", |_| parse(sql))?;
        match stmt {
            Statement::Begin => {
                let t = self.span("txn.begin", |_| db.begin());
                *txn = Some(t);
                Ok((Vec::new(), 0))
            }
            Statement::Commit => {
                let t = txn.take().ok_or(DbError::TxnClosed)?;
                self.span("txn.commit", |_| t.commit())?;
                Ok((Vec::new(), 0))
            }
            Statement::Rollback => {
                if let Some(t) = txn.take() {
                    t.abort();
                }
                Ok((Vec::new(), 0))
            }
            other => {
                let plan = self.span("sql.plan", |_| Planner::new(db.catalog()).plan(&other))?;
                let autocommit = txn.is_none();
                if autocommit {
                    let t = self.span("txn.begin", |_| db.begin());
                    *txn = Some(t);
                }
                let recorder = self.recorder.map(|r| r as &dyn OuRecorder);
                let started = Instant::now();
                let result = self.span("exec.execute", |_| {
                    db.execute_plan_in(&plan, txn.as_mut().expect("open transaction"), recorder)
                });
                let observed_us = started.elapsed().as_secs_f64() * 1e6;
                if let (Some(models), true) = (self.models, self.traced) {
                    let t0 = Instant::now();
                    let predicted = models.predict_plan(&plan, &db.knobs()).elapsed_us();
                    self.out.predict_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if predicted > 0.0 && observed_us > 0.0 {
                        self.out.pred_over_obs.push(predicted / observed_us);
                    }
                }
                let result = match result {
                    Ok(r) => r,
                    Err(e) => {
                        if let Some(t) = txn.take() {
                            t.abort();
                        }
                        return Err(e);
                    }
                };
                if autocommit {
                    let t = txn.take().expect("autocommit transaction");
                    self.span("txn.commit", |_| t.commit())?;
                }
                self.out.result_rows += (result.rows.len() + result.rows_affected) as u64;
                Ok((result.rows, result.rows_affected as u64))
            }
        }
    }

    /// Encode the response frames the server would send.
    fn encode(&mut self, result: &DbResult<(Vec<Vec<Value>>, u64)>) -> DbResult<()> {
        let mut sink = Vec::new();
        match result {
            Ok((rows, affected)) => {
                let batch = self.db.knobs().batch_size.max(1);
                for chunk in rows.chunks(batch) {
                    write_frame(
                        &mut sink,
                        &Frame::RowBatch {
                            rows: chunk.to_vec(),
                        },
                    )?;
                    self.out.frames += 1;
                }
                let n = if rows.is_empty() {
                    *affected
                } else {
                    rows.len() as u64
                };
                write_frame(&mut sink, &Frame::Done { rows: n })?;
            }
            Err(e) => write_frame(&mut sink, &Frame::Error { error: e.clone() })?,
        }
        self.out.frames += 1;
        self.out.bytes += sink.len() as u64;
        std::hint::black_box(&sink);
        Ok(())
    }

    fn op(&mut self, op: &Op) -> DbResult<()> {
        let mut txn = None;
        let result = (|| {
            if op.explicit {
                self.statement("BEGIN", &mut txn)?;
            }
            for sql in &op.stmts {
                self.statement(sql, &mut txn)?;
            }
            if op.explicit {
                self.statement("COMMIT", &mut txn)?;
            }
            Ok(())
        })();
        if let Some(t) = txn.take() {
            t.abort();
        }
        result
    }
}

/// What the replay needs besides the stream: the database, the
/// scheduler, and (traced) the models and the OU recorder.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub db: &'a Database,
    pub sched: &'a Scheduler,
    pub models: Option<&'a BehaviorModels>,
    pub recorder: Option<&'a OuTotals>,
}

fn replay_connection(
    target: Target<'_>,
    stream: &Stream,
    stream_id: usize,
    cursor: &AtomicUsize,
    start: Instant,
    open_done: &AtomicBool,
) -> ReplayStream {
    let traced = target.recorder.is_some();
    let mut r = Replayer {
        db: target.db,
        sched: target.sched,
        ctx: ConnSchedCtx {
            tenant: stream.tenant.into(),
            tier: stream.tier,
        },
        models: target.models,
        recorder: target.recorder,
        origin: start,
        traced,
        out: ReplayStream {
            stream: stream_id,
            ..ReplayStream::default()
        },
        request: 0,
        root: u32::MAX,
    };
    let n = stream.ops.len();
    while let Some(i) = stream.next(cursor, open_done) {
        if let Some(due) = stream.due(start, i) {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let op = &stream.ops[i % n];
        r.request = ((stream_id as u64) << 32) | i as u64;
        let t0 = Instant::now();
        if traced {
            let start_ns = r.now_ns();
            r.root = r.out.spans.len() as u32;
            r.out.spans.push(Span {
                name: "request",
                start_ns,
                end_ns: start_ns,
                parent: u32::MAX,
                request: r.request,
            });
        }
        let mut attempts = 0;
        let ok = loop {
            attempts += 1;
            match r.op(op) {
                Ok(()) => break true,
                Err(e) if retryable(&e) && attempts < MAX_ATTEMPTS => {
                    std::thread::sleep(backoff(attempts))
                }
                Err(e) => {
                    if r.out.errors.len() < 8 {
                        r.out
                            .errors
                            .push(format!("{e} (sql: {})", op.stmts.join("; ")));
                    }
                    break false;
                }
            }
        };
        if traced {
            let end_ns = r.now_ns();
            let root = r.root as usize;
            r.out.spans[root].end_ns = end_ns;
        }
        if ok {
            r.out.op_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    if matches!(stream.pacing, Pacing::Open { .. }) {
        open_done.store(true, Ordering::Release);
    }
    r.out
}

/// Replay every stream concurrently, each over as many threads as it has
/// connections. Returns one [`ReplayStream`] per connection. A
/// `target.recorder` switches tracing on.
pub fn replay(target: Target<'_>, streams: &[Stream]) -> Vec<ReplayStream> {
    let open_done = AtomicBool::new(
        !streams
            .iter()
            .any(|s| matches!(s.pacing, Pacing::Open { .. })),
    );
    let cursors: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(&cursors)
            .enumerate()
            .flat_map(|(id, (s, cursor))| {
                let open_done = &open_done;
                (0..s.conns).map(move |_| {
                    scope.spawn(move || replay_connection(target, s, id, cursor, start, open_done))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    })
}

/// Write every span as one tab-separated line:
/// `request  span_id  parent  name  start_ns  end_ns`.
pub fn write_spans(path: &std::path::Path, streams: &[ReplayStream]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
    for (s, stream) in streams.iter().enumerate() {
        for (i, span) in stream.spans.iter().enumerate() {
            let parent = if span.parent == u32::MAX {
                "-".to_string()
            } else {
                format!("{s}.{}", span.parent)
            };
            writeln!(
                w,
                "{}\t{s}.{i}\t{parent}\t{}\t{}\t{}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    w.flush()
}
