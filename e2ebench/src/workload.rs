//! The four workloads: sizes, seeded request streams, and set-up.
//!
//! A workload is a set of connection streams. Each stream is a list of
//! operations (one transaction or one query) that the TCP driver sends
//! and the traced replay re-executes in-process, so both see exactly the
//! same seeded requests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_bench::pipeline::{build_interference_model, build_ou_models, PipelineConfig};
use mb2_bench::Scale;
use mb2_common::{DbResult, Prng};
use mb2_core::{BehaviorModels, QueryTemplate};
use mb2_engine::{Database, DatabaseConfig};
use mb2_server::{SchedulerPolicy, TierPolicy};
use mb2_workloads::smallbank::SmallBank;
use mb2_workloads::tatp::Tatp;
use mb2_workloads::tpch::Tpch;
use mb2_workloads::Workload;

/// Client threads and connections per workload: at most the core count.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tatp,
    SmallBank,
    Tpch,
    Htap,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Tatp, Kind::SmallBank, Kind::Tpch, Kind::Htap];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tatp => "tatp",
            Kind::SmallBank => "smallbank",
            Kind::Tpch => "tpch",
            Kind::Htap => "htap",
        }
    }
}

/// Data sizes and per-round work. `full` is what the benchmark reports;
/// `tiny` is the smoke-test size.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub tatp_subscribers: usize,
    pub smallbank_accounts: usize,
    pub tpch_scale: f64,
    pub htap_tpch_scale: f64,
    /// Transactions per round, split evenly over the connections.
    pub tatp_txns: usize,
    pub smallbank_txns: usize,
    /// Passes over the 9 TPC-H templates per round (each pass runs every
    /// template once, in seeded order, with seeded parameters).
    pub tpch_passes: usize,
    /// Open-loop interactive requests per `htap` round and their rate.
    pub htap_interactive: usize,
    pub htap_rate_per_s: f64,
    /// Train the `htap` models with the quick pipeline (`false`: a
    /// smaller sweep for the smoke test).
    pub quick_training: bool,
    /// Length of each concurrent window the interference model trains on.
    pub interference_window_ms: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            tatp_subscribers: 10_000,
            smallbank_accounts: 10_000,
            tpch_scale: 1.0,
            htap_tpch_scale: 0.5,
            tatp_txns: 6_000,
            smallbank_txns: 12_000,
            tpch_passes: 8,
            htap_interactive: 1_000,
            htap_rate_per_s: 200.0,
            quick_training: true,
            interference_window_ms: 150,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            tatp_subscribers: 300,
            smallbank_accounts: 300,
            tpch_scale: 0.02,
            htap_tpch_scale: 0.02,
            tatp_txns: 200,
            smallbank_txns: 200,
            tpch_passes: 1,
            htap_interactive: 60,
            htap_rate_per_s: 200.0,
            quick_training: false,
            interference_window_ms: 5,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"tatp_subscribers\":{},\"smallbank_accounts\":{},\"tpch_scale\":{},\
             \"htap_tpch_scale\":{},\"tatp_txns_per_round\":{},\"smallbank_txns_per_round\":{},\
             \"tpch_queries_per_round\":{},\"htap_interactive_per_round\":{},\
             \"htap_rate_per_s\":{},\"htap_training\":\"{}\"}}",
            self.tatp_subscribers,
            self.smallbank_accounts,
            self.tpch_scale,
            self.htap_tpch_scale,
            self.tatp_txns,
            self.smallbank_txns,
            self.tpch_passes * TPCH_TEMPLATES,
            self.htap_interactive,
            self.htap_rate_per_s,
            if self.quick_training {
                "quick"
            } else {
                "smoke"
            },
        )
    }
}

const TPCH_TEMPLATES: usize = 9;

/// One operation: a transaction (`explicit` — sent as BEGIN, statements,
/// COMMIT) or a single autocommit statement.
#[derive(Debug, Clone)]
pub struct Op {
    pub stmts: Vec<String>,
    pub explicit: bool,
}

/// How a stream issues its operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Next operation after the previous one completes; stop after the list.
    Closed,
    /// Operation `i` is due at `i / rate` seconds after the round starts.
    Open { rate_per_s: f64 },
    /// Closed loop over the list, wrapping around, until the open-loop
    /// streams of the round have finished.
    ClosedUntilOpenDone,
}

/// A list of operations served by `conns` connections. Closed-loop
/// connections take the next unserved operation from the shared list, so
/// they finish within one operation of each other and the whole window is
/// measured at full concurrency.
#[derive(Debug, Clone)]
pub struct Stream {
    pub name: &'static str,
    pub tenant: &'static str,
    pub tier: u8,
    pub pacing: Pacing,
    pub conns: usize,
    pub ops: Vec<Op>,
}

impl Stream {
    /// Hand out the next operation of the stream to one of its
    /// connections: its sequence number (op index = sequence mod length;
    /// an open-loop op is due at sequence / rate), or `None` when the
    /// stream is done.
    pub fn next(&self, cursor: &AtomicUsize, open_done: &AtomicBool) -> Option<usize> {
        let n = self.ops.len();
        match self.pacing {
            _ if n == 0 => None,
            Pacing::ClosedUntilOpenDone if open_done.load(Ordering::Acquire) => None,
            Pacing::ClosedUntilOpenDone => Some(cursor.fetch_add(1, Ordering::Relaxed)),
            Pacing::Closed | Pacing::Open { .. } => {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                (i < n).then_some(i)
            }
        }
    }

    /// When sequence number `i` is due, for open-loop streams.
    pub fn due(&self, start: Instant, i: usize) -> Option<Instant> {
        match self.pacing {
            Pacing::Open { rate_per_s } => {
                Some(start + Duration::from_secs_f64(i as f64 / rate_per_s))
            }
            _ => None,
        }
    }
}

/// The engine configuration shared by every workload (recorded in the
/// host block and in `MAPPING.md`).
pub fn engine_config(wal_path: &Path) -> DatabaseConfig {
    DatabaseConfig {
        wal_enabled: true,
        wal_path: Some(wal_path.to_path_buf()),
        wal_sync_commit: true,
        wal_fsync: false,
        gc_interval: Some(Duration::from_millis(10)),
        ..DatabaseConfig::default()
    }
}

pub fn engine_config_json() -> String {
    let knobs = DatabaseConfig::default().knobs;
    format!(
        "{{\"wal\":\"file in a temp dir\",\"wal_sync_commit\":true,\"wal_fsync\":false,\
         \"gc_interval_ms\":10,\"parallelism\":{},\"shard_count\":{},\"batch_size\":{},\
         \"columnar_enabled\":{},\"wal_flush_interval_ms\":{}}}",
        knobs.parallelism,
        knobs.shard_count,
        knobs.batch_size,
        knobs.columnar_enabled,
        knobs.wal_flush_interval.as_millis()
    )
}

/// Predictive-admission policy for `htap`: interactive tier 0, analytic
/// tier 1. Budgets are generous so the policy prices and orders every
/// arrival without shedding the seeded work.
pub fn htap_policy() -> SchedulerPolicy {
    SchedulerPolicy {
        tiers: vec![
            TierPolicy {
                name: "interactive".into(),
                slo_budget_us: 1e12,
                queue_deadline: Duration::from_secs(2),
            },
            TierPolicy {
                name: "analytic".into(),
                slo_budget_us: 1e12,
                queue_deadline: Duration::from_secs(5),
            },
        ],
        queue_capacity: 32,
        default_tenant_quota: 0,
        tenant_quotas: Default::default(),
        interference_window_us: 500_000.0,
    }
}

pub fn server_config_json(kind: Kind) -> String {
    let cfg = mb2_server::ServerConfig::default();
    format!(
        "{{\"max_connections\":{},\"max_inflight_queries\":{},\"admission\":\"{}\"}}",
        cfg.max_connections,
        cfg.max_inflight_queries,
        if kind == Kind::Htap {
            "predictive (SchedulerPolicy + OU and interference models)"
        } else {
            "fallback semaphore"
        }
    )
}

fn tatp(sizes: &Sizes) -> Tatp {
    Tatp {
        subscribers: sizes.tatp_subscribers,
    }
}

fn smallbank(sizes: &Sizes) -> SmallBank {
    SmallBank {
        accounts: sizes.smallbank_accounts,
        ..SmallBank::default()
    }
}

fn tpch(scale: f64) -> Tpch {
    Tpch {
        scale,
        ..Tpch::default()
    }
}

/// Closed-loop transactions from a workload's own template choice
/// (uniform over its templates, as `Workload::run_one` picks them).
fn txn_stream(w: &dyn Workload, total: usize, seed: u64) -> Stream {
    let templates = w.template_names();
    let mut rng = Prng::new(seed);
    let ops = (0..total)
        .map(|_| {
            let t = *rng.choose(&templates);
            Op {
                stmts: w.sample_transaction(t, &mut rng),
                explicit: true,
            }
        })
        .collect();
    Stream {
        name: "closed",
        tenant: "oltp",
        tier: 0,
        pacing: Pacing::Closed,
        conns: client_threads(),
        ops,
    }
}

/// `passes` rounds of every TPC-H template, each pass in seeded order with
/// seeded parameters. Every template runs equally often, so the mix does
/// not vary with the seed.
fn tpch_ops(h: &Tpch, passes: usize, rng: &mut Prng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(passes * TPCH_TEMPLATES);
    for _ in 0..passes {
        let mut order = h.template_names();
        rng.shuffle(&mut order);
        for t in order {
            ops.push(Op {
                stmts: vec![h.query(t, rng)],
                explicit: false,
            });
        }
    }
    ops
}

/// The seeded request streams of one round.
pub fn streams(kind: Kind, sizes: &Sizes, seed: u64) -> Vec<Stream> {
    match kind {
        Kind::Tatp => vec![txn_stream(&tatp(sizes), sizes.tatp_txns, seed)],
        Kind::SmallBank => vec![txn_stream(&smallbank(sizes), sizes.smallbank_txns, seed)],
        Kind::Tpch => {
            let mut rng = Prng::new(seed);
            vec![Stream {
                name: "closed",
                tenant: "olap",
                tier: 0,
                pacing: Pacing::Closed,
                conns: client_threads(),
                ops: tpch_ops(&tpch(sizes.tpch_scale), sizes.tpch_passes, &mut rng),
            }]
        }
        Kind::Htap => {
            let t = tatp(sizes);
            let h = tpch(sizes.htap_tpch_scale);
            let mut rng = Prng::new(seed);
            let interactive = (0..sizes.htap_interactive)
                .map(|_| Op {
                    stmts: t.sample_transaction("get_subscriber_data", &mut rng),
                    explicit: false,
                })
                .collect();
            // 72 seeded queries; the stream wraps around them until the
            // interactive stream is done, and the checks compare the
            // first pass.
            let analytic = tpch_ops(&h, 8, &mut rng);
            vec![
                Stream {
                    name: "interactive",
                    tenant: "app",
                    tier: 0,
                    pacing: Pacing::Open {
                        rate_per_s: sizes.htap_rate_per_s,
                    },
                    conns: 1,
                    ops: interactive,
                },
                Stream {
                    name: "analytic",
                    tenant: "bi",
                    tier: 1,
                    pacing: Pacing::ClosedUntilOpenDone,
                    conns: 1,
                    ops: analytic,
                },
            ]
        }
    }
}

/// Models served by the predictive scheduler, with their training cost.
pub struct TrainedModels {
    pub models: Arc<BehaviorModels>,
    /// The algorithm model selection chose for the interference model.
    pub interference_algorithm: String,
    pub runners_s: f64,
    pub train_s: f64,
}

/// A freshly loaded database and where its WAL lives.
pub struct Loaded {
    pub db: Arc<Database>,
    pub wal_path: PathBuf,
}

/// Create a fresh database under `dir` and load the workload's data.
pub fn load(kind: Kind, sizes: &Sizes, dir: &Path, tag: &str) -> DbResult<Loaded> {
    let wal_path = dir.join(format!("{tag}.wal"));
    let _ = std::fs::remove_file(&wal_path);
    let db = Database::new(engine_config(&wal_path))?;
    match kind {
        Kind::Tatp => tatp(sizes).load(&db)?,
        Kind::SmallBank => smallbank(sizes).load(&db)?,
        Kind::Tpch => tpch(sizes.tpch_scale).load(&db)?,
        Kind::Htap => {
            tatp(sizes).load(&db)?;
            tpch(sizes.htap_tpch_scale).load(&db)?;
        }
    }
    Ok(Loaded {
        db: Arc::new(db),
        wal_path,
    })
}

/// Train the OU models with the pipeline's runners, then the interference
/// model over concurrent windows of the templates `htap` serves.
pub fn train(db: &Arc<Database>, sizes: &Sizes, seed: u64) -> DbResult<TrainedModels> {
    let mut cfg = PipelineConfig::for_scale(Scale::Quick);
    if !sizes.quick_training {
        cfg.exec.max_rows = 256;
        cfg.util.max_batch = 64;
        cfg.util.max_index_rows = 512;
        cfg.util.build_threads = vec![1];
    }
    let started = Instant::now();
    let built = build_ou_models(&cfg)?;
    let runners_s = built.runner_time.as_secs_f64();
    let ou_train_s = started.elapsed().as_secs_f64() - runners_s;
    let interference_started = Instant::now();
    let t = tatp(sizes);
    let h = tpch(sizes.htap_tpch_scale);
    let mut rng = Prng::new(seed);
    let mut sqls = vec![(
        "get_subscriber_data".to_string(),
        t.sample_transaction("get_subscriber_data", &mut rng)
            .remove(0),
    )];
    sqls.extend(h.fixed_queries());
    let templates = sqls
        .into_iter()
        .map(|(name, sql)| {
            Ok(QueryTemplate {
                plan: db.prepare(&sql)?,
                name,
                sql,
            })
        })
        .collect::<DbResult<Vec<_>>>()?;
    let (interference, _, rows) = build_interference_model(
        db,
        &templates,
        &built.models,
        &[1, 2],
        Duration::from_millis(sizes.interference_window_ms),
        seed,
    )?;
    let train_s = ou_train_s + interference_started.elapsed().as_secs_f64();
    eprintln!(
        "trained: runners {runners_s:.2}s, OU models {ou_train_s:.2}s, \
         interference {:.2}s over {rows} rows",
        interference_started.elapsed().as_secs_f64()
    );
    Ok(TrainedModels {
        interference_algorithm: format!("{:?}", interference.chosen),
        models: Arc::new(BehaviorModels::new(built.models, Some(interference))),
        runners_s,
        train_s,
    })
}
