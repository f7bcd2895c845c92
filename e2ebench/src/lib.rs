//! End-to-end and per-layer benchmark of the mb2 server over TCP.
//!
//! One command runs one named workload against an in-process
//! `mb2-server` on a loopback socket, checks the results, and prints one
//! JSON object as its last line of output:
//!
//! ```text
//! e2ebench --workload <tatp|smallbank|tpch|htap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a sequence of rounds. Each round loads a fresh database (and,
//! on `htap`, trains the models), serves a fixed, seeded amount of work,
//! checks the results, and shuts the server down. Rounds repeat until
//! `--seconds` have passed (at least [`MIN_ROUNDS`]); round `r` serves the
//! streams of seed [`round_seed`]`(seed, r)`, so the same `--seed` always
//! gives the same inputs. End-to-end metrics (`--trace 0`) are medians over
//! rounds: the latency median is taken over the pooled samples of all
//! rounds, the tail as the median of each round's tail percentile.
//!
//! With `--trace 1` the run makes one TCP round (for counter deltas and
//! the untraced end-to-end latency), then replays round 0's streams
//! in-process twice on fresh databases, without and with spans, and
//! reports the per-layer metrics (see [`trace`]).

pub mod check;
pub mod counters;
pub mod driver;
pub mod json;
pub mod metrics;
pub mod trace;
pub mod workload;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mb2_common::{DbError, DbResult};
use mb2_core::BehaviorModels;
use mb2_server::sched::Scheduler;
use mb2_server::{Server, ServerConfig};

use crate::counters::Snapshot;
use crate::driver::StreamResult;
use crate::trace::{OuTotals, ReplayStream};
use crate::workload::{Kind, Sizes, Stream};

/// Fewest rounds in an end-to-end run, so that set-up time is a median.
pub const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for this run's WAL files (inside the checkout
    /// the benchmark runs from; removed when the run ends).
    pub out_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_dir: PathBuf,
}

/// One TCP round: set-up, the measured window, and the checks.
pub struct Round {
    pub setup_s: f64,
    pub runners_s: f64,
    pub train_s: f64,
    /// `htap`: the algorithm chosen for the interference model.
    pub interference_algorithm: Option<String>,
    pub window_s: f64,
    pub streams: Vec<Stream>,
    pub results: Vec<StreamResult>,
    pub before: Snapshot,
    pub after: Snapshot,
    pub versions_per_tuple: Option<f64>,
    /// Highest resident set sampled during the round, in MB.
    pub peak_rss_mb: Option<f64>,
    pub problems: Vec<String>,
    pub models: Option<Arc<BehaviorModels>>,
}

fn server_config(kind: Kind) -> ServerConfig {
    ServerConfig {
        scheduler: (kind == Kind::Htap).then(workload::htap_policy),
        ..ServerConfig::default()
    }
}

fn versions_per_tuple(db: &mb2_engine::Database) -> Option<f64> {
    let (versions, tuples) = db
        .shard_status()
        .iter()
        .fold((0usize, 0usize), |(v, t), (_, s)| {
            (v + s.versions, t + s.live_tuples)
        });
    (tuples > 0).then(|| versions as f64 / tuples as f64)
}

/// The stream seed of round `round`: every round serves different seeded
/// requests, so a run averages over more inputs than one round holds.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(round as u64)
}

/// Run `f` while sampling the process's resident set every few
/// milliseconds; returns `f`'s result and the highest sample in MB.
fn with_peak_rss<T>(f: impl FnOnce() -> T) -> (T, Option<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak: Option<f64> = None;
            while !stop.load(Ordering::Acquire) {
                if let Some(mb) = metrics::rss_mb() {
                    peak = Some(peak.map_or(mb, |p: f64| p.max(mb)));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        let out = f();
        stop.store(true, Ordering::Release);
        (out, sampler.join().expect("RSS sampler panicked"))
    })
}

/// Load, serve round `round`'s seeded streams over TCP, check, and shut
/// down.
pub fn tcp_round(args: &Args, round: usize) -> DbResult<Round> {
    let (round, peak_rss_mb) = with_peak_rss(|| tcp_round_inner(args, round));
    let mut round = round?;
    round.peak_rss_mb = peak_rss_mb;
    Ok(round)
}

fn tcp_round_inner(args: &Args, round: usize) -> DbResult<Round> {
    let started = Instant::now();
    let tag = format!("round{round}");
    let loaded = workload::load(args.kind, &args.sizes, &args.out_dir, &tag)?;
    let trained = match args.kind {
        Kind::Htap => Some(workload::train(&loaded.db, &args.sizes, args.seed)?),
        _ => None,
    };
    let server = Server::start(loaded.db.clone(), server_config(args.kind))?;
    if let Some(t) = &trained {
        server.attach_models(t.models.clone());
    }
    let setup_s = started.elapsed().as_secs_f64();

    let db = loaded.db.clone();
    let streams = workload::streams(args.kind, &args.sizes, round_seed(args.seed, round));
    let loaded_counts = match args.kind {
        Kind::Tatp => Some(check::table_counts(&db)?),
        _ => None,
    };
    let before = Snapshot::take(&db);
    let (mut results, window_s) = driver::drive(server.local_addr(), &streams);
    let after = Snapshot::take(&db);
    let versions_per_tuple = versions_per_tuple(&db);

    let mut problems: Vec<String> = results.iter().flat_map(|r| r.errors.clone()).collect();
    problems.extend(match args.kind {
        Kind::Tatp => check::row_counts(
            &db,
            loaded_counts.as_ref().expect("tatp loads counts"),
            &streams,
            &results,
        )?,
        Kind::SmallBank => check::wal_recovery(&db, &loaded.wal_path)?,
        Kind::Tpch | Kind::Htap => check::wire_vs_in_process(&db, &streams, &results)?,
    });
    // Checked; later rounds need only the timings.
    for outcome in results.iter_mut().flat_map(|r| r.outcomes.iter_mut()) {
        outcome.responses = None;
    }
    server.shutdown();
    drop(db);
    drop(loaded.db);
    let _ = std::fs::remove_file(&loaded.wal_path);
    Ok(Round {
        setup_s,
        runners_s: trained.as_ref().map_or(0.0, |t| t.runners_s),
        train_s: trained.as_ref().map_or(0.0, |t| t.train_s),
        interference_algorithm: trained.as_ref().map(|t| t.interference_algorithm.clone()),
        window_s,
        streams,
        results,
        before,
        after,
        versions_per_tuple,
        peak_rss_mb: None,
        problems,
        models: trained.map(|t| t.models),
    })
}

/// What an end-to-end run keeps of a round once it is checked.
pub struct Summary {
    pub setup_s: f64,
    pub ops_per_s: f64,
    /// Latencies of the successful operations of the measured streams.
    pub latencies_ms: Vec<f64>,
    /// `htap`'s interactive latencies (empty on the other workloads).
    pub interactive_ms: Vec<f64>,
    pub peak_rss_mb: Option<f64>,
    pub interference_algorithm: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Summary {
    pub fn of(kind: Kind, round: Round) -> Summary {
        let outcomes = || round.results.iter().flat_map(|r| r.outcomes.iter());
        Summary {
            setup_s: round.setup_s,
            ops_per_s: metrics::round_ops_per_s(kind, &round),
            latencies_ms: metrics::latencies_ms(kind, &round),
            interactive_ms: metrics::interactive_ms(&round),
            peak_rss_mb: round.peak_rss_mb,
            interference_algorithm: round.interference_algorithm,
            attempted: outcomes().count() as u64,
            failed: outcomes().filter(|o| !o.ok).count() as u64,
            problems: round.problems,
        }
    }
}

/// One in-process replay on a freshly loaded database; `traced` records
/// spans and the per-OU breakdown.
pub struct Replay {
    pub streams: Vec<ReplayStream>,
    pub ous: Option<OuTotals>,
}

pub fn replay_round(
    args: &Args,
    tag: &str,
    models: Option<&Arc<BehaviorModels>>,
    traced: bool,
) -> DbResult<Replay> {
    let loaded = workload::load(args.kind, &args.sizes, &args.out_dir, tag)?;
    let cfg = server_config(args.kind);
    let sched = Scheduler::new(cfg.max_inflight_queries, cfg.scheduler);
    if let Some(m) = models {
        sched.attach_models(m.clone());
    }
    let streams = workload::streams(args.kind, &args.sizes, round_seed(args.seed, 0));
    let ous = traced.then(OuTotals::default);
    let target = trace::Target {
        db: &loaded.db,
        sched: &sched,
        models: models.map(|m| m.as_ref()),
        recorder: ous.as_ref(),
    };
    let out = trace::replay(target, &streams);
    loaded.db.shutdown();
    let _ = std::fs::remove_file(&loaded.wal_path);
    Ok(Replay { streams: out, ous })
}

/// The result of a whole run, ready to print.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<metrics::Metric>,
    pub host: String,
    pub problems: Vec<String>,
}

fn host_json(args: &Args, rounds: &[Summary]) -> String {
    let tail = metrics::TAIL_PERCENTILE;
    let samples = rounds
        .iter()
        .map(|r| r.latencies_ms.len())
        .min()
        .unwrap_or(0);
    let interactive: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.interactive_ms.clone())
        .collect();
    let per_round = |f: &dyn Fn(&Summary) -> f64| -> String {
        let v: Vec<String> = rounds.iter().map(|r| json::num(f(r))).collect();
        format!("[{}]", v.join(","))
    };
    format!(
        "{{\"nproc\":{},\"client_threads\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"rounds\":{},\"tail_percentile\":{},\"tail_samples_beyond_per_round\":{},\
         \"interactive_latency_ms\":{},\
         \"round_setup_s\":{},\"round_ops_per_s\":{},\"round_latency_p50_ms\":{},\"round_latency_tail_ms\":{},\
         \"round_peak_rss_mb\":{},\"round_interference_model\":[{}],\"latency_ms\":{},\
         \"sizes\":{},\"engine\":{},\"server\":{}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload::client_threads(),
        json::quote(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        rounds.len(),
        tail,
        (samples as f64 * (1.0 - tail / 100.0)).floor(),
        percentiles(&interactive),
        per_round(&|r| r.setup_s),
        per_round(&|r| r.ops_per_s),
        per_round(&|r| metrics::median(&r.latencies_ms).unwrap_or(0.0)),
        per_round(&|r| metrics::percentile(&r.latencies_ms, tail).unwrap_or(0.0)),
        per_round(&|r| r.peak_rss_mb.unwrap_or(0.0)),
        rounds
            .iter()
            .filter_map(|r| r.interference_algorithm.as_deref().map(json::quote))
            .collect::<Vec<_>>()
            .join(","),
        percentiles(
            &rounds
                .iter()
                .flat_map(|r| r.latencies_ms.clone())
                .collect::<Vec<_>>()
        ),
        args.sizes.json(),
        workload::engine_config_json(),
        workload::server_config_json(args.kind),
    )
}

/// Percentiles of pooled latency samples, for the host block.
fn percentiles(lat: &[f64]) -> String {
    let fields: Vec<String> = [50.0, 90.0, 95.0, 99.0, 99.9]
        .iter()
        .map(|&p| {
            let v = metrics::percentile(lat, p).unwrap_or(0.0);
            format!("\"p{p}\":{}", json::num(v))
        })
        .collect();
    format!("{{\"samples\":{},{}}}", lat.len(), fields.join(","))
}

fn output(
    args: &Args,
    rounds: &[Summary],
    metrics: Vec<metrics::Metric>,
    extra_problems: Vec<String>,
) -> RunOutput {
    let mut problems: Vec<String> = rounds.iter().flat_map(|r| r.problems.clone()).collect();
    problems.extend(extra_problems);
    RunOutput {
        correct: problems.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
        host: host_json(args, rounds),
        problems,
    }
}

pub fn run(args: &Args) -> DbResult<RunOutput> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| DbError::Storage(format!("create {}: {e}", args.out_dir.display())))?;
    if args.trace {
        let round = tcp_round(args, 0)?;
        let plain = replay_round(args, "replay", round.models.as_ref(), false)?;
        let traced = replay_round(args, "traced", round.models.as_ref(), true)?;
        let spans_path =
            args.spans_dir
                .join(format!("spans-{}-{}.tsv", args.kind.name(), args.seed));
        trace::write_spans(&spans_path, &traced.streams)
            .map_err(|e| DbError::Storage(format!("write {}: {e}", spans_path.display())))?;
        let metrics = metrics::per_layer(args.kind, &round, &plain, &traced);
        let replay_errors: Vec<String> = [&plain, &traced]
            .iter()
            .flat_map(|r| r.streams.iter().flat_map(|s| s.errors.clone()))
            .collect();
        let summary = Summary::of(args.kind, round);
        return Ok(output(args, &[summary], metrics, replay_errors));
    }
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let round_started = Instant::now();
        rounds.push(Summary::of(args.kind, tcp_round(args, rounds.len())?));
        let per_round = round_started.elapsed().as_secs_f64();
        let elapsed = started.elapsed().as_secs_f64();
        // Stop once the time is used, or when another round would overrun
        // it by more than half a round.
        if rounds.len() >= MIN_ROUNDS && elapsed + 0.5 * per_round >= args.seconds {
            break;
        }
    }
    let metrics = metrics::end_to_end(&rounds);
    Ok(output(args, &rounds, metrics, Vec::new()))
}
