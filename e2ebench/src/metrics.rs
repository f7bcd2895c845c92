//! Turning rounds and replays into named metrics.

use mb2_common::OuKind;

use crate::counters::{ratio, Delta};
use crate::trace::LAYERS;
use crate::workload::Kind;
use crate::{Replay, Round, Summary, MIN_ROUNDS};

/// One reported metric. `value: None` marks a metric that does not apply
/// to the workload (printed as 0 and listed as not applicable).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The tail percentile of every workload. `latency_tail_ms` is the median
/// over rounds of each round's p95 (tatp 300 samples beyond it in a
/// full-size round, smallbank 600, tpch about 4, htap's analytic stream
/// about 15), so a round hit by a host stall does not move it. Higher
/// percentiles sit among the operations that a GC pass or a conflict retry
/// delays, and moved by most of their own median from run to run on a
/// shared 2-core host.
pub const TAIL_PERCENTILE: f64 = 95.0;

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The process's current resident set size in MB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Streams whose completions and latencies are the workload's
/// end-to-end throughput and latency: all of them, except `htap`'s
/// open-loop interactive stream, which the traced run reports per layer.
fn is_measured_stream(kind: Kind, name: &str) -> bool {
    kind != Kind::Htap || name == "analytic"
}

pub fn round_ops_per_s(kind: Kind, round: &Round) -> f64 {
    let done: usize = round
        .streams
        .iter()
        .zip(&round.results)
        .filter(|(s, _)| is_measured_stream(kind, s.name))
        .map(|(_, r)| r.outcomes.iter().filter(|o| o.ok).count())
        .sum();
    done as f64 / round.window_s
}

pub fn latencies_ms(kind: Kind, round: &Round) -> Vec<f64> {
    streams_latencies_ms(round, |name| is_measured_stream(kind, name))
}

/// `htap`'s open-loop interactive latencies, timed from when each request
/// was due (empty on the other workloads).
pub fn interactive_ms(round: &Round) -> Vec<f64> {
    streams_latencies_ms(round, |name| name == "interactive")
}

fn streams_latencies_ms(round: &Round, pick: impl Fn(&str) -> bool) -> Vec<f64> {
    round
        .streams
        .iter()
        .zip(&round.results)
        .filter(|(s, _)| pick(s.name))
        .flat_map(|(_, r)| {
            r.outcomes
                .iter()
                .filter(|o| o.ok)
                .map(|o| o.latency_us / 1e3)
        })
        .collect()
}

pub fn end_to_end(rounds: &[Summary]) -> Vec<Metric> {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let ops: Vec<f64> = rounds.iter().map(|r| r.ops_per_s).collect();
    let lat: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    let tails: Vec<f64> = rounds
        .iter()
        .filter_map(|r| percentile(&r.latencies_ms, TAIL_PERCENTILE))
        .collect();
    // Freed memory is not always returned to the OS, so the resident set
    // creeps up over rounds; use the first MIN_ROUNDS rounds every run has.
    let rss: Vec<f64> = rounds
        .iter()
        .take(MIN_ROUNDS)
        .filter_map(|r| r.peak_rss_mb)
        .collect();
    vec![
        metric("setup_s", "s", median(&setup)),
        metric("ops_per_s", "1/s", median(&ops)),
        metric("latency_p50_ms", "ms", median(&lat)),
        metric("latency_tail_ms", "ms", median(&tails)),
        metric("peak_rss_mb", "MB", median(&rss)),
    ]
}

/// Total duration (µs) and count of the spans named `name`.
fn span_totals(replay: &Replay, name: &str) -> (f64, f64) {
    let mut total_ns = 0u64;
    let mut count = 0u64;
    for s in replay.streams.iter().flat_map(|s| s.spans.iter()) {
        if s.name == name {
            total_ns += s.end_ns - s.start_ns;
            count += 1;
        }
    }
    (total_ns as f64 / 1e3, count as f64)
}

fn span_mean_us(replay: &Replay, name: &str) -> Option<f64> {
    let (total, count) = span_totals(replay, name);
    (count > 0.0).then(|| total / count)
}

fn some_ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| ratio(num, den))
}

/// Last-decile over first-decile completion rate of the throughput
/// streams within the round.
fn drift_ratio(kind: Kind, round: &Round) -> Option<f64> {
    let mut done: Vec<f64> = round
        .streams
        .iter()
        .zip(&round.results)
        .filter(|(s, _)| is_measured_stream(kind, s.name))
        .flat_map(|(_, r)| r.outcomes.iter().filter(|o| o.ok).map(|o| o.done_at_us))
        .collect();
    done.sort_by(f64::total_cmp);
    let n = done.len();
    let k = n / 10;
    if k == 0 {
        return None;
    }
    let first = k as f64 / done[k - 1];
    let last = k as f64 / (done[n - 1] - done[n - 1 - k]);
    (first.is_finite() && last.is_finite() && first > 0.0).then(|| last / first)
}

/// Weighted per-op means over streams: Σ_s mean_a(s)·w(s) / Σ_s mean_b(s)·w(s).
fn weighted_ratio(pairs: &[(f64, f64, f64)]) -> Option<f64> {
    let num: f64 = pairs.iter().map(|(a, _, w)| a * w).sum();
    let den: f64 = pairs.iter().map(|(_, b, w)| b * w).sum();
    some_ratio(num, den)
}

pub fn per_layer<'a>(
    kind: Kind,
    round: &Round,
    plain: &'a Replay,
    traced: &'a Replay,
) -> Vec<Metric> {
    let d = Delta {
        before: &round.before,
        after: &round.after,
    };
    let traced_ops: f64 = traced.streams.iter().map(|s| s.op_us.len() as f64).sum();
    let tcp_ops: f64 = round.results.iter().map(|r| r.outcomes.len() as f64).sum();
    let statements: f64 = traced.streams.iter().map(|s| s.statements as f64).sum();
    let commits = d.count("mb2_txn_commits_total");
    let morsels = d.count("mb2_exec_pool_morsels_total");
    let models = kind == Kind::Htap;

    // Per stream: mean traced layer time per op, mean untraced TCP latency
    // per op, and mean replay op time traced / untraced.
    let mut explained = Vec::new();
    let mut overhead = Vec::new();
    for (i, result) in round.results.iter().enumerate() {
        let conns = |r: &'a Replay| r.streams.iter().filter(move |c| c.stream == i);
        let traced_us: Vec<f64> = conns(traced).flat_map(|c| c.op_us.clone()).collect();
        let plain_us: Vec<f64> = conns(plain).flat_map(|c| c.op_us.clone()).collect();
        let n = traced_us.len() as f64;
        if n == 0.0 {
            continue;
        }
        let layer_us: f64 = conns(traced)
            .flat_map(|c| c.spans.iter())
            .filter(|s| LAYERS.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum::<f64>()
            / n;
        let tcp: Vec<f64> = result
            .outcomes
            .iter()
            .filter(|o| o.ok)
            .map(|o| o.latency_us)
            .collect();
        if let Some(tcp_mean) = mean(&tcp) {
            explained.push((layer_us, tcp_mean, tcp.len() as f64));
        }
        if let (Some(a), Some(b)) = (mean(&traced_us), mean(&plain_us)) {
            overhead.push((a, b, n));
        }
    }
    let predict: Vec<f64> = traced
        .streams
        .iter()
        .flat_map(|s| s.predict_us.clone())
        .collect();
    let pred_over_obs: Vec<f64> = traced
        .streams
        .iter()
        .flat_map(|s| s.pred_over_obs.clone())
        .collect();
    let sum = |f: &dyn Fn(&crate::trace::ReplayStream) -> u64| -> f64 {
        traced.streams.iter().map(|s| f(s) as f64).sum()
    };
    let attempts: f64 = round.results.iter().map(|r| r.attempts() as f64).sum();
    let failed_attempts: f64 = round
        .results
        .iter()
        .map(|r| r.failed_attempts() as f64)
        .sum();
    let late: Vec<f64> = round
        .results
        .iter()
        .flat_map(|r| r.late_us.clone())
        .collect();
    let interactive = interactive_ms(round);

    let mut out = vec![
        metric("sql.parse_us", "us", span_mean_us(traced, "sql.parse")),
        metric("sql.plan_us", "us", span_mean_us(traced, "sql.plan")),
        metric(
            "sql.plan_cache_hit_ratio",
            "ratio",
            some_ratio(
                d.count("mb2_plan_cache_hits_total"),
                d.count("mb2_plan_cache_hits_total") + d.count("mb2_plan_cache_misses_total"),
            ),
        ),
        metric(
            "server.decode_us",
            "us",
            span_mean_us(traced, "server.decode"),
        ),
        metric(
            "server.encode_us",
            "us",
            span_mean_us(traced, "server.encode"),
        ),
        metric(
            "server.frames_per_op",
            "count",
            some_ratio(sum(&|s| s.frames), traced_ops),
        ),
        metric(
            "server.bytes_per_op",
            "bytes",
            some_ratio(sum(&|s| s.bytes), traced_ops),
        ),
        metric(
            "server.admission_wait_us",
            "us",
            some_ratio(span_totals(traced, "server.admit").0, statements),
        ),
        metric(
            "server.shed_ratio",
            "ratio",
            some_ratio(
                d.count("mb2_server_queries_rejected_total"),
                d.count("mb2_server_queries_total"),
            ),
        ),
        metric("core.predict_us", "us", mean(&predict)),
        metric("core.pred_over_obs", "ratio", median(&pred_over_obs)),
        metric("core.runners_s", "s", models.then_some(round.runners_s)),
        metric("core.train_s", "s", models.then_some(round.train_s)),
        metric(
            "exec.execute_us",
            "us",
            span_mean_us(traced, "exec.execute"),
        ),
        metric(
            "exec.rows_examined_per_row",
            "ratio",
            traced
                .ous
                .as_ref()
                .and_then(|o| some_ratio(o.scan_tuples() as f64, sum(&|s| s.result_rows))),
        ),
        metric(
            "exec.pool_morsels_per_op",
            "count",
            some_ratio(morsels, tcp_ops),
        ),
        metric(
            "exec.pool_steal_ratio",
            "ratio",
            some_ratio(d.count("mb2_exec_pool_steals_total"), morsels),
        ),
        metric("txn.begin_us", "us", span_mean_us(traced, "txn.begin")),
        metric("txn.commit_us", "us", span_mean_us(traced, "txn.commit")),
        metric(
            "txn.abort_ratio",
            "ratio",
            some_ratio(
                d.count("mb2_txn_aborts_total"),
                d.count("mb2_txn_begins_total"),
            ),
        ),
        metric(
            "txn.gc_pause_us",
            "us",
            (d.hist_count("mb2_gc_pause_us") > 0.0).then(|| d.hist_mean("mb2_gc_pause_us")),
        ),
        metric(
            "txn.gc_reclaimed_per_commit",
            "count",
            some_ratio(d.count("mb2_gc_versions_reclaimed_total"), commits),
        ),
        metric(
            "wal.bytes_per_commit",
            "bytes",
            some_ratio(d.count("mb2_wal_bytes_serialized_total"), commits),
        ),
        metric(
            "wal.commits_per_flush",
            "count",
            some_ratio(commits, d.count("mb2_wal_flush_calls_total")),
        ),
        metric(
            "wal.flush_us",
            "us",
            (d.hist_count("mb2_wal_flush_latency_us") > 0.0)
                .then(|| d.hist_mean("mb2_wal_flush_latency_us")),
        ),
        metric(
            "index.latch_contended_ratio",
            "ratio",
            some_ratio(
                d.count("mb2_index_latch_contended_total"),
                d.count("mb2_index_latch_acquires_total"),
            ),
        ),
        metric(
            "storage.versions_per_tuple",
            "ratio",
            round.versions_per_tuple,
        ),
        metric("engine.drift_ratio", "ratio", drift_ratio(kind, round)),
        metric(
            "engine.unexplained_share",
            "ratio",
            weighted_ratio(&explained).map(|r| 1.0 - r),
        ),
        metric(
            "engine.tracing_overhead",
            "ratio",
            weighted_ratio(&overhead),
        ),
        metric(
            "client.error_rate",
            "ratio",
            some_ratio(failed_attempts, attempts),
        ),
        metric(
            "client.generator_late_ms",
            "ms",
            percentile(&late, 99.0).map(|us| us / 1e3),
        ),
        metric("client.interactive_p50_ms", "ms", median(&interactive)),
        metric(
            "client.interactive_tail_ms",
            "ms",
            percentile(&interactive, 99.0),
        ),
    ];
    let ous = traced.ous.as_ref();
    out.extend(OuKind::ALL.iter().map(|&ou| {
        let total = ous.map_or(0.0, |o| o.elapsed_us(ou));
        metric(
            format!("exec.ou_us.{}", ou.name()),
            "us",
            (total > 0.0).then(|| total / traced_ops),
        )
    }));
    out
}
