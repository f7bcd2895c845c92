//! The TCP driver: one client thread and one connection per stream,
//! closed or open loop, timing every operation on the client side.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mb2_common::{DbError, DbResult};
use mb2_server::{Client, QueryResponse};

use crate::workload::{Op, Pacing, Stream};

/// Attempts per operation before it counts as failed. Conflict aborts and
/// `Busy` replies are retried from the top of the transaction, as an
/// application would; every retried attempt still counts in the error rate.
pub const MAX_ATTEMPTS: u32 = 50;

/// Operations attempted so far in this process (read by the watchdog).
pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);

/// The outcome of one operation.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Index into the stream's op list.
    pub op: usize,
    /// Client-side latency in microseconds (open loop: from the due time).
    pub latency_us: f64,
    /// Completion time since the round started, in microseconds.
    pub done_at_us: f64,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
    pub ok: bool,
    /// Responses to the op's statements (BEGIN/COMMIT excluded), kept only
    /// on the first pass over the stream.
    pub responses: Option<Vec<QueryResponse>>,
}

#[derive(Debug, Default)]
pub struct StreamResult {
    pub outcomes: Vec<OpOutcome>,
    /// How late the open-loop generator sent each request, microseconds.
    pub late_us: Vec<f64>,
    pub errors: Vec<String>,
}

impl StreamResult {
    pub fn attempts(&self) -> u64 {
        self.outcomes.iter().map(|o| o.attempts as u64).sum()
    }

    pub fn failed_attempts(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| (o.attempts - o.ok as u32) as u64)
            .sum()
    }
}

/// Errors after which the whole operation is retried.
pub fn retryable(e: &DbError) -> bool {
    matches!(e, DbError::WriteConflict { .. } | DbError::ServerBusy(_))
}

/// Pause before retry number `attempt` (1-based): exponential from 100 µs,
/// capped at 5 ms, so a retry does not spin against the transaction that
/// holds the conflicting write.
pub fn backoff(attempt: u32) -> Duration {
    Duration::from_micros(100u64 << attempt.saturating_sub(1).min(6)).min(Duration::from_millis(5))
}

fn run_op(client: &mut Client, op: &Op) -> DbResult<Vec<QueryResponse>> {
    if op.explicit {
        client.execute_transaction(&op.stmts)
    } else {
        op.stmts.iter().map(|sql| client.query(sql)).collect()
    }
}

/// Run one operation with retries. Returns (responses, attempts).
fn run_with_retry(
    client: &mut Client,
    op: &Op,
    errors: &mut Vec<String>,
) -> (Option<Vec<QueryResponse>>, u32) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match run_op(client, op) {
            Ok(r) => return (Some(r), attempts),
            Err(e) if retryable(&e) && attempts < MAX_ATTEMPTS => {
                let hint = client.last_retry_hint().unwrap_or_default();
                std::thread::sleep(backoff(attempts).max(hint.min(Duration::from_millis(20))));
            }
            Err(e) => {
                if errors.len() < 8 {
                    errors.push(format!("{e} (sql: {})", op.stmts.join("; ")));
                }
                return (None, attempts);
            }
        }
    }
}

/// Serve `stream` over one connection until the stream is done. Open-loop
/// connections raise `open_done` when they finish; it ends
/// `ClosedUntilOpenDone` streams.
fn drive_connection(
    addr: SocketAddr,
    stream: &Stream,
    cursor: &AtomicUsize,
    start: Instant,
    open_done: &AtomicBool,
) -> StreamResult {
    let mut result = StreamResult::default();
    let mut client = match Client::connect_with(addr, stream.tenant, stream.tier) {
        Ok(c) => c,
        Err(e) => {
            result.errors.push(format!("connect: {e}"));
            return result;
        }
    };
    // A hung server turns into failed operations, not a wedged client.
    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
    let n = stream.ops.len();
    while let Some(i) = stream.next(cursor, open_done) {
        let t0 = match stream.due(start, i) {
            Some(due) => {
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                result
                    .late_us
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                due
            }
            None => Instant::now(),
        };
        ATTEMPTED.fetch_add(1, Ordering::Relaxed);
        let op = &stream.ops[i % n];
        let (responses, attempts) = run_with_retry(&mut client, op, &mut result.errors);
        let done = Instant::now();
        result.outcomes.push(OpOutcome {
            op: i % n,
            latency_us: done.saturating_duration_since(t0).as_secs_f64() * 1e6,
            done_at_us: done.saturating_duration_since(start).as_secs_f64() * 1e6,
            attempts,
            ok: responses.is_some(),
            responses: if i < n { responses } else { None },
        });
    }
    if matches!(stream.pacing, Pacing::Open { .. }) {
        open_done.store(true, Ordering::Release);
    }
    result
}

/// Drive every stream of a round concurrently, each over its own
/// connections; returns per-stream results and the wall time of the
/// measured window in seconds.
pub fn drive(addr: SocketAddr, streams: &[Stream]) -> (Vec<StreamResult>, f64) {
    let open_done = AtomicBool::new(
        !streams
            .iter()
            .any(|s| matches!(s.pacing, Pacing::Open { .. })),
    );
    let cursors: Vec<AtomicUsize> = streams.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<Vec<_>> = streams
            .iter()
            .zip(&cursors)
            .map(|(s, cursor)| {
                (0..s.conns)
                    .map(|_| {
                        let open_done = &open_done;
                        scope.spawn(move || drive_connection(addr, s, cursor, start, open_done))
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|conns| {
                let mut merged = StreamResult::default();
                for h in conns {
                    let r = h.join().expect("client thread panicked");
                    merged.outcomes.extend(r.outcomes);
                    merged.late_us.extend(r.late_us);
                    merged.errors.extend(r.errors);
                }
                merged
            })
            .collect::<Vec<_>>()
    });
    (results, start.elapsed().as_secs_f64())
}
