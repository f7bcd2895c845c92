//! Command-line entry point; see the library docs for what a run does.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use mb2_e2ebench::driver::ATTEMPTED;
use mb2_e2ebench::json::{num, quote};
use mb2_e2ebench::workload::{Kind, Sizes};
use mb2_e2ebench::{run, Args, RunOutput};

/// A run that has not finished after this long is declared hung: it ends
/// as a failed run with every attempted operation counted as failed.
const WATCHDOG: Duration = Duration::from_secs(165);

const USAGE: &str = "usage: e2ebench --workload <tatp|smallbank|tpch|htap> --seed <n> \
                     --seconds <s> --trace <0|1> [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sizes = Sizes::full();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                sizes = match value.as_str() {
                    "full" => Sizes::full(),
                    "tiny" => Sizes::tiny(),
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let scratch = PathBuf::from(".e2ebench");
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes,
        out_dir: scratch.join(format!("run-{}", std::process::id())),
        spans_dir: scratch,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}

fn print_output(out: &RunOutput) {
    let not_applicable: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| quote(&m.name))
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| quote(p)).collect();
    println!(
        "{{\"host\": {}, \"not_applicable\": [{}], \"problems\": [{}]}}",
        out.host,
        not_applicable.join(", "),
        problems.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value.unwrap_or(0.0)),
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &metrics.join(", "))
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out_dir.clone();
    {
        // Detached on purpose: it either never wakes before the process
        // exits, or it ends the process itself.
        let scratch = scratch.clone();
        std::thread::spawn(move || {
            std::thread::sleep(WATCHDOG);
            let attempted = ATTEMPTED.load(Ordering::Relaxed);
            eprintln!("watchdog: run still going after {WATCHDOG:?}; failing it");
            println!("{}", result_line(false, attempted, attempted.max(1), ""));
            let _ = std::fs::remove_dir_all(&scratch);
            std::process::exit(3);
        });
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("check failed: {p}");
            }
            print_output(&out);
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            let attempted = ATTEMPTED.load(Ordering::Relaxed);
            println!("{}", result_line(false, attempted, attempted.max(1), ""));
            ExitCode::FAILURE
        }
    }
}
