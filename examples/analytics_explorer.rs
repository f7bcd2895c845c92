//! Analytics explorer: run the TPC-H-derived analytical workload, print
//! EXPLAIN-style plans, and show how the engine's two execution modes (the
//! interpret/compile behavior knob, paper §4.2) change query latency.
//!
//! Run with: `cargo run --release --example analytics_explorer`

use mb2::common::Prng;
use mb2::engine::exec::ExecutionMode;
use mb2::engine::{Database, Knob};
use mb2::workloads::tpch::Tpch;
use mb2::workloads::Workload;

fn main() {
    println!("== TPC-H analytics explorer ==");
    let tpch = Tpch::with_scale(0.25);
    let db = Database::open();
    println!(
        "loading TPC-H at scale 0.25 ({} lineitem rows)...",
        tpch.lineitem_rows()
    );
    tpch.load(&db).unwrap();

    let mut rng = Prng::new(7);
    for template in tpch.template_names() {
        let sql = tpch.query(template, &mut rng);
        let plan = db.prepare(&sql).unwrap();
        println!("\n--- {template} ---");
        println!("{sql}");
        print!("{}", plan.explain());

        let mut timings = Vec::new();
        for mode in [ExecutionMode::Interpret, ExecutionMode::Compiled] {
            db.set_knob(Knob::ExecutionMode, mode).unwrap();
            db.execute_plan(&plan, None).unwrap(); // warm-up
            let started = std::time::Instant::now();
            let result = db.execute_plan(&plan, None).unwrap();
            timings.push((mode, started.elapsed(), result.rows.len()));
        }
        for (mode, elapsed, rows) in &timings {
            println!("{mode:?}: {elapsed:.2?} ({rows} rows)");
        }
        let speedup = timings[0].1.as_secs_f64() / timings[1].1.as_secs_f64().max(1e-9);
        println!("compiled-mode speedup: {speedup:.2}x");
    }
}
