//! Minimal interactive SQL shell over the embedded engine.
//!
//! Commands:
//! * regular SQL statements terminated by `;`
//! * `\explain <query>` prints the optimizer plan with cardinality estimates
//! * `\mode interpret|compiled` flips the execution-mode knob
//! * `\quit` exits
//!
//! Run with: `cargo run --release --example sql_shell`

use std::io::{BufRead, Write};

use mb2::engine::exec::ExecutionMode;
use mb2::engine::{Database, Knob};

fn main() {
    let db = Database::open();
    let mut session = db.session();
    println!("mb2 sql shell — type \\quit to exit");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("mb2> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().unwrap();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.starts_with('\\') {
            let mut parts = line.splitn(2, ' ');
            match parts.next().unwrap_or("") {
                "\\quit" | "\\q" => break,
                "\\mode" => match parts.next().map(str::trim) {
                    Some("interpret") => {
                        db.set_knob(Knob::ExecutionMode, ExecutionMode::Interpret)
                            .unwrap();
                        println!("execution mode: interpret");
                    }
                    Some("compiled") => {
                        db.set_knob(Knob::ExecutionMode, ExecutionMode::Compiled)
                            .unwrap();
                        println!("execution mode: compiled");
                    }
                    _ => println!("usage: \\mode interpret|compiled"),
                },
                "\\explain" => match parts.next() {
                    Some(sql) => match db.prepare(sql.trim_end_matches(';')) {
                        Ok(plan) => print!("{}", plan.explain()),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: \\explain <query>"),
                },
                other => println!("unknown command {other}"),
            }
            continue;
        }
        buffer.push_str(line);
        buffer.push(' ');
        if !line.ends_with(';') {
            continue;
        }
        let sql = buffer.trim_end().trim_end_matches(';').to_string();
        buffer.clear();
        if sql.trim().is_empty() {
            continue;
        }
        let started = std::time::Instant::now();
        match session.execute(&sql) {
            Ok(result) => {
                for row in result.rows.iter().take(50) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("{}", cells.join(" | "));
                }
                if result.rows.len() > 50 {
                    println!("... ({} rows total)", result.rows.len());
                }
                println!(
                    "-- {} rows in {:.2?}",
                    result.rows_affected.max(result.rows.len()),
                    started.elapsed()
                );
            }
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}
