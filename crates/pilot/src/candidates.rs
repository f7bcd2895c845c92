//! Candidate-action enumeration.
//!
//! Each tick the pilot derives a bounded, deterministic set of candidate
//! [`Action`]s from the current forecast and engine state:
//!
//! * **Index builds** — for every sequential scan in a forecast plan
//!   whose filter contains an equality predicate on a column, propose a
//!   secondary index on that column (unless one already covers it).
//!   Pilot-built indexes are named `pilot_<table>_<column>` so they are
//!   recognizable and safely droppable later.
//! * **Index drops** — pilot-built indexes that no plan in the current
//!   forecast scans. The pilot only ever proposes dropping indexes it
//!   built itself; user-created indexes are out of bounds.
//! * **Knob flips** — every row of the engine's [`Knob`] table, stepped
//!   up/down (or toggled) from its current value by the row's step rule
//!   and priced as the [`Action`] docs describe.

use std::collections::BTreeSet;

use mb2_core::planner::Action;
use mb2_core::WorkloadForecast;
use mb2_engine::sql::{BinOp, BoundExpr, PlanNode};
use mb2_engine::{Database, Knob};

use crate::config::PilotConfig;

/// Collect `(table, column_position)` pairs of equality predicates under
/// sequential scans anywhere in the plan tree.
fn seq_scan_eq_columns(plan: &PlanNode, out: &mut BTreeSet<(String, usize)>) {
    match plan {
        PlanNode::SeqScan { table, filter, .. } => {
            if let Some(expr) = filter {
                collect_eq_cols(expr, table, out);
            }
        }
        PlanNode::IndexScan { .. } | PlanNode::Insert { .. } | PlanNode::CreateIndex { .. } => {}
        PlanNode::HashJoin { build, probe, .. } => {
            seq_scan_eq_columns(build, out);
            seq_scan_eq_columns(probe, out);
        }
        PlanNode::NestedLoopJoin { outer, inner, .. } => {
            seq_scan_eq_columns(outer, out);
            seq_scan_eq_columns(inner, out);
        }
        PlanNode::Aggregate { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Output { input, .. } => seq_scan_eq_columns(input, out),
        PlanNode::Update { scan, .. } | PlanNode::Delete { scan, .. } => {
            seq_scan_eq_columns(scan, out)
        }
    }
}

/// Find `col = literal` (or `literal = col`) conjuncts in a scan filter.
fn collect_eq_cols(expr: &BoundExpr, table: &str, out: &mut BTreeSet<(String, usize)>) {
    if let BoundExpr::Binary { op, left, right } = expr {
        match op {
            BinOp::Eq => match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Col(i), BoundExpr::Lit(_)) | (BoundExpr::Lit(_), BoundExpr::Col(i)) => {
                    out.insert((table.to_string(), *i));
                }
                _ => {}
            },
            BinOp::And | BinOp::Or => {
                collect_eq_cols(left, table, out);
                collect_eq_cols(right, table, out);
            }
            _ => {}
        }
    }
}

/// Index names referenced by index scans anywhere in the plan tree.
fn referenced_indexes(plan: &PlanNode, out: &mut BTreeSet<String>) {
    match plan {
        PlanNode::IndexScan { index, .. } => {
            out.insert(index.to_ascii_lowercase());
        }
        PlanNode::SeqScan { .. } | PlanNode::Insert { .. } | PlanNode::CreateIndex { .. } => {}
        PlanNode::HashJoin { build, probe, .. } => {
            referenced_indexes(build, out);
            referenced_indexes(probe, out);
        }
        PlanNode::NestedLoopJoin { outer, inner, .. } => {
            referenced_indexes(outer, out);
            referenced_indexes(inner, out);
        }
        PlanNode::Aggregate { input, .. }
        | PlanNode::Filter { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Output { input, .. } => referenced_indexes(input, out),
        PlanNode::Update { scan, .. } | PlanNode::Delete { scan, .. } => {
            referenced_indexes(scan, out)
        }
    }
}

/// Enumerate the candidate actions for one tick. `built_indexes` is the
/// set of `(index_name, table)` pairs the pilot itself created and still
/// owns; only those are eligible for drop candidates. The output order is
/// deterministic (index actions sorted, then knobs in a fixed order) so a
/// given seed always breaks gain ties the same way.
pub fn enumerate(
    db: &Database,
    forecast: &WorkloadForecast,
    built_indexes: &[(String, String)],
    config: &PilotConfig,
) -> Vec<Action> {
    let mut actions = Vec::new();

    // Index builds: seq-scanned equality columns without a covering index.
    let mut eq_cols = BTreeSet::new();
    let mut used_indexes = BTreeSet::new();
    for t in &forecast.templates {
        seq_scan_eq_columns(&t.plan, &mut eq_cols);
        referenced_indexes(&t.plan, &mut used_indexes);
    }
    for (table, col) in &eq_cols {
        let Ok(entry) = db.catalog().get(table) else {
            continue;
        };
        // Skip when any existing index already leads with this column.
        if entry
            .indexes()
            .iter()
            .any(|idx| idx.key_columns.first() == Some(col))
        {
            continue;
        }
        let col_name = entry.table.schema().column(*col).name.clone();
        let index = format!("pilot_{table}_{col_name}");
        if entry.index_named(&index).is_some() {
            continue;
        }
        actions.push(Action::BuildIndex {
            sql: format!(
                "CREATE INDEX {index} ON {table} ({col_name}) WITH (THREADS = {})",
                config.index_build_threads
            ),
            table: table.clone(),
            index,
            columns: vec![col_name],
            threads: config.index_build_threads,
        });
    }

    // Index drops: pilot-built indexes no forecast plan scans.
    let mut drops: Vec<&(String, String)> = built_indexes
        .iter()
        .filter(|(index, _)| !used_indexes.contains(&index.to_ascii_lowercase()))
        .collect();
    drops.sort();
    for (index, table) in drops {
        // The index may have been dropped out from under us by a user.
        let still_there = db
            .catalog()
            .get(table)
            .map(|e| e.index_named(index).is_some())
            .unwrap_or(false);
        if still_there {
            actions.push(Action::DropIndex {
                table: table.clone(),
                index: index.clone(),
            });
        }
    }

    // Knob flips, in knob-table order, each stepped per its table rule.
    for knob in Knob::ALL {
        for value in knob.steps(db) {
            actions.push(Action::SetKnob(knob, value));
        }
    }

    actions
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use mb2_engine::{DatabaseConfig, KnobValue};

    #[test]
    fn knob_candidates_keep_table_order() {
        let db = Database::new(DatabaseConfig {
            gc_interval: Some(Duration::from_millis(40)),
            compaction_interval: Some(Duration::from_millis(40)),
            ..DatabaseConfig::default()
        })
        .unwrap();
        db.set_knob(Knob::Parallelism, KnobValue::Count(2)).unwrap();
        let forecast = WorkloadForecast::new(Vec::new(), 2);
        let labels: Vec<&str> = enumerate(&db, &forecast, &[], &PilotConfig::default())
            .iter()
            .map(Action::label)
            .collect();
        assert_eq!(
            labels,
            [
                "set_execution_mode",
                "set_batch_size",
                "set_batch_size",
                "set_parallelism",
                "set_parallelism",
                "set_wal_flush_interval",
                "set_wal_flush_interval",
                "set_gc_interval",
                "set_gc_interval",
                "set_columnar_enabled",
                "set_compaction_interval",
                "set_compaction_interval",
            ]
        );
        db.shutdown();
    }
}
