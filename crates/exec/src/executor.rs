//! Plan execution: dispatch, node numbering, and result assembly.

use mb2_common::types::Tuple;
use mb2_common::DbResult;
use mb2_sql::PlanNode;

use crate::batch::{self, Batch};
use crate::context::ExecContext;
use crate::ops;

/// Result of executing one plan.
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Rows returned to the client (SELECT).
    pub rows: Vec<Tuple>,
    /// Rows written (INSERT/UPDATE/DELETE), or index entries built.
    pub rows_affected: usize,
}

/// Number of nodes in the subtree rooted at `node` (including itself).
/// Node ids are assigned in pre-order: a node's first child is `id + 1`, its
/// second child is `id + 1 + subtree_size(first_child)`. The OU translator in
/// `mb2-core` uses the identical numbering so plan-derived features join
/// with execution-measured labels.
pub fn subtree_size(node: &PlanNode) -> u32 {
    1 + node.children().iter().map(|c| subtree_size(c)).sum::<u32>()
}

/// Execute a plan to completion inside the context's transaction,
/// materializing all result rows.
pub fn execute(plan: &PlanNode, ctx: &mut ExecContext<'_>) -> DbResult<QueryResult> {
    collect(|sink| execute_batched(plan, ctx, sink))
}

/// Materialize a streamed execution: `run` gets a sink that collects every
/// result batch, and the count it returns becomes `rows_affected`.
pub fn collect(
    run: impl FnOnce(&mut dyn FnMut(Batch) -> DbResult<()>) -> DbResult<usize>,
) -> DbResult<QueryResult> {
    let mut rows: Vec<Tuple> = Vec::new();
    let rows_affected = run(&mut |b: Batch| {
        rows.reserve(b.rows.len());
        for row in b.rows {
            rows.push(batch::into_owned(row));
        }
        Ok(())
    })?;
    Ok(QueryResult {
        rows_affected,
        rows,
    })
}

/// Execute a plan, streaming result batches to `on_batch` instead of
/// materializing them. DML and DDL-action plans run to completion without
/// invoking the callback. Returns the number of result rows streamed, or
/// the rows-affected count for write plans.
pub fn execute_batched(
    plan: &PlanNode,
    ctx: &mut ExecContext<'_>,
    on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
) -> DbResult<usize> {
    match plan {
        PlanNode::Insert { table, rows, .. } => ops::insert(table, rows, ctx, 0),
        PlanNode::Update {
            table,
            scan,
            assignments,
            ..
        } => ops::update(table, scan, assignments, ctx, 0),
        PlanNode::Delete { table, scan, .. } => ops::delete(table, scan, ctx, 0),
        PlanNode::CreateIndex {
            table,
            index,
            columns,
            threads,
            ..
        } => ops::create_index(table, index, columns, *threads, ctx, 0),
        _ => batch::run_query(plan, ctx, on_batch),
    }
}
