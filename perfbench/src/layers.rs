//! Traced stand-ins for `Database::execute`: the same work, done through
//! the public calls the statement makes internally, one span per call.

use crate::trace::Tracer;
use mlcs_columnar::sql::execute::{evaluate_scalar_subqueries, execute_plan_traced, PlanTrace};
use mlcs_columnar::sql::optimizer::optimize_with_stats;
use mlcs_columnar::sql::{
    bind, parse, substitute_in_plan, BoundStatement, ExecOptions, LogicalPlan,
};
use mlcs_columnar::{metrics, verify_plan, Batch, Database, DbError, DbResult, Table};
use std::time::Duration;

/// Registry name of an operator, as `exec.<op>.time_ns` spells it.
fn op_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "exec.scan",
        LogicalPlan::UnitRow => "exec.unit_row",
        LogicalPlan::TableFunction { .. } => "exec.table_function",
        LogicalPlan::Filter { .. } => "exec.filter",
        LogicalPlan::Project { .. } => "exec.project",
        LogicalPlan::Join { .. } => "exec.hash_join",
        LogicalPlan::Aggregate { .. } => "exec.aggregate",
        LogicalPlan::Sort { .. } => "exec.sort",
        LogicalPlan::Limit { .. } => "exec.limit",
        LogicalPlan::Distinct { .. } => "exec.distinct",
        LogicalPlan::UnionAll { .. } => "exec.union_all",
    }
}

/// Attributes each executed node's self time (inclusive time minus its
/// children's) to its operator, as splits of the open span.
fn split_operators(t: &mut Tracer, plan: &LogicalPlan, trace: &PlanTrace) {
    let inclusive = |p: &LogicalPlan| trace.get(p).map_or(Duration::ZERO, |s| s.elapsed);
    let children = plan.children();
    let below: Duration = children.iter().map(|c| inclusive(c)).sum();
    t.split(op_name(plan), inclusive(plan).saturating_sub(below));
    for c in children {
        split_operators(t, c, trace);
    }
}

/// Runs a `SELECT` or `CREATE TABLE … AS SELECT` as `db.execute` would —
/// parse, bind, scalar subqueries, optimize, verify, execute, and for
/// CTAS `Table::from_batch` plus the catalog put — with a span per call.
/// Returns the query result, or the CTAS result that became the table.
pub fn traced_statement(t: &mut Tracer, db: &Database, sql: &str) -> DbResult<Batch> {
    let stmt = t.span("sql.parse", |_| parse(sql))?;
    let bound = t.span("sql.bind", |_| bind(stmt, db.catalog(), db.functions()))?;
    let (mut plan, subs, ctas) = match bound {
        BoundStatement::Query { plan, scalar_subs } => (plan, scalar_subs, None),
        BoundStatement::CreateTableAs { name, plan, scalar_subs, .. } => {
            (plan, scalar_subs, Some(name))
        }
        _ => return Err(DbError::internal("traced_statement takes SELECT or CTAS")),
    };
    let catalog = db.catalog();
    let functions = db.functions();
    if !subs.is_empty() {
        // A plain SELECT optimizes before substituting (that is what the
        // plan cache stores); CTAS substitutes first. Both orders give the
        // same plan, so the trace uses the CTAS order for both.
        t.span("sql.subqueries", |_| -> DbResult<()> {
            let values = evaluate_scalar_subqueries(&subs, catalog, functions)?;
            substitute_in_plan(&mut plan, &values);
            Ok(())
        })?;
    }
    let plan =
        t.span("sql.optimize", |_| optimize_with_stats(plan, catalog, db.stats_enabled()))?.plan;
    t.span("sql.verify", |_| verify_plan(&plan, functions))?;
    let batch = t.span("exec.execute_plan", |t| {
        let trace = PlanTrace::new();
        let out = execute_plan_traced(&plan, catalog, functions, &ExecOptions::default(), &trace);
        split_operators(t, &plan, &trace);
        out
    })?;
    if let Some(name) = ctas {
        let table = t.span("table.from_batch", |_| {
            Table::from_batch(name.to_ascii_lowercase(), batch.clone())
        });
        t.span("catalog.put_table", |_| catalog.put_table(table, false))?;
    }
    Ok(batch)
}

/// Runs `f` under a span named `name` and splits off the registry time the
/// named duration histograms gained meanwhile: `(split, histogram,
/// minus)` attributes `histogram`'s delta minus the deltas of the
/// histograms listed in `minus` (a registry section nested in another).
pub fn with_registry_splits<T>(
    t: &mut Tracer,
    name: &'static str,
    splits: &[(&'static str, &str, &[&str])],
    f: impl FnOnce() -> T,
) -> T {
    t.span(name, |t| {
        let before = metrics::snapshot();
        let out = f();
        let delta = metrics::snapshot().since(&before);
        for &(split, hist, minus) in splits {
            let inner: Duration = minus.iter().map(|m| delta.duration_sum(m)).sum();
            t.split(split, delta.duration_sum(hist).saturating_sub(inner));
        }
        out
    })
}
