//! The workloads: which phases run, at what size, for how long.
//!
//! Each workload has one *primary* phase that gets most of the run and
//! does the work its name says, plus a small fixed *probe* of each of
//! the other two surfaces, so every run reports every end-to-end metric.
//! A probe's numbers describe the probe's small inputs; compare them
//! only with the same workload on another commit.

use crate::durable::{self, DurableEnv};
use crate::pipeline;
use crate::report::Report;
use crate::serve::{self, ServeEnv};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workdir::WorkDir;
use mlcs_columnar::{metrics, DbResult};
use mlcs_voters::pipeline::PipelineEnv;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig1Pipeline,
    ServeMixed,
    DurableMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "fig1_pipeline" => Ok(Workload::Fig1Pipeline),
            "serve_mixed" => Ok(Workload::ServeMixed),
            "durable_mixed" => Ok(Workload::DurableMixed),
            other => Err(format!("unknown workload {other}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Pipeline => "fig1_pipeline",
            Workload::ServeMixed => "serve_mixed",
            Workload::DurableMixed => "durable_mixed",
        }
    }
}

/// Rounds the phases take turns in.
const ROUNDS: u32 = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Voter rows of the Figure 1 pipeline, primary and probe.
const PIPELINE_ROWS: usize = 100_000;
const PIPELINE_PROBE_ROWS: usize = 20_000;
/// Voter rows of the served table.
const SERVE_ROWS: usize = 20_000;
/// Base-table rows of the durable database: above the 32K-row parallel
/// threshold, so full-table work on the write path runs in parallel.
const DURABLE_ROWS: usize = 40_000;

/// Sizes and time shares of the phases, from the run's `--seconds`.
struct Plan {
    pipeline_rows: usize,
    pipeline_time: Duration,
    min_pairs: usize,
    /// Time at the serving reference rate, and per ladder step.
    serve_time: Duration,
    ladder_step: Duration,
    commits: usize,
}

fn plan(w: Workload, seconds: u64) -> Plan {
    let share = |f: f64| Duration::from_secs_f64(seconds as f64 * f);
    let probes = Plan {
        pipeline_rows: PIPELINE_PROBE_ROWS,
        pipeline_time: Duration::ZERO,
        min_pairs: 8,
        serve_time: share(0.23),
        ladder_step: share(0.02),
        commits: 300,
    };
    match w {
        Workload::Fig1Pipeline => {
            Plan { pipeline_rows: PIPELINE_ROWS, pipeline_time: share(0.6), min_pairs: 5, ..probes }
        }
        Workload::ServeMixed => Plan { serve_time: share(0.5), ladder_step: share(0.04), ..probes },
        // A fixed count, so the table grows the same way on every run.
        Workload::DurableMixed => Plan { commits: 45 * seconds as usize, ..probes },
    }
}

struct Envs {
    pipeline: PipelineEnv,
    _pipeline_dir: WorkDir,
    serve: ServeEnv,
    durable: DurableEnv,
}

fn setup(plan: &Plan, seed: u64, gen_s: &mut Samples) -> DbResult<Envs> {
    let dir = WorkDir::new("fig1")?;
    let pipeline = pipeline::setup(plan.pipeline_rows, seed, dir.path(), gen_s)?;
    let serve = serve::setup(SERVE_ROWS, seed, gen_s)?;
    let durable = durable::setup(DURABLE_ROWS, seed)?;
    Ok(Envs { pipeline, _pipeline_dir: dir, serve, durable })
}

/// Per-layer samples a phase collects beside its spans.
#[derive(Default)]
pub struct Extra {
    pub gen_s: Samples,
    pub stats_compute_ms: Samples,
    pub udf_train_ms: Samples,
    pub pickle_serialize_us: Samples,
    pub pickle_deserialize_us: Samples,
    pub pickle_bytes: Samples,
    pub netproto_overhead_us: Samples,
    pub lateness_ms: Samples,
    pub wal_overhead_ms: [Samples; 3],
    pub checkpoint_bytes: Samples,
    pub replayed_records: Samples,
    pub recovery_us_per_record: Samples,
    /// `(traced, untraced)` latency of the primary phase's operation.
    pub overhead: Option<(f64, f64)>,
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool, r: &mut Report) -> DbResult<()> {
    let plan = plan(w, seconds);
    let mut extra = Extra::default();
    let mut setup_s = Samples::new();
    let mut envs = None;
    let start_all = Instant::now();
    for _ in 0..SETUPS {
        drop(envs.take());
        let start = Instant::now();
        envs = Some(setup(&plan, seed, &mut extra.gen_s)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut envs = envs.expect("at least one set-up");
    r.median("setup_s", &setup_s);
    let setup_wall = start_all.elapsed();

    // The phases take turns in rounds, so a slow spell of the machine
    // lands on every phase's samples alike instead of on one phase.
    let mut tracer = trace.then(Tracer::default);
    let before = metrics::snapshot();
    let start = Instant::now();
    let primary = |p: Workload| w == p;
    let mut fig1 = pipeline::PipelinePhase::new(&envs.pipeline, pipeline::options(seed), r)?;
    let mut served = serve::ServePhase::new(&envs.serve, seed)?;
    let mut writes = durable::DurablePhase::new();
    for _ in 0..ROUNDS {
        let t = tracer.as_mut();
        fig1.round(
            plan.pipeline_time / ROUNDS,
            plan.min_pairs.div_ceil(ROUNDS as usize),
            r,
            t,
            &mut extra,
            primary(Workload::Fig1Pipeline),
        )?;
        let t = tracer.as_mut();
        served.round(plan.serve_time / ROUNDS, r, t, &mut extra, primary(Workload::ServeMixed))?;
        let per_round = plan.commits.div_ceil(ROUNDS as usize);
        let t = tracer.as_mut();
        writes.round(&mut envs.durable, per_round, r, t)?;
    }
    let rounds_wall = start.elapsed();
    fig1.finish(r, tracer.as_ref(), &mut extra);
    served.finish(plan.ladder_step, r, trace, &mut extra)?;
    let ladder_wall = start.elapsed() - rounds_wall;
    writes.finish(r, trace, &mut extra, primary(Workload::DurableMixed));
    let wall = start.elapsed();
    r.note(
        "phase_wall_s",
        format!(
            "{{\"setup\":{},\"rounds\":{},\"ladder\":{},\"finish\":{}}}",
            setup_wall.as_secs_f64(),
            rounds_wall.as_secs_f64(),
            ladder_wall.as_secs_f64(),
            (wall - rounds_wall - ladder_wall).as_secs_f64()
        ),
    );
    let delta = metrics::snapshot().since(&before);
    if let Some(t) = tracer {
        per_layer(&t, &delta, wall, &extra, r);
        for root in ROOTS {
            let table = t.layer_table(root);
            if table.roots > 0 {
                r.tables.push(table);
            }
        }
        write_spans(w, seed, &t)?;
    }
    Ok(())
}

/// Root span names, one layer table each.
const ROOTS: &[&str] = &[
    "pipeline.in_db",
    "pipeline.npy",
    "request.predict",
    "request.analytics",
    "commit.insert",
    "commit.update",
    "commit.delete",
    "read",
    "embedded",
];

/// Writes the spans to `.bench_work/traces/<workload>-<seed>.jsonl`.
fn write_spans(w: Workload, seed: u64, t: &Tracer) -> DbResult<()> {
    let dir = std::path::Path::new(crate::workdir::ROOT).join("traces");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("{}-{seed}.jsonl", w.name())), t.to_jsonl())?;
    Ok(())
}

/// Records `n / d` (0 when `d` is 0), with `d` as the sample count.
fn set_per(r: &mut Report, name: &'static str, n: f64, d: f64, stat: &str) {
    let value = if d > 0.0 { n / d } else { 0.0 };
    r.set(name, value, stat, d as usize);
}

/// Reduces spans, registry deltas and the phases' extra samples to the
/// per-layer metrics.
fn per_layer(t: &Tracer, d: &metrics::Snapshot, wall: Duration, x: &Extra, r: &mut Report) {
    let c = |name: &str| d.counter(name) as f64;
    let spans = |name: &str| Samples::from(t.durations_ms(name));
    let us = |name: &str| {
        Samples::from(t.durations_ms(name).iter().map(|ms| ms * 1e3).collect::<Vec<_>>())
    };
    let hit_ratio = |r: &mut Report, metric, hits: &str, misses: &str| {
        set_per(r, metric, c(hits), c(hits) + c(misses), "ratio");
    };
    r.median("sql.parse_us", &us("sql.parse"));
    r.median("sql.bind_us", &us("sql.bind"));
    r.median("sql.optimize_us", &us("sql.optimize"));
    hit_ratio(r, "sql.plan_cache.hit_ratio", "sql.plan_cache.hits", "sql.plan_cache.misses");
    r.median("exec.execute_plan_ms", &spans("exec.execute_plan"));
    for (metric, split) in [
        ("exec.hash_join_ms", "exec.hash_join"),
        ("exec.aggregate_ms", "exec.aggregate"),
        ("exec.filter_ms", "exec.filter"),
        ("exec.project_ms", "exec.project"),
    ] {
        r.median(metric, &Samples::from(t.splits_ms(split)));
    }
    r.median("table.from_batch_ms", &spans("table.from_batch"));
    r.median("stats.compute_ms", &x.stats_compute_ms);
    let roots = ROOTS.iter().map(|n| t.root_ms(n).len()).sum::<usize>() as f64;
    set_per(r, "sql.stats.built", c("sql.stats.built"), roots, "per root");
    set_per(r, "encoding.columns_encoded", c("exec.encoding.columns_encoded"), roots, "per root");
    r.median("bridge.matrix_ms", &spans("bridge.matrix"));
    r.median("udf.train_ms", &x.udf_train_ms);
    hit_ratio(r, "ml.matrix_cache.hit_ratio", "ml.matrix_cache.hits", "ml.matrix_cache.misses");
    r.median("ml.train_ms", &Samples::from(t.self_ms_per_root("ml.train")));
    let calls = |name: &str| d.histogram(name).map_or(0, |h| h.count) as f64;
    let trains = calls("ml.train.time_ns");
    set_per(r, "ml.splits_evaluated", c("ml.train.splits_evaluated"), trains, "per training call");
    r.median("ml.predict_ms", &Samples::from(t.self_ms_per_root("ml.predict")));
    let predicts = calls("ml.predict.time_ns");
    set_per(r, "ml.predict_rows", c("ml.predict.rows"), predicts, "per predict call");
    r.median("pickle.serialize_us", &x.pickle_serialize_us);
    r.median("pickle.deserialize_us", &x.pickle_deserialize_us);
    r.median("pickle.bytes", &x.pickle_bytes);
    hit_ratio(r, "modelstore.cache.hit_ratio", "modelstore.cache.hits", "modelstore.cache.misses");
    let busy_ms = d.duration_sum("pool.busy_time_ns").as_secs_f64() * 1e3;
    let capacity_ms = wall.as_secs_f64() * 1e3 * mlcs_columnar::parallel::pool_workers() as f64;
    set_per(r, "pool.busy_ms", busy_ms, roots, "per root");
    set_per(r, "pool.utilization", busy_ms, capacity_ms, "busy / (wall x workers)");
    set_per(r, "pool.jobs", c("pool.jobs_completed"), roots, "per root");
    set_per(r, "pool.morsels", c("pool.morsels"), roots, "per root");
    r.median("netproto.overhead_us", &x.netproto_overhead_us);
    let wire = c("netproto.bytes_sent") + c("netproto.bytes_received");
    set_per(r, "netproto.bytes_per_query", wire, c("netproto.binary.queries"), "per query");
    r.set("netproto.evloop.shed", c("netproto.evloop.shed"), "count", 1);
    r.median("generator.lateness_ms", &x.lateness_ms);
    let kinds = ["wal.overhead_insert_ms", "wal.overhead_update_ms", "wal.overhead_delete_ms"];
    for (name, samples) in kinds.into_iter().zip(&x.wal_overhead_ms) {
        r.median(name, samples);
    }
    set_per(r, "wal.bytes_per_commit", c("wal.bytes"), c("wal.appends"), "per append");
    set_per(r, "wal.fsyncs", c("wal.fsyncs"), c("wal.appends"), "per append");
    r.median("checkpoint.bytes", &x.checkpoint_bytes);
    r.median("persist.replayed_records", &x.replayed_records);
    r.median("recovery.us_per_record", &x.recovery_us_per_record);
    r.median("fileio.npy_read_ms", &spans("fileio.read_npy"));
    r.median("voters.gen_s", &x.gen_s);
    let (traced, untraced) = x.overhead.unwrap_or((0.0, 0.0));
    set_per(r, "trace.overhead_pct", (traced - untraced) * 100.0, untraced, "traced vs untraced");
}
