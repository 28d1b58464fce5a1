//! The Figure 1 pipeline: the in-database method (`run_method(InDb)`)
//! against the npy-files baseline (`run_method(NpyFiles)`), in one
//! closed loop over voters data generated once per set-up.

use crate::layers::{traced_statement, with_registry_splits};
use crate::report::Report;
use crate::serve::same_values;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::Extra;
use mlcs_columnar::stats::TableStats;
use mlcs_columnar::{metrics, Batch, Column, Database, DbError, DbResult};
use mlcs_core::stored::StoredModel;
use mlcs_fileio::{read_npy_dir, write_npy_dir};
use mlcs_ml::forest::RandomForestClassifier;
use mlcs_ml::Model;
use mlcs_voters::analysis::{precinct_share_error, wrangle};
use mlcs_voters::label::{register_label_udf, register_split_udf, voter_uniform};
use mlcs_voters::pipeline::{run_method, Method, PipelineEnv, PipelineOptions, PipelineRun};
use mlcs_voters::VoterConfig;
use std::path::Path;
use std::time::{Duration, Instant};

/// Voter columns: `voter_id`, `precinct_id` and 96 attributes.
const FEATURES: usize = 96;
const PRECINCTS: usize = 2_751;

/// Generates the voters data, loads it, registers the UDFs and writes
/// the npy files under `dir` — what `PipelineEnv::prepare_for` does for
/// these two methods, but in a directory the caller owns.
pub fn setup(rows: usize, seed: u64, dir: &Path, gen_s: &mut Samples) -> DbResult<PipelineEnv> {
    let config = VoterConfig { rows, precincts: PRECINCTS, features: FEATURES, seed };
    let start = Instant::now();
    let data = mlcs_voters::gen::generate(&config)?;
    gen_s.push(start.elapsed().as_secs_f64());
    let db = Database::new();
    mlcs_voters::gen::load_into_db(&db, &data)?;
    mlcs_core::register_ml_udfs(&db);
    register_label_udf(&db);
    register_split_udf(&db);
    std::fs::create_dir_all(dir)?;
    write_npy_dir(&dir.join("voters_npy"), &data.voters)?;
    write_npy_dir(&dir.join("precincts_npy"), &data.precincts)?;
    Ok(PipelineEnv { data, db, dir: dir.to_path_buf(), server: None })
}

pub fn options(seed: u64) -> PipelineOptions {
    PipelineOptions { seed, ..PipelineOptions::default() }
}

/// Checks that the two methods agree on the test split and the error.
fn agree(r: &mut Report, in_db: &PipelineRun, npy: &PipelineRun) {
    r.check(in_db.test_rows == npy.test_rows && in_db.test_rows > 0, || {
        format!("fig1: in-db classified {} test rows, npy {}", in_db.test_rows, npy.test_rows)
    });
    r.check(in_db.share_error.to_bits() == npy.share_error.to_bits(), || {
        format!("fig1: in-db share_error {} != npy {}", in_db.share_error, npy.share_error)
    });
}

/// The phase's state across rounds: every sample so far, and the
/// warm-up pair's outcome that every later pair must reproduce.
pub struct PipelinePhase<'a> {
    env: &'a PipelineEnv,
    opts: PipelineOptions,
    reference: PipelineRun,
    pipeline: Samples,
    wrangle: Samples,
    npy: Samples,
    /// Untraced in-db totals beside traced ones, in ms (traced runs).
    untraced_ms: Samples,
    /// `db.execute` CTAS time minus the broken-down CTAS, in ms.
    ctas_gap_ms: Samples,
}

impl<'a> PipelinePhase<'a> {
    /// Runs one unmeasured warm-up pair and checks that it agrees.
    pub fn new(env: &'a PipelineEnv, opts: PipelineOptions, r: &mut Report) -> DbResult<Self> {
        let reference = run_method(env, Method::InDb, &opts)?;
        agree(r, &reference, &run_method(env, Method::NpyFiles, &opts)?);
        Ok(PipelinePhase {
            env,
            opts,
            reference,
            pipeline: Samples::new(),
            wrangle: Samples::new(),
            npy: Samples::new(),
            untraced_ms: Samples::new(),
            ctas_gap_ms: Samples::new(),
        })
    }

    /// Alternates the two methods in a closed loop until `budget` is spent
    /// and at least `min_pairs` pairs ran. Traced, each pair is a traced
    /// in-db and a traced npy iteration, plus an untraced in-db run when
    /// `primary` (for the tracing overhead).
    pub fn round(
        &mut self,
        budget: Duration,
        min_pairs: usize,
        r: &mut Report,
        mut tracer: Option<&mut Tracer>,
        x: &mut Extra,
        primary: bool,
    ) -> DbResult<()> {
        let start = Instant::now();
        let mut pairs = 0;
        while pairs < min_pairs || start.elapsed() < budget {
            pairs += 1;
            match tracer.as_deref_mut() {
                None => self.pair(r),
                Some(t) => self.traced_pair(t, r, x, primary)?,
            }
        }
        Ok(())
    }

    fn pair(&mut self, r: &mut Report) {
        let (env, opts) = (self.env, &self.opts);
        r.attempted += 2;
        match (run_method(env, Method::InDb, opts), run_method(env, Method::NpyFiles, opts)) {
            (Ok(a), Ok(b)) => {
                agree(r, &a, &b);
                agree(r, &a, &self.reference);
                self.pipeline.push(a.total.as_secs_f64());
                self.wrangle.push(a.load_wrangle.as_secs_f64());
                self.npy.push(b.total.as_secs_f64());
            }
            (a, b) => r.failed += u64::from(a.is_err()) + u64::from(b.is_err()),
        }
    }

    fn traced_pair(
        &mut self,
        t: &mut Tracer,
        r: &mut Report,
        x: &mut Extra,
        primary: bool,
    ) -> DbResult<()> {
        let (env, opts) = (self.env, &self.opts);
        let db = &env.db;
        r.attempted += 2;
        let agg = traced_in_db(t, env, opts, x)?;
        r.check(same_values(&agg, &db.query(AGGREGATE_SQL)?), || {
            "fig1: traced aggregate differs from db.query".into()
        });
        side_measurements(db, x)?;
        // The broken-down CTAS must build what `db.execute` builds; the
        // difference in time is the part the breakdown does not explain.
        let traced = db.query("SELECT * FROM labeled")?;
        let start = Instant::now();
        db.execute(&wrangle_sql(opts).replacen("TABLE labeled", "TABLE labeled_check", 1))?;
        let exec_ms = start.elapsed().as_secs_f64() * 1e3;
        let direct = db.query("SELECT * FROM labeled_check")?;
        db.execute("DROP TABLE labeled_check")?;
        r.check(same_values(&traced, &direct), || {
            "fig1: traced CTAS result differs from db.execute".into()
        });
        let broken_down_ms = t.durations_ms("stage.wrangle").last().copied().unwrap_or(0.0);
        self.ctas_gap_ms.push(exec_ms - broken_down_ms);
        let (err, rows) = traced_npy(t, env, opts)?;
        let want = &self.reference;
        r.check(err.to_bits() == want.share_error.to_bits() && rows == want.test_rows, || {
            format!(
                "fig1: traced npy gave ({err}, {rows}), in-db ({}, {})",
                want.share_error, want.test_rows
            )
        });
        if primary {
            r.attempted += 1;
            self.untraced_ms.push(run_method(env, Method::InDb, opts)?.total.as_secs_f64() * 1e3);
        }
        Ok(())
    }

    /// Reports the end-to-end metrics, or when traced the overhead.
    pub fn finish(self, r: &mut Report, t: Option<&Tracer>, x: &mut Extra) {
        match t {
            None => {
                r.median("pipeline_s", &self.pipeline);
                r.median("wrangle_s", &self.wrangle);
                r.median("npy_pipeline_s", &self.npy);
                r.note("pipeline_pairs", self.pipeline.len());
            }
            Some(t) => {
                r.note("fig1_ctas_gap_ms", self.ctas_gap_ms.median());
                if !self.untraced_ms.is_empty() {
                    let traced = Samples::from(t.root_ms("pipeline.in_db")).median();
                    x.overhead = Some((traced, self.untraced_ms.median()));
                }
            }
        }
    }
}

/// One in-db iteration with the wrangle CTAS and the aggregate broken
/// into their public calls, and the train/predict statements split by
/// the registry's UDF and model timings.
fn traced_in_db(
    t: &mut Tracer,
    env: &PipelineEnv,
    opts: &PipelineOptions,
    x: &mut Extra,
) -> DbResult<Batch> {
    let db = &env.db;
    let feats = opts.train_features.join(", ");
    let frac = opts.test_fraction;
    t.root("pipeline.in_db", |t| {
        t.span("catalog.drop", |_| -> DbResult<()> {
            for table in ["labeled", "model", "predictions"] {
                db.execute(&format!("DROP TABLE IF EXISTS {table}"))?;
            }
            Ok(())
        })?;
        t.span("stage.wrangle", |t| traced_statement(t, db, &wrangle_sql(opts)))?;
        let before = metrics::snapshot();
        with_registry_splits(
            t,
            "stmt.train",
            &[
                ("ml.train", "ml.train.time_ns", &[]),
                ("udf.train", "udf.train.time_ns", &["ml.train.time_ns"]),
            ],
            || {
                db.execute(&format!(
                    "CREATE TABLE model AS SELECT * FROM train(
                       (SELECT {feats} FROM labeled WHERE u >= {frac}),
                       (SELECT label FROM labeled WHERE u >= {frac}),
                       {n})",
                    n = opts.n_estimators
                ))
            },
        )?;
        let train = metrics::snapshot().since(&before).duration_sum("udf.train.time_ns");
        x.udf_train_ms.push(train.as_secs_f64() * 1e3);
        with_registry_splits(
            t,
            "stmt.predict",
            &[("ml.predict", "ml.predict.time_ns", &[])],
            || {
                db.execute(&format!(
                    "CREATE TABLE predictions AS
                 SELECT precinct_id,
                        predict({feats}, (SELECT classifier FROM model)) AS pred
                 FROM labeled WHERE u < {frac}"
                ))
            },
        )?;
        t.span("stage.aggregate", |t| traced_statement(t, db, AGGREGATE_SQL))
    })
}

const AGGREGATE_SQL: &str = "SELECT precinct_id,
        SUM(CASE WHEN pred = 1 THEN 1 ELSE 0 END) AS pred_dem,
        COUNT(*) AS n
 FROM predictions GROUP BY precinct_id";

/// The wrangle statement `run_method(InDb)` executes.
fn wrangle_sql(opts: &PipelineOptions) -> String {
    let v_feats =
        opts.train_features.iter().map(|f| format!("v.{f}")).collect::<Vec<_>>().join(", ");
    format!(
        "CREATE TABLE labeled AS
         SELECT v.voter_id, v.precinct_id, {v_feats},
                gen_label(v.voter_id, p.votes_dem, p.votes_rep, {seed}) AS label,
                split_u(v.voter_id, {split_seed}) AS u
         FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id",
        seed = opts.seed,
        split_seed = opts.seed.wrapping_add(1)
    )
}

fn udf_err(function: &str, e: impl std::fmt::Display) -> DbError {
    DbError::Udf { function: function.into(), message: e.to_string() }
}

/// One npy iteration through the calls `run_method(NpyFiles)` makes.
/// Returns `(share_error, test_rows)`.
fn traced_npy(t: &mut Tracer, env: &PipelineEnv, opts: &PipelineOptions) -> DbResult<(f64, usize)> {
    t.root("pipeline.npy", |t| {
        let (voters, precincts) = t.span("fileio.read_npy", |_| -> DbResult<_> {
            Ok((
                read_npy_dir(&env.dir.join("voters_npy"))?,
                read_npy_dir(&env.dir.join("precincts_npy"))?,
            ))
        })?;
        let wrangled = t.span("voters.wrangle", |_| wrangle(&voters, &precincts, opts.seed))?;
        let x = t.span("bridge.matrix", |_| -> DbResult<_> {
            let cols: Vec<&Column> = opts
                .train_features
                .iter()
                .map(|f| voters.column_by_name(f).map(|c| c.as_ref()))
                .collect::<DbResult<_>>()?;
            mlcs_core::bridge::matrix_from_columns(&cols)
        })?;
        let (x_train, y_train, test_idx) = t.span("client.split", |_| -> DbResult<_> {
            let vid = voters.column_by_name("voter_id")?;
            let split_seed = opts.seed.wrapping_add(1);
            let (mut train_idx, mut test_idx) = (Vec::new(), Vec::new());
            for i in 0..voters.rows() {
                let id = vid.i64_at(i).unwrap_or(i as i64);
                if voter_uniform(id, split_seed) < opts.test_fraction {
                    test_idx.push(i);
                } else {
                    train_idx.push(i);
                }
            }
            let y: Vec<i64> = train_idx.iter().map(|&i| wrangled.labels[i]).collect();
            Ok((x.take_rows(&train_idx), y, test_idx))
        })?;
        let model = t.span("ml.train", |_| {
            let forest = RandomForestClassifier::new(opts.n_estimators)
                .with_seed(mlcs_core::udf::DEFAULT_TRAIN_SEED);
            StoredModel::train(Model::RandomForest(forest), &x_train, &y_train)
                .map_err(|e| udf_err("train", e))
        })?;
        let pred = t.span("ml.predict", |_| {
            model.predict(&x.take_rows(&test_idx)).map_err(|e| udf_err("predict", e))
        })?;
        let share_error = t.span("voters.share_error", |_| {
            let pids: Vec<i32> = test_idx.iter().map(|&i| wrangled.precinct_ids[i]).collect();
            precinct_share_error(&pids, &pred, &precincts)
        })?;
        Ok((share_error, test_idx.len()))
    })
}

/// Times `TableStats::compute` over the CTAS result and a pickle round
/// trip of the trained model — work `Table::from_batch` and the model
/// UDFs do inside, repeated here on their own.
fn side_measurements(db: &Database, x: &mut Extra) -> DbResult<()> {
    let labeled = db.query("SELECT * FROM labeled")?;
    let start = Instant::now();
    let stats = TableStats::compute(labeled.columns(), labeled.rows());
    x.stats_compute_ms.push(start.elapsed().as_secs_f64() * 1e3);
    drop(stats);
    let model = db.query("SELECT classifier FROM model")?;
    let blob = model.column(0).value(0);
    let blob = blob.as_blob().ok_or_else(|| DbError::internal("model classifier is not a blob"))?;
    let start = Instant::now();
    let stored = StoredModel::from_blob(blob).map_err(|e| udf_err("from_blob", e))?;
    x.pickle_deserialize_us.push(start.elapsed().as_secs_f64() * 1e6);
    let start = Instant::now();
    let bytes = stored.to_blob();
    x.pickle_serialize_us.push(start.elapsed().as_secs_f64() * 1e6);
    x.pickle_bytes.push(bytes.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workdir::WorkDir;

    fn run(env: &PipelineEnv, opts: &PipelineOptions, t: Option<&mut Tracer>) -> (Report, Extra) {
        let (mut r, mut x) = (Report::default(), Extra::default());
        let traced = t.is_some();
        let mut phase = PipelinePhase::new(env, opts.clone(), &mut r).unwrap();
        let mut t = t;
        phase.round(Duration::ZERO, 1, &mut r, t.as_deref_mut(), &mut x, true).unwrap();
        phase.finish(&mut r, if traced { t.as_deref() } else { None }, &mut x);
        (r, x)
    }

    #[test]
    fn methods_agree_on_fresh_data_and_disagree_on_tampered_files() {
        let dir = WorkDir::new("test-fig1").unwrap();
        let env = setup(3_000, 5, dir.path(), &mut Samples::new()).unwrap();
        let opts = PipelineOptions { n_estimators: 2, ..options(5) };
        let (r, _) = run(&env, &opts, None);
        assert!(r.correct(), "{:?}", r.wrong);

        // The npy files now hold other voters: the baseline's answer
        // changes, and the check must catch it.
        let other = mlcs_voters::gen::generate(&VoterConfig {
            rows: 3_000,
            precincts: PRECINCTS,
            features: FEATURES,
            seed: 6,
        })
        .unwrap();
        write_npy_dir(&dir.path().join("voters_npy"), &other.voters).unwrap();
        let (r, _) = run(&env, &opts, None);
        assert!(!r.correct());
    }

    #[test]
    fn traced_breakdown_matches_db_execute() {
        let dir = WorkDir::new("test-fig1-trace").unwrap();
        let env = setup(3_000, 5, dir.path(), &mut Samples::new()).unwrap();
        let opts = PipelineOptions { n_estimators: 2, ..options(5) };
        let mut t = Tracer::default();
        let (r, x) = run(&env, &opts, Some(&mut t));
        assert!(r.correct(), "{:?}", r.wrong);
        let table = t.layer_table("pipeline.in_db");
        assert_eq!(table.roots, 1);
        let sum: f64 = table.rows.iter().map(|r| r.1).sum::<f64>() + table.unattributed_ms;
        assert!((sum - table.total_ms).abs() < 1e-6);
        for layer in ["sql.parse", "exec.hash_join", "table.from_batch", "ml.train", "ml.predict"] {
            assert!(table.rows.iter().any(|r| r.0 == layer), "no {layer} row");
        }
        assert!(x.overhead.is_some());
    }
}
