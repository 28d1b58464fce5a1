//! Served traffic: the reactor server in this process over a voters
//! table and a model trained at set-up, driven by an open-loop generator
//! at fixed rates over at most `nproc` connections and threads.
//!
//! The mix is three point predictions to one precinct group-by. Texts
//! are drawn from a Zipf distribution over more distinct statements than
//! the plan cache holds, so hits and evictions both occur.

use crate::layers::traced_statement;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workload::Extra;
use mlcs_columnar::{metrics, Batch, Database, DbError, DbResult};
use mlcs_netproto::{BinaryClient, NetConfig, Server};
use mlcs_voters::label::{register_label_udf, register_split_udf};
use mlcs_voters::VoterConfig;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The latency limit on the tail percentile of served requests.
const P99_LIMIT_MS: f64 = 50.0;

/// Distinct point-prediction texts (4× the plan cache's 256 entries).
const PREDICT_TEXTS: usize = 1024;
/// Distinct group-by texts.
const ANALYTICS_TEXTS: usize = 256;
/// Training rows and trees of the served model.
const MODEL_ROWS: usize = 2_000;
const MODEL_TREES: usize = 4;
/// Precincts per group-by range.
const ANALYTICS_SPAN: usize = 100;

pub struct ServeEnv {
    pub db: Database,
    server: Option<Server>,
    /// Voter ids of the point-prediction texts, hottest first.
    ids: Vec<i64>,
    precincts: usize,
}

impl Drop for ServeEnv {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

/// Zipf(1) rank sampler over `n` ranks by inverse CDF. The exponent is
/// an assumption (the usual skew of query logs), not a measured trace.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One request of the stream: a statement text and its kind.
#[derive(Clone)]
pub struct Request {
    pub sql: String,
    pub predict: bool,
}

/// The statement stream for `n` requests.
pub fn requests(env: &ServeEnv, seed: u64, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    let zp = Zipf::new(PREDICT_TEXTS);
    let za = Zipf::new(ANALYTICS_TEXTS);
    let stride = (env.precincts - ANALYTICS_SPAN) / ANALYTICS_TEXTS;
    (0..n)
        .map(|_| {
            if rng.below(4) == 3 {
                let lo = za.sample(&mut rng) * stride;
                Request {
                    sql: format!(
                        "SELECT precinct_id, COUNT(*) AS n, SUM(f00) AS age_sum, MAX(f03) AS lean \
                         FROM voters WHERE precinct_id BETWEEN {lo} AND {hi} \
                         GROUP BY precinct_id ORDER BY precinct_id",
                        hi = lo + ANALYTICS_SPAN - 1
                    ),
                    predict: false,
                }
            } else {
                let id = env.ids[zp.sample(&mut rng)];
                Request {
                    sql: format!(
                        "SELECT voter_id, predict(f03, f04, f05, (SELECT classifier FROM model)) \
                         AS p FROM voters WHERE voter_id = {id}"
                    ),
                    predict: true,
                }
            }
        })
        .collect()
}

/// Loads `rows` voters, trains the served model on the Figure 1 labels,
/// and starts the server.
pub fn setup(rows: usize, seed: u64, gen_s: &mut Samples) -> DbResult<ServeEnv> {
    let config = VoterConfig { rows, seed, ..VoterConfig::default() };
    let start = Instant::now();
    let data = mlcs_voters::gen::generate(&config)?;
    gen_s.push(start.elapsed().as_secs_f64());
    let db = Database::new();
    mlcs_voters::gen::load_into_db(&db, &data)?;
    mlcs_core::register_ml_udfs(&db);
    register_label_udf(&db);
    register_split_udf(&db);
    // A small model (4 trees over 2,000 voters), so a point prediction
    // costs about as much as the statement around it and the per-query
    // fixed costs of serving stay visible.
    db.execute(&format!(
        "CREATE TABLE labeled AS SELECT v.f03, v.f04, v.f05,
                gen_label(v.voter_id, p.votes_dem, p.votes_rep, {seed}) AS label
         FROM voters v JOIN precincts p ON v.precinct_id = p.precinct_id
         WHERE v.voter_id < {MODEL_ROWS}"
    ))?;
    db.execute(&format!(
        "CREATE TABLE model AS SELECT * FROM train(
           (SELECT f03, f04, f05 FROM labeled), (SELECT label FROM labeled), {MODEL_TREES})"
    ))?;
    db.execute("DROP TABLE labeled")?;
    let mut rng = Rng::new(seed.wrapping_add(17));
    let ids = (0..PREDICT_TEXTS).map(|_| rng.below(rows) as i64).collect();
    let net = NetConfig {
        // At most `nproc` requests are ever in flight, so admission
        // control never sheds; the default quota stays as a backstop.
        read_timeout: Some(Duration::from_secs(60)),
        write_timeout: Some(Duration::from_secs(60)),
        ..NetConfig::default()
    };
    let server = Server::start_with(db.clone(), net)?;
    Ok(ServeEnv { db, server: Some(server), ids, precincts: config.precincts })
}

fn addr(env: &ServeEnv) -> DbResult<SocketAddr> {
    env.server.as_ref().map(Server::addr).ok_or_else(|| DbError::internal("server stopped"))
}

/// Whether two results hold the same values, row by row.
pub fn same_values(a: &Batch, b: &Batch) -> bool {
    a.rows() == b.rows()
        && a.width() == b.width()
        && (0..a.width())
            .all(|c| (0..a.rows()).all(|r| a.column(c).value(r) == b.column(c).value(r)))
}

/// One served result, with where it came from.
pub struct Served {
    /// Index into the step's requests.
    pub request: usize,
    pub batch: Batch,
    pub roundtrip: Duration,
    /// Generator thread, and its round-trip span when traced.
    pub thread: usize,
    pub span: Option<usize>,
}

/// What one fixed-rate step observed.
#[derive(Default)]
pub struct Step {
    pub predict_ms: Samples,
    pub analytics_ms: Samples,
    pub all_ms: Samples,
    pub lateness_ms: Samples,
    pub sent: u64,
    pub failed: u64,
    /// The step was cut because its backlog passed the limit.
    pub cut: bool,
    /// Completed requests per second of the step's wall time.
    pub achieved: f64,
    /// Served results kept for the correctness check.
    pub results: Vec<Served>,
}

impl Step {
    /// Adds another step's samples, counts and results to this one.
    fn absorb(&mut self, other: Step) {
        self.predict_ms.extend(&other.predict_ms);
        self.analytics_ms.extend(&other.analytics_ms);
        self.all_ms.extend(&other.all_ms);
        self.lateness_ms.extend(&other.lateness_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.cut |= other.cut;
        self.results.extend(other.results);
    }

    /// Meets the tail-latency limit with no failure and no runaway backlog.
    pub fn meets_limit(&self) -> bool {
        !self.cut && self.failed == 0 && self.all_ms.tail().1 <= P99_LIMIT_MS
    }
}

/// Sends `reqs` open-loop at `rate` per second over `threads`
/// connections (request `i` goes to connection `i % threads`), timing
/// each from its due time. A connection that falls more than a second
/// behind its schedule stops sending, which marks the step as cut.
pub fn run_step(
    env: &ServeEnv,
    reqs: &[Request],
    rate: f64,
    threads: usize,
    keep_results: bool,
    mut tracers: Option<&mut Vec<Tracer>>,
) -> DbResult<Step> {
    let addr = addr(env)?;
    let mut clients: Vec<BinaryClient> =
        (0..threads).map(|_| BinaryClient::connect(addr)).collect::<DbResult<_>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let mut tracer = tracers.as_mut().map(|_| Tracer::with_origin(start));
                scope.spawn(move || {
                    let mut step = Step::default();
                    for i in (k..reqs.len()).step_by(threads) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        if sent.saturating_duration_since(due) > Duration::from_secs(1) {
                            step.cut = true;
                            break;
                        }
                        step.sent += 1;
                        let req = &reqs[i];
                        let result = match tracer.as_mut() {
                            None => client.query(&req.sql),
                            Some(t) => traced_request(t, client, req, due, sent),
                        };
                        let done = Instant::now();
                        match result {
                            Ok(batch) => {
                                let ms = done.duration_since(due).as_secs_f64() * 1e3;
                                if req.predict {
                                    step.predict_ms.push(ms);
                                } else {
                                    step.analytics_ms.push(ms);
                                }
                                step.all_ms.push(ms);
                                if keep_results {
                                    step.results.push(Served {
                                        request: i,
                                        batch,
                                        roundtrip: done.duration_since(sent),
                                        thread: k,
                                        span: tracer
                                            .as_ref()
                                            .and_then(|t| t.last_index("netproto.roundtrip")),
                                    });
                                }
                            }
                            Err(_) => step.failed += 1,
                        }
                        step.lateness_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                    }
                    (step, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut step = Step::default();
    for (s, tracer) in per_thread {
        step.absorb(s);
        if let (Some(ts), Some(t)) = (tracers.as_mut(), tracer) {
            ts.push(t);
        }
    }
    step.achieved = step.all_ms.len() as f64 / wall;
    Ok(step)
}

/// One served request under a root span from its due time: the wait for
/// the generator, then the round trip.
fn traced_request(
    t: &mut Tracer,
    client: &mut BinaryClient,
    req: &Request,
    due: Instant,
    sent: Instant,
) -> DbResult<Batch> {
    let name = if req.predict { "request.predict" } else { "request.analytics" };
    t.root_from(name, due, |t| {
        t.record("generator.lateness", due, sent);
        t.span("netproto.roundtrip", |_| client.query(&req.sql))
    })
}

/// After a traced step, runs each served statement embedded — once
/// through `db.query`, whose time becomes the `engine.execute` split of
/// the round trip (what is left of it is the serving overhead), and once
/// broken into its public calls — and checks that all three agree.
fn pair_embedded(
    env: &ServeEnv,
    reqs: &[Request],
    step: &Step,
    tracers: &mut [Tracer],
    x: &mut Extra,
    r: &mut Report,
) -> DbResult<()> {
    for served in &step.results {
        let sql = reqs[served.request].sql.as_str();
        let t = &mut tracers[served.thread];
        let start = Instant::now();
        let embedded = env.db.query(sql)?;
        let engine = start.elapsed();
        x.netproto_overhead_us.push((served.roundtrip.as_secs_f64() - engine.as_secs_f64()) * 1e6);
        if let Some(idx) = served.span {
            t.add_split(idx, "engine.execute", engine);
        }
        let broken_down = t.root("embedded", |t| traced_statement(t, &env.db, sql))?;
        r.check(
            same_values(&served.batch, &embedded) && same_values(&served.batch, &broken_down),
            || format!("serve: served, embedded and broken-down results differ for {sql}"),
        );
    }
    Ok(())
}

/// Checks every kept served result against the embedded result of the
/// same statement, computed once per text: the served tables never
/// change, so neither does a statement's answer. The expected result is
/// computed through the public calls with no plan cache (parse, bind,
/// optimize, execute), so a wrong or stale cached plan, which the server
/// shares with `env.db`, cannot give both sides the same wrong answer.
pub fn check_results(
    env: &ServeEnv,
    reqs: &[Request],
    step: &Step,
    expected: &mut HashMap<String, Batch>,
    r: &mut Report,
) -> DbResult<()> {
    for served in &step.results {
        let sql = reqs[served.request].sql.as_str();
        if !expected.contains_key(sql) {
            let mut t = Tracer::default();
            let uncached = t.root("expected", |t| traced_statement(t, &env.db, sql))?;
            expected.insert(sql.to_owned(), uncached);
        }
        let want = &expected[sql];
        r.check(same_values(&served.batch, want), || {
            format!("serve: served result differs for {sql}")
        });
    }
    Ok(())
}

/// The fixed rate at which latency is reported, in requests per second:
/// about a fifth of `max_qps` on a 2-vCPU machine, below the rates where
/// queueing raises the p50 (see the README).
const REFERENCE_RATE: f64 = 300.0;
/// The ladder's first rate, in requests per second.
const LADDER_START: f64 = 450.0;
/// The lowest rate the ladder descends to before it gives up.
const LADDER_FLOOR: f64 = 50.0;
/// Each ladder step is this much faster than the one before.
const LADDER_FACTOR: f64 = 1.5;
/// Steps tried at one rate before it counts as failed.
const ATTEMPTS: u64 = 3;
/// Halvings of the interval between the last passing and the first
/// failing ladder step.
const REFINEMENTS: usize = 3;

/// The phase's state across rounds: the reference-rate samples so far.
pub struct ServePhase<'a> {
    env: &'a ServeEnv,
    seed: u64,
    threads: usize,
    rounds: u64,
    reference: Step,
    /// Untraced reference-rate predictions beside traced ones (traced
    /// runs, primary phase only).
    untraced_predict_ms: Samples,
    /// Embedded result of each statement text checked so far.
    expected: HashMap<String, Batch>,
}

impl<'a> ServePhase<'a> {
    /// Warms up connections, the model and the hottest plans.
    pub fn new(env: &'a ServeEnv, seed: u64) -> DbResult<Self> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let warm = requests(env, seed ^ 0xA5A5, 200);
        run_step(env, &warm, REFERENCE_RATE, threads, false, None)?;
        Ok(ServePhase {
            env,
            seed,
            threads,
            rounds: 0,
            reference: Step::default(),
            untraced_predict_ms: Samples::new(),
            expected: HashMap::new(),
        })
    }

    /// Sends the next `time` of the reference-rate stream and checks each
    /// served result. Traced, every request is traced, after an untraced
    /// run of the same requests when `primary` (for the tracing overhead).
    pub fn round(
        &mut self,
        time: Duration,
        r: &mut Report,
        tracer: Option<&mut Tracer>,
        x: &mut Extra,
        primary: bool,
    ) -> DbResult<()> {
        let (env, threads) = (self.env, self.threads);
        self.rounds += 1;
        let n = (REFERENCE_RATE * time.as_secs_f64()) as usize;
        let reqs = requests(env, self.seed.wrapping_add(self.rounds << 32), n);
        let step = match tracer {
            None => {
                let step = run_step(env, &reqs, REFERENCE_RATE, threads, true, None)?;
                check_results(env, &reqs, &step, &mut self.expected, r)?;
                step
            }
            Some(t) => {
                if primary {
                    let step = run_step(env, &reqs, REFERENCE_RATE, threads, false, None)?;
                    self.untraced_predict_ms.extend(&step.predict_ms);
                }
                let mut tracers = Vec::new();
                let step = run_step(env, &reqs, REFERENCE_RATE, threads, true, Some(&mut tracers))?;
                pair_embedded(env, &reqs, &step, &mut tracers, x, r)?;
                for other in tracers {
                    t.merge(other);
                }
                x.lateness_ms.extend(&step.lateness_ms);
                step
            }
        };
        r.attempted += step.sent;
        r.failed += step.failed;
        self.reference.absorb(Step { results: Vec::new(), ..step });
        Ok(())
    }

    /// Untraced: reports the reference-rate latencies, then climbs a
    /// ladder of rates, `ladder_time` each, refined between the last pass
    /// and the first failure, for the highest rate that meets the limit.
    /// Traced: reports the tracing overhead.
    pub fn finish(
        self,
        ladder_time: Duration,
        r: &mut Report,
        traced: bool,
        x: &mut Extra,
    ) -> DbResult<()> {
        let reference = &self.reference;
        if traced {
            if !self.untraced_predict_ms.is_empty() {
                let traced = reference.predict_ms.median();
                x.overhead = Some((traced, self.untraced_predict_ms.median()));
            }
            return Ok(());
        }
        let (env, seed, threads) = (self.env, self.seed, self.threads);
        let before = metrics::snapshot();
        r.median("predict_p50_ms", &reference.predict_ms);
        // The upper quantiles go to the detail line only: they move with
        // stalls of the machine itself, run to run, by more than any bound
        // a regression check could use.
        let n = reference.predict_ms.len();
        let q: Vec<String> = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0]
            .iter()
            .map(|&p| format!("\"p{p}\":{}", reference.predict_ms.percentile(p)))
            .collect();
        r.note("predict_quantiles_ms", format!("{{{},\"samples\":{n}}}", q.join(",")));
        r.median("analytics_p50_ms", &reference.analytics_ms);
        let mut steps = Vec::new();
        let mut expected = self.expected;
        // A rate counts as failed only after `ATTEMPTS` steps at it miss
        // the limit, so a transient stall does not end the ladder.
        let mut try_rate = |rate: f64, r: &mut Report| -> DbResult<Option<f64>> {
            for attempt in 0..ATTEMPTS {
                let n = (rate * ladder_time.as_secs_f64()) as usize;
                let reqs = requests(env, seed.wrapping_add(rate as u64 + attempt), n);
                let step = run_step(env, &reqs, rate, threads, true, None)?;
                check_results(env, &reqs, &step, &mut expected, r)?;
                r.attempted += step.sent;
                r.failed += step.failed;
                steps.push(format!(
                    "[{rate},{},{},{}]",
                    step.all_ms.median(),
                    step.all_ms.tail().1,
                    step.meets_limit()
                ));
                if step.meets_limit() {
                    return Ok(Some(step.achieved));
                }
            }
            Ok(None)
        };
        // `pass` is the highest rate known to meet the limit (with what it
        // achieved), `fail` the lowest known to miss it. The ladder climbs
        // from its start until a rate fails, or descends until one passes.
        let (mut pass, mut fail) = (None, None);
        let mut rate = LADDER_START;
        while rate >= LADDER_FLOOR {
            match try_rate(rate, r)? {
                Some(achieved) => pass = Some((rate, achieved)),
                None => fail = Some(rate),
            }
            match (pass, fail) {
                (Some(_), Some(_)) => break,
                (Some(_), None) => rate *= LADDER_FACTOR,
                _ => rate /= LADDER_FACTOR,
            }
        }
        if let (Some(mut lo), Some(mut hi)) = (pass, fail) {
            for _ in 0..REFINEMENTS {
                let rate = (lo.0 + hi) / 2.0;
                match try_rate(rate, r)? {
                    Some(achieved) => lo = (rate, achieved),
                    None => hi = rate,
                }
            }
            pass = Some(lo);
        }
        let best = pass.map_or(0.0, |p| p.1);
        r.set("max_qps", best, "achieved at the highest passing rate", steps.len());
        r.note("serve_ladder_rate_p50_tail_ms_pass", format!("[{}]", steps.join(",")));
        r.note("serve_generator_threads", threads);
        r.note("serve_reference_lateness_p50_ms", reference.lateness_ms.median());
        r.note("serve_reference_lateness_max_ms", reference.lateness_ms.max());
        let delta = metrics::snapshot().since(&before);
        r.note("serve_ladder_plan_cache_hits", delta.counter("sql.plan_cache.hits"));
        r.note("serve_ladder_plan_cache_misses", delta.counter("sql.plan_cache.misses"));
        r.note("serve_ladder_plan_cache_evictions", delta.counter("sql.plan_cache.evictions"));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1024);
        let mut rng = Rng::new(1);
        let hot = (0..10_000).filter(|_| z.sample(&mut rng) < 256).count();
        assert!(hot > 7_000 && hot < 9_000, "{hot}");
    }

    #[test]
    fn served_results_match_embedded_and_a_wrong_one_fails() {
        let env = setup(3_000, 4, &mut Samples::new()).unwrap();
        let reqs = requests(&env, 4, 40);
        assert!(reqs.iter().any(|q| q.predict) && reqs.iter().any(|q| !q.predict));
        let mut step = run_step(&env, &reqs, 400.0, 2, true, None).unwrap();
        assert_eq!(step.failed, 0);
        assert_eq!(step.results.len(), 40);
        let mut r = Report::default();
        check_results(&env, &reqs, &step, &mut HashMap::new(), &mut r).unwrap();
        assert!(r.correct(), "{:?}", r.wrong);

        // Swap two different answers: each now contradicts its statement.
        let other =
            step.results.iter().position(|s| s.batch.rows() != step.results[0].batch.rows());
        let other = other.expect("a result of another shape");
        let first = step.results[0].batch.clone();
        step.results[0].batch = step.results[other].batch.clone();
        step.results[other].batch = first;
        let mut r = Report::default();
        check_results(&env, &reqs, &step, &mut HashMap::new(), &mut r).unwrap();
        assert_eq!(r.wrong.len(), 2);
    }

    #[test]
    fn a_stale_cached_plan_fails_the_run() {
        let env = setup(3_000, 4, &mut Samples::new()).unwrap();
        let reqs = requests(&env, 4, 40);
        let mut predicts = reqs.iter().filter(|q| q.predict).map(|q| q.sql.as_str());
        let a = predicts.next().unwrap();
        let b = predicts.find(|&b| b != a).expect("two distinct point predictions");
        // Cache b's plan under a's text: the server, and any `db.query`
        // on the same database, now answers a with b's voter.
        env.db.query(b).unwrap();
        let stamp = (env.db.catalog().generation(), env.db.functions().generation());
        let plan = env.db.plan_cache().probe(b, stamp, |_| true).expect("b is cached");
        env.db.plan_cache().insert(a, (*plan).clone(), stamp);
        assert!(same_values(&env.db.query(a).unwrap(), &env.db.query(b).unwrap()));

        let stale = vec![Request { sql: a.to_owned(), predict: true }];
        let step = run_step(&env, &stale, 400.0, 1, true, None).unwrap();
        assert_eq!(step.results.len(), 1);
        let mut r = Report::default();
        check_results(&env, &stale, &step, &mut HashMap::new(), &mut r).unwrap();
        assert_eq!(r.wrong.len(), 1, "{:?}", r.wrong);
    }

    #[test]
    fn traced_requests_split_round_trip_into_engine_and_overhead() {
        let env = setup(3_000, 4, &mut Samples::new()).unwrap();
        let (mut t, mut r, mut x) = (Tracer::default(), Report::default(), Extra::default());
        let mut phase = ServePhase::new(&env, 4).unwrap();
        phase.round(Duration::from_millis(300), &mut r, Some(&mut t), &mut x, true).unwrap();
        phase.finish(Duration::ZERO, &mut r, true, &mut x).unwrap();
        assert!(r.correct(), "{:?}", r.wrong);
        let table = t.layer_table("request.predict");
        assert!(table.roots > 0);
        assert!(table.rows.iter().any(|r| r.0 == "engine.execute"));
        assert!(!x.netproto_overhead_us.is_empty());
        assert!(x.overhead.is_some());
    }
}
