//! Durable writes beside reads: one client's closed loop of WAL-committed
//! 100-row INSERTs, ~100-row key-range UPDATEs and single-row DELETEs,
//! each followed by a range read, in segments of [`SEGMENT`] commits. A
//! CHECKPOINT follows each segment; the last segment of each round is
//! first replayed by [`REOPENS`] reopens, so every reopen replays the
//! same amount of log. A shadow copy kept by the client checks every read, every
//! commit's row count and each reopened table.

use crate::layers::traced_statement;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::workdir::WorkDir;
use crate::workload::Extra;
use mlcs_columnar::{metrics, Batch, Column, Database, DbError, DbResult, Table};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Commits between checkpoints, one third of each type.
const SEGMENT: usize = 30;
/// Reopens of each round's last segment; each replays the same log tail.
const REOPENS: usize = 3;
const INSERT_ROWS: i64 = 100;
const RANGE_ROWS: i64 = 100;
const READ_ROWS: i64 = 1_000;
/// Bytes of one row's user values: `id BIGINT, grp INTEGER, v BIGINT,
/// w BIGINT`.
const ROW_BYTES: u64 = 8 + 4 + 8 + 8;

/// The client's copy of table `t`: id → (grp, v, w).
type Shadow = BTreeMap<i64, (i32, i64, i64)>;

pub struct DurableEnv {
    dir: WorkDir,
    db: Option<Database>,
    /// The same table in memory, for the WAL's share of each commit in a
    /// traced run.
    mirror: Database,
    shadow: Shadow,
    next_id: i64,
    rng: Rng,
}

fn base_batch(rows: usize, rng: &mut Rng, shadow: &mut Shadow) -> DbResult<Batch> {
    let (mut ids, mut grps, mut vs, mut ws) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for id in 0..rows as i64 {
        let row = (rng.below(64) as i32, rng.below(1_000) as i64, id % 7);
        ids.push(id);
        grps.push(row.0);
        vs.push(row.1);
        ws.push(row.2);
        shadow.insert(id, row);
    }
    Batch::from_columns(vec![
        ("id", Column::from_i64s(ids)),
        ("grp", Column::from_i32s(grps)),
        ("v", Column::from_i64s(vs)),
        ("w", Column::from_i64s(ws)),
    ])
}

/// A durable database whose base table `t` holds `rows` rows, folded into
/// the page base by a checkpoint so the log starts empty.
pub fn setup(rows: usize, seed: u64) -> DbResult<DurableEnv> {
    let dir = WorkDir::new("durable")?;
    let mut rng = Rng::new(seed.wrapping_add(99));
    let mut shadow = Shadow::new();
    let batch = base_batch(rows, &mut rng, &mut shadow)?;
    let (db, _) = Database::open_durable(dir.path())?;
    db.catalog().put_table(Table::from_batch("t", batch.clone()), false)?;
    db.checkpoint()?;
    let mirror = Database::new();
    mirror.catalog().put_table(Table::from_batch("t", batch), false)?;
    Ok(DurableEnv { dir, db: Some(db), mirror, shadow, next_id: rows as i64, rng })
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Insert,
    Update,
    Delete,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Insert => "commit.insert",
            Kind::Update => "commit.update",
            Kind::Delete => "commit.delete",
        }
    }
}

/// A commit statement, the rows it must touch, and the user bytes it
/// writes; the shadow already reflects it.
struct Commit {
    sql: String,
    rows: usize,
    user_bytes: u64,
}

impl DurableEnv {
    fn db(&self) -> DbResult<&Database> {
        self.db.as_ref().ok_or_else(|| DbError::internal("durable database closed"))
    }

    fn next_commit(&mut self, kind: Kind) -> Commit {
        match kind {
            Kind::Insert => {
                let mut values = Vec::with_capacity(INSERT_ROWS as usize);
                for id in self.next_id..self.next_id + INSERT_ROWS {
                    let row = (self.rng.below(64) as i32, self.rng.below(1_000) as i64, id % 7);
                    values.push(format!("({id}, {}, {}, {})", row.0, row.1, row.2));
                    self.shadow.insert(id, row);
                }
                self.next_id += INSERT_ROWS;
                Commit {
                    sql: format!("INSERT INTO t VALUES {}", values.join(", ")),
                    rows: INSERT_ROWS as usize,
                    user_bytes: INSERT_ROWS as u64 * ROW_BYTES,
                }
            }
            Kind::Update => {
                let lo = self.rng.below((self.next_id - RANGE_ROWS) as usize) as i64;
                let d = 1 + self.rng.below(9) as i64;
                let mut rows = 0;
                for (_, row) in self.shadow.range_mut(lo..lo + RANGE_ROWS) {
                    row.1 += d;
                    rows += 1;
                }
                Commit {
                    sql: format!(
                        "UPDATE t SET v = v + {d} WHERE id >= {lo} AND id < {}",
                        lo + RANGE_ROWS
                    ),
                    rows,
                    user_bytes: rows as u64 * 8,
                }
            }
            Kind::Delete => {
                let id = self.rng.below(self.next_id as usize) as i64;
                let rows = usize::from(self.shadow.remove(&id).is_some());
                Commit {
                    sql: format!("DELETE FROM t WHERE id = {id}"),
                    rows,
                    user_bytes: rows as u64 * ROW_BYTES,
                }
            }
        }
    }

    /// A range read and the `(count, sum(v))` the shadow expects.
    fn next_read(&mut self) -> (String, i64, i64) {
        let lo = self.rng.below(self.next_id as usize) as i64;
        let hi = lo + READ_ROWS;
        let (n, s) =
            self.shadow.range(lo..hi).fold((0i64, 0i64), |(n, s), (_, row)| (n + 1, s + row.1));
        (format!("SELECT COUNT(*) AS n, SUM(v) AS sv FROM t WHERE id >= {lo} AND id < {hi}"), n, s)
    }
}

/// Bytes the last checkpoint wrote: every file of the database directory
/// but the log (the page files of the current generation and the
/// manifest).
fn checkpoint_bytes(dir: &Path) -> DbResult<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name() != mlcs_columnar::wal::WAL_FILE {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

fn value_i64(b: &Batch, col: usize) -> i64 {
    if b.rows() == 0 {
        return 0;
    }
    b.column(col).value(0).as_i64().unwrap_or(0)
}

/// What one run of the loop measured.
#[derive(Default)]
struct Loop {
    insert_ms: Samples,
    update_ms: Samples,
    delete_ms: Samples,
    commit_ms: Samples,
    read_ms: Samples,
    checkpoint_ms: Samples,
    checkpoint_bytes: u64,
    checkpoint_each: Vec<u64>,
    user_bytes: u64,
    /// In-memory latency of the same commits (traced run only).
    mirror_ms: [Samples; 3],
}

/// Runs one commit and its read, checking both against the shadow. In a
/// traced run (`mirror`) the in-memory copy applies every commit first,
/// traced or not, so it stays equal to the durable table.
fn step(
    env: &mut DurableEnv,
    kind: Kind,
    l: &mut Loop,
    r: &mut Report,
    mut tracer: Option<&mut Tracer>,
    mirror: bool,
) -> DbResult<()> {
    let c = env.next_commit(kind);
    r.attempted += 2;
    let db = env.db()?.clone();
    let mut mirror_d = Duration::ZERO;
    if mirror {
        let start = Instant::now();
        env.mirror.execute(&c.sql)?;
        mirror_d = start.elapsed();
        if tracer.is_some() {
            l.mirror_ms[kind as usize].push(mirror_d.as_secs_f64() * 1e3);
        }
    }
    let start = Instant::now();
    let res = match tracer.as_deref_mut() {
        None => db.execute(&c.sql),
        // The commit's self time, once the same statement's in-memory
        // time is split off, is what logging it durably adds.
        Some(t) => t.root(kind.name(), |t| {
            t.span("wal.overhead", |t| {
                let res = db.execute(&c.sql);
                t.split("engine.in_memory", mirror_d.min(start.elapsed()));
                res
            })
        }),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match res {
        Ok(q) => r.check(q.rows_affected() == c.rows, || {
            format!("durable: {} touched {} rows, shadow {}", c.sql, q.rows_affected(), c.rows)
        }),
        Err(_) => r.failed += 1,
    }
    match kind {
        Kind::Insert => l.insert_ms.push(ms),
        Kind::Update => l.update_ms.push(ms),
        Kind::Delete => l.delete_ms.push(ms),
    }
    l.commit_ms.push(ms);
    l.user_bytes += c.user_bytes;
    let (sql, n, s) = env.next_read();
    let start = Instant::now();
    let got = match tracer {
        None => db.query(&sql),
        Some(t) => t.root("read", |t| traced_statement(t, &db, &sql)),
    };
    l.read_ms.push(start.elapsed().as_secs_f64() * 1e3);
    match got {
        Ok(b) => r.check(value_i64(&b, 0) == n && value_i64(&b, 1) == s, || {
            format!(
                "durable: {sql} gave ({}, {}), shadow ({n}, {s})",
                value_i64(&b, 0),
                value_i64(&b, 1)
            )
        }),
        Err(_) => r.failed += 1,
    }
    Ok(())
}

const CYCLE: [Kind; 3] = [Kind::Insert, Kind::Update, Kind::Delete];

/// The phase's state across rounds.
pub struct DurablePhase {
    l: Loop,
    /// Commits of untraced cycles in a traced run.
    untraced: Loop,
    commits: usize,
    recovery_s: Samples,
    /// Log records the last reopen replayed.
    replayed: u64,
    /// Traced runs: reopens right after a CHECKPOINT, whose log tail is
    /// empty, so their time is the page base's load alone.
    base_reopen_s: Samples,
    base_replayed: u64,
    before: metrics::Snapshot,
}

impl DurablePhase {
    pub fn new() -> DurablePhase {
        DurablePhase {
            l: Loop::default(),
            untraced: Loop::default(),
            commits: 0,
            recovery_s: Samples::new(),
            replayed: 0,
            base_reopen_s: Samples::new(),
            base_replayed: 0,
            before: metrics::snapshot(),
        }
    }

    /// The closed loop for at least `commits` commits, in whole segments,
    /// each followed by a CHECKPOINT; the last one is first replayed by
    /// [`REOPENS`] reopens. Traced, every other cycle of three commits is traced, and
    /// the last CHECKPOINT is followed by a reopen with an empty log tail.
    pub fn round(
        &mut self,
        env: &mut DurableEnv,
        commits: usize,
        r: &mut Report,
        mut tracer: Option<&mut Tracer>,
    ) -> DbResult<()> {
        let traced = tracer.is_some();
        let segments = commits.div_ceil(SEGMENT).max(1);
        for segment in 0..segments {
            for _ in 0..SEGMENT {
                let (l, t) = if traced && (self.commits / 3) % 2 == 1 {
                    (&mut self.untraced, None)
                } else {
                    (&mut self.l, tracer.as_deref_mut())
                };
                step(env, CYCLE[self.commits % 3], l, r, t, traced)?;
                self.commits += 1;
            }
            if segment + 1 == segments {
                for _ in 0..REOPENS {
                    let (seconds, replayed) = reopen(env, r)?;
                    self.recovery_s.push(seconds);
                    self.replayed = replayed;
                }
            }
            checkpoint(env, &mut self.l)?;
            if traced && segment + 1 == segments {
                for _ in 0..REOPENS {
                    let (seconds, replayed) = reopen(env, r)?;
                    self.base_reopen_s.push(seconds);
                    self.base_replayed = replayed;
                }
            }
        }
        Ok(())
    }

    /// Reports the end-to-end metrics, or when traced the per-layer
    /// samples and, when `primary`, the tracing overhead.
    pub fn finish(self, r: &mut Report, traced: bool, x: &mut Extra, primary: bool) {
        let l = &self.l;
        let delta = metrics::snapshot().since(&self.before);
        let wal_bytes = delta.counter("wal.bytes");
        r.median("insert_p50_ms", &l.insert_ms);
        r.median("update_p50_ms", &l.update_ms);
        r.median("delete_p50_ms", &l.delete_ms);
        r.tail("commit_p99_ms", &l.commit_ms);
        r.median("read_p50_ms", &l.read_ms);
        r.median("checkpoint_ms", &l.checkpoint_ms);
        r.median("recovery_s", &self.recovery_s);
        let user_bytes = l.user_bytes + self.untraced.user_bytes;
        let written = (wal_bytes + l.checkpoint_bytes) as f64;
        let commits = l.commit_ms.len() + self.untraced.commit_ms.len();
        r.set("bytes_written_per_user_byte", written / user_bytes.max(1) as f64, "ratio", commits);
        r.note("durable_wal_bytes", wal_bytes);
        r.note("durable_checkpoint_bytes", l.checkpoint_bytes);
        r.note("durable_user_bytes", user_bytes);
        r.note("durable_commits", commits);
        r.note("durable_replayed_records", self.replayed);
        if traced {
            for (kind, ms) in [&l.insert_ms, &l.update_ms, &l.delete_ms].into_iter().enumerate() {
                x.wal_overhead_ms[kind].push(ms.median() - l.mirror_ms[kind].median());
            }
            for &b in &l.checkpoint_each {
                x.checkpoint_bytes.push(b as f64);
            }
            if primary {
                x.overhead = Some((l.commit_ms.median(), self.untraced.commit_ms.median()));
            }
            // Replay's share of a reopen: the reopen that replays the tail
            // minus one that loads the same kind of base with no tail.
            let replay_s = self.recovery_s.median() - self.base_reopen_s.median();
            let records = self.replayed.saturating_sub(self.base_replayed).max(1);
            let per_record = replay_s * 1e6 / records as f64;
            r.note("durable_base_reopen_s", self.base_reopen_s.median());
            x.replayed_records.push(self.replayed as f64);
            x.recovery_us_per_record.push(per_record);
        }
    }
}

fn checkpoint(env: &mut DurableEnv, l: &mut Loop) -> DbResult<()> {
    let start = Instant::now();
    env.db()?.execute("CHECKPOINT")?;
    l.checkpoint_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let bytes = checkpoint_bytes(env.dir.path())?;
    l.checkpoint_bytes += bytes;
    l.checkpoint_each.push(bytes);
    Ok(())
}

/// Drops the handle, reopens the directory — replaying the log past the
/// last checkpoint — and checks the recovered table against the shadow:
/// row count and every column's sum. Returns the reopen time in seconds
/// and the records replayed.
fn reopen(env: &mut DurableEnv, r: &mut Report) -> DbResult<(f64, u64)> {
    let (mut n, mut sums) = (0i64, [0i64; 4]);
    for (id, row) in &env.shadow {
        n += 1;
        sums[0] += id;
        sums[1] += i64::from(row.0);
        sums[2] += row.1;
        sums[3] += row.2;
    }
    env.db = None;
    let start = Instant::now();
    let (db, report) = Database::open_durable(env.dir.path())?;
    let seconds = start.elapsed().as_secs_f64();
    r.attempted += 1;
    let b = db.query("SELECT COUNT(*), SUM(id), SUM(grp), SUM(v), SUM(w) FROM t")?;
    let got: Vec<i64> = (0..5).map(|c| value_i64(&b, c)).collect();
    let want = [n, sums[0], sums[1], sums[2], sums[3]];
    r.check(got == want, || format!("durable: reopened table {got:?}, shadow {want:?}"));
    r.check(report.is_clean(), || format!("durable: recovery was not clean: {report:?}"));
    env.db = Some(db);
    Ok((seconds, report.replayed_records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        env: &mut DurableEnv,
        commits: usize,
        r: &mut Report,
        t: Option<&mut Tracer>,
        x: &mut Extra,
    ) {
        let mut phase = DurablePhase::new();
        let traced = t.is_some();
        phase.round(env, commits, r, t).unwrap();
        phase.finish(r, traced, x, true);
    }

    #[test]
    fn shadow_matches_after_reopen() {
        let mut env = setup(2_000, 3).unwrap();
        let mut r = Report::default();
        run(&mut env, 12, &mut r, None, &mut Extra::default());
        assert!(r.correct(), "{:?}", r.wrong);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn a_change_the_client_did_not_make_fails_the_run() {
        let mut env = setup(2_000, 3).unwrap();
        // Behind the client's back: the reads and the reopened table no
        // longer match the shadow.
        env.db().unwrap().execute("UPDATE t SET v = v + 1").unwrap();
        let mut r = Report::default();
        run(&mut env, 3, &mut r, None, &mut Extra::default());
        assert!(!r.correct());
        assert!(r.wrong.iter().any(|w| w.contains("reopened table")), "{:?}", r.wrong);
    }

    #[test]
    fn traced_commits_split_into_engine_and_wal() {
        let mut env = setup(2_000, 3).unwrap();
        let (mut t, mut r, mut x) = (Tracer::default(), Report::default(), Extra::default());
        run(&mut env, 6, &mut r, Some(&mut t), &mut x);
        assert!(r.correct(), "{:?}", r.wrong);
        let table = t.layer_table("commit.update");
        assert!(table.rows.iter().any(|r| r.0 == "engine.in_memory"));
        assert!(table.rows.iter().any(|r| r.0 == "wal.overhead"));
        assert!(x.wal_overhead_ms.iter().all(|s| s.len() == 1));
        assert_eq!(x.recovery_us_per_record.len(), 1);
        assert!(x.overhead.is_some());
    }
}
