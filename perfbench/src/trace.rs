//! In-memory spans for the traced run, and the layer tables built from
//! them.
//!
//! A span is recorded around each call into a layer's public functions.
//! Work that happens inside one call but that the registry already times
//! (`ml.train.time_ns` inside a `train(...)` statement, say) is attached
//! to the enclosing span as a *split*: a named share of its duration.
//! A span's self time is its duration minus its children and splits, so
//! the self times of every span under a root, plus its splits, add up to
//! the root's duration exactly. What the root itself keeps is the
//! `unattributed` row.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Shared by every span of one pipeline iteration, request or commit.
    pub id: u64,
    pub splits: Vec<(&'static str, u64)>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), next_id: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A tracer whose timestamps count from `origin`, so tracers of
    /// several threads can be merged.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer { origin, ..Tracer::default() }
    }

    fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` under a new root span that started at `start` (a request's
    /// due time, which precedes the call).
    pub fn root_from<T>(
        &mut self,
        name: &'static str,
        start: Instant,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let out = self.root(name, f);
        let idx = self.spans.iter().rposition(|s| s.parent.is_none()).expect("root just closed");
        self.spans[idx].start_ns = self.ns_at(start);
        out
    }

    /// Records a finished child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = *self.stack.last().expect("span recorded outside a root");
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        let id = self.spans[parent].id;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            id,
            splits: Vec::new(),
        });
    }

    /// Index of the most recent span called `name`.
    pub fn last_index(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Attributes `d` of the finished span `idx` to `name`, capped at the
    /// span's remaining self time so the layer table still sums exactly.
    pub fn add_split(&mut self, idx: usize, name: &'static str, d: Duration) {
        let span = &self.spans[idx];
        let taken: u64 = span.splits.iter().map(|&(_, d)| d).sum::<u64>()
            + self
                .spans
                .iter()
                .filter(|s| s.parent == Some(idx))
                .map(Span::duration_ns)
                .sum::<u64>();
        let room = span.duration_ns().saturating_sub(taken);
        self.spans[idx].splits.push((name, (d.as_nanos() as u64).min(room)));
    }

    /// Appends another tracer's spans, keeping their ids distinct.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let id_offset = self.next_id;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + offset);
            s.id += id_offset;
            self.spans.push(s);
        }
        self.next_id += other.next_id;
    }

    /// Runs `f` under a new root span with a fresh id.
    pub fn root<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let saved = std::mem::take(&mut self.stack);
        self.next_id += 1;
        let out = self.open(name, None, self.next_id, f);
        self.stack = saved;
        out
    }

    /// Runs `f` under a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = *self.stack.last().expect("span opened outside a root");
        let id = self.spans[parent].id;
        self.open(name, Some(parent), id, f)
    }

    fn open<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id, splits: Vec::new() });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attributes `d` of the innermost open span to `name`.
    pub fn split(&mut self, name: &'static str, d: Duration) {
        let idx = *self.stack.last().expect("split outside a span");
        self.spans[idx].splits.push((name, d.as_nanos() as u64));
    }

    /// Durations of every root span called `root`, in milliseconds.
    pub fn root_ms(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Duration of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Every split called `name`, in milliseconds.
    pub fn splits_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flat_map(|s| s.splits.iter())
            .filter(|(n, _)| *n == name)
            .map(|&(_, d)| d as f64 / 1e6)
            .collect()
    }

    /// Per-id self time of every span called `name`, summed within each
    /// root id, in milliseconds — one value per root that contains one.
    pub fn self_ms_per_root(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        let mut per: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, &st) in self.spans.iter().zip(&selfs) {
            if s.name == name {
                *per.entry(s.id).or_default() += st as f64 / 1e6;
            }
            for &(n, d) in &s.splits {
                if n == name {
                    *per.entry(s.id).or_default() += d as f64 / 1e6;
                }
            }
        }
        per.into_values().collect()
    }

    fn self_times(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.duration_ns().saturating_sub(s.splits.iter().map(|&(_, d)| d).sum()))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                selfs[p] = selfs[p].saturating_sub(s.duration_ns());
            }
        }
        selfs
    }

    /// The layer table for roots called `root`: mean milliseconds per
    /// root, by layer, with the roots' own self time as `unattributed`.
    pub fn layer_table(&self, root: &str) -> LayerTable {
        let selfs = self.self_times();
        let mut root_of = vec![usize::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root_of[i] = match s.parent {
                None => i,
                Some(p) => root_of[p],
            };
        }
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut total = 0.0;
        let mut unattributed = 0.0;
        let mut roots = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name != root {
                continue;
            }
            if s.parent.is_none() {
                roots += 1;
                total += s.duration_ns() as f64;
                unattributed += selfs[i] as f64;
            } else {
                *rows.entry(s.name).or_default() += selfs[i] as f64;
            }
            for &(n, d) in &s.splits {
                *rows.entry(n).or_default() += d as f64;
            }
        }
        let per = |ns: f64| if roots == 0 { 0.0 } else { ns / roots as f64 / 1e6 };
        LayerTable {
            root: root.to_owned(),
            roots,
            total_ms: per(total),
            rows: rows.into_iter().map(|(n, ns)| (n, per(ns))).collect(),
            unattributed_ms: per(unattributed),
        }
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let splits: Vec<String> =
                s.splits.iter().map(|(n, d)| format!("[\"{n}\",{d}]")).collect();
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"id\":{},\"splits\":[{}]}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.id,
                splits.join(",")
            );
        }
        out
    }
}

/// Mean time per root span, split by layer.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub root: String,
    pub roots: usize,
    pub total_ms: f64,
    pub rows: Vec<(&'static str, f64)>,
    pub unattributed_ms: f64,
}

impl LayerTable {
    pub fn render(&self) -> String {
        let mut out =
            format!("layer table for {} (mean of {} traced roots, ms)\n", self.root, self.roots);
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in rows {
            let _ = writeln!(out, "  {name:<28} {ms:>12.4}");
        }
        let _ = writeln!(out, "  {:<28} {:>12.4}", "unattributed", self.unattributed_ms);
        let _ = writeln!(out, "  {:<28} {:>12.4}", "total", self.total_ms);
        out
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> =
            self.rows.iter().map(|(n, ms)| format!("\"{n}\":{ms:.6}")).collect();
        format!(
            "{{\"root\":\"{}\",\"roots\":{},\"total_ms\":{:.6},\"unattributed_ms\":{:.6},\
             \"layers_ms\":{{{}}}}}",
            self.root,
            self.roots,
            self.total_ms,
            self.unattributed_ms,
            rows.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_rows_and_unattributed_sum_to_the_total() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            t.root("iter", |t| {
                t.span("a", |t| {
                    std::thread::sleep(Duration::from_millis(2));
                    t.span("b", |_| std::thread::sleep(Duration::from_millis(1)));
                    t.split("c", Duration::from_micros(500));
                });
                std::thread::sleep(Duration::from_millis(1));
            });
        }
        let table = t.layer_table("iter");
        assert_eq!(table.roots, 3);
        let sum: f64 = table.rows.iter().map(|r| r.1).sum::<f64>() + table.unattributed_ms;
        assert!((sum - table.total_ms).abs() < 1e-9, "{sum} vs {}", table.total_ms);
        assert!(table.unattributed_ms >= 1.0);
        let c = table.rows.iter().find(|r| r.0 == "c").expect("split row").1;
        assert!((c - 0.5).abs() < 1e-9);
        assert_eq!(t.self_ms_per_root("b").len(), 3);
        assert_eq!(t.to_jsonl().lines().count(), 9);
    }
}
