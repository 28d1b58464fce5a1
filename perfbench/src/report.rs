//! The metric catalogue and the result a run prints.

use crate::stats::Samples;
use crate::trace::LayerTable;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("wrangle_s", "s"),
    ("npy_pipeline_s", "s"),
    ("predict_p50_ms", "ms"),
    ("analytics_p50_ms", "ms"),
    ("max_qps", "q/s"),
    ("insert_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("delete_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("recovery_s", "s"),
    ("bytes_written_per_user_byte", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("sql.optimize_us", "us"),
    ("sql.plan_cache.hit_ratio", "ratio"),
    ("exec.execute_plan_ms", "ms"),
    ("exec.hash_join_ms", "ms"),
    ("exec.aggregate_ms", "ms"),
    ("exec.filter_ms", "ms"),
    ("exec.project_ms", "ms"),
    ("table.from_batch_ms", "ms"),
    ("stats.compute_ms", "ms"),
    ("sql.stats.built", "count"),
    ("encoding.columns_encoded", "count"),
    ("bridge.matrix_ms", "ms"),
    ("udf.train_ms", "ms"),
    ("ml.matrix_cache.hit_ratio", "ratio"),
    ("ml.train_ms", "ms"),
    ("ml.splits_evaluated", "count"),
    ("ml.predict_ms", "ms"),
    ("ml.predict_rows", "count"),
    ("pickle.serialize_us", "us"),
    ("pickle.deserialize_us", "us"),
    ("pickle.bytes", "bytes"),
    ("modelstore.cache.hit_ratio", "ratio"),
    ("pool.busy_ms", "ms"),
    ("pool.utilization", "ratio"),
    ("pool.jobs", "count"),
    ("pool.morsels", "count"),
    ("netproto.overhead_us", "us"),
    ("netproto.bytes_per_query", "bytes"),
    ("netproto.evloop.shed", "count"),
    ("generator.lateness_ms", "ms"),
    ("wal.overhead_insert_ms", "ms"),
    ("wal.overhead_update_ms", "ms"),
    ("wal.overhead_delete_ms", "ms"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.fsyncs", "count"),
    ("checkpoint.bytes", "bytes"),
    ("persist.replayed_records", "count"),
    ("recovery.us_per_record", "us"),
    ("fileio.npy_read_ms", "ms"),
    ("voters.gen_s", "s"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    /// Which statistic `value` is (`median`, `p99`, `ratio`, …).
    stat: String,
    samples: usize,
}

/// What one run measured, checked and counted.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    pub tables: Vec<LayerTable>,
    /// Extra `"key":value` JSON members for the detail line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, stat: &str, samples: usize) {
        self.metrics.insert(name, Metric { value, stat: stat.to_owned(), samples });
    }

    /// Records the median of `s`.
    pub fn median(&mut self, name: &'static str, s: &Samples) {
        self.set(name, s.median(), "median", s.len());
    }

    /// Records the highest percentile of `s` with ten samples beyond it.
    pub fn tail(&mut self, name: &'static str, s: &Samples) {
        let (p, v) = s.tail();
        self.set(name, v, &format!("p{p}"), s.len());
    }

    /// Fails the run's correctness check with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(why());
        }
    }

    pub fn note(&mut self, key: &str, json_value: impl std::fmt::Display) {
        self.notes.push(format!("\"{key}\":{json_value}"));
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The catalogue entries missing from this run's metrics.
    pub fn missing(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.metrics.contains_key(n))
            .map(|(n, _)| (*n).to_owned())
            .collect()
    }

    /// The last line of output: exactly the catalogue's metrics.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in catalogue {
            if let Some(m) = self.metrics.get(name) {
                parts
                    .push(format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(m.value)));
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        )
    }

    /// Every recorded metric with its statistic and sample count, the
    /// layer tables, the notes, and any wrong answers, as one JSON line.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{\"detail\":{\"metrics\":{");
        let ms: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, m)| {
                format!(
                    "\"{n}\":{{\"value\":{},\"stat\":\"{}\",\"samples\":{}}}",
                    num(m.value),
                    m.stat,
                    m.samples
                )
            })
            .collect();
        out.push_str(&ms.join(","));
        out.push_str("},\"layer_tables\":[");
        let ts: Vec<String> = self.tables.iter().map(LayerTable::to_json).collect();
        out.push_str(&ts.join(","));
        out.push(']');
        for n in &self.notes {
            let _ = write!(out, ",{n}");
        }
        let wrong: Vec<String> = self.wrong.iter().map(|w| json_str(w)).collect();
        let _ = write!(out, ",\"wrong\":[{}]}}}}", wrong.join(","));
        out
    }
}

/// A finite JSON number with every digit Rust prints.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::default();
        r.set("setup_s", 1.25, "median", 3);
        r.attempted = 10;
        let line = r.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        r.check(false, || "bad \"answer\"".into());
        assert!(!r.correct());
        assert!(r.result_line(&[]).starts_with("{\"correct\":false"));
        assert!(r.detail_line().contains("bad \\\"answer\\\""));
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
            assert!(
                u.len() <= 16
                    && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\"")).nth(1).expect("section");
            let body = &body[..body.find(']').expect("end of section")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                        rest[..rest.find('"').expect("closing quote")].to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }
}
