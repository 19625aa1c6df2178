//! Metric collection and the result line.
//!
//! Every metric is printed as a human-readable line (with the sample
//! count behind each percentile); the last line of standard output is one
//! JSON object holding exactly the metrics `BENCHMARK.json` declares for
//! the run's mode — end-to-end untraced, per-layer traced.

use crate::spec::MetricSpec;
use crate::stats::{percentile, MIN_BEYOND};
use crate::trace::Spans;
use serde::Value;

struct Entry {
    name: String,
    value: f64,
    unit: &'static str,
    n: Option<usize>,
    note: Option<String>,
}

/// What a workload run measured and whether its outputs were correct.
#[derive(Default)]
pub struct Report {
    entries: Vec<Entry>,
    failures: Vec<String>,
    /// Operations attempted (frames for the sweep, sessions served).
    pub attempted: u64,
    /// Operations that failed (sessions refused, lost or corrupted).
    pub failed: u64,
    /// The traced run's span log, written out when the run ends.
    pub spans: Option<Spans>,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            unit,
            n: None,
            note: None,
        });
    }

    /// Records a metric that does not apply to this workload as 0, with
    /// the reason on its human-readable line.
    pub fn put_na(&mut self, name: &str, unit: &'static str, why: &str) {
        self.entries.push(Entry {
            name: name.to_string(),
            value: 0.0,
            unit,
            n: None,
            note: Some(why.to_string()),
        });
    }

    /// Records nearest-rank percentile `p` of `samples`. Too few samples
    /// beyond the rank records 0 with the reason; a declared end-to-end
    /// metric recorded that way fails the run (see [`Report::finish`]).
    pub fn put_percentile(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        match percentile(samples, p) {
            Some(q) => self.entries.push(Entry {
                name: name.to_string(),
                value: q.value,
                unit,
                n: Some(q.n),
                note: None,
            }),
            None => self.put_na(
                name,
                unit,
                &format!(
                    "{} samples leave fewer than {MIN_BEYOND} beyond p{p}",
                    samples.len()
                ),
            ),
        }
    }

    /// Marks the run incorrect.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Prints every metric, then checks the declared ones are all present
    /// with matching units (end-to-end ones also non-zero) and returns
    /// the result object.
    pub fn finish(&mut self, declared: &[MetricSpec], require_nonzero: bool) -> Value {
        for e in &self.entries {
            let n = e.n.map(|n| format!("  (n={n})")).unwrap_or_default();
            let note = e
                .note
                .as_ref()
                .map(|s| format!("  [n/a: {s}]"))
                .unwrap_or_default();
            println!("{:<26} {:>14.6} {}{n}{note}", e.name, e.value, e.unit);
        }
        let mut metrics = Vec::new();
        for m in declared {
            let Some(e) = self.entries.iter().find(|e| e.name == m.name) else {
                self.failures
                    .push(format!("metric {} was not measured", m.name));
                continue;
            };
            if e.unit != m.unit {
                self.failures
                    .push(format!("metric {} in {} not {}", m.name, e.unit, m.unit));
            }
            if require_nonzero && !(e.value.is_finite() && e.value > 0.0) {
                self.failures.push(format!(
                    "metric {} has no valid value ({})",
                    m.name, e.value
                ));
            }
            metrics.push((
                m.name.clone(),
                Value::object([
                    (
                        "value",
                        Value::F64(if e.value.is_finite() { e.value } else { 0.0 }),
                    ),
                    ("unit", Value::Str(m.unit.clone())),
                ]),
            ));
        }
        for f in &self.failures {
            println!("FAILED: {f}");
            eprintln!("FAILED: {f}");
        }
        Value::object([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}
