//! The benchmark's declaration, `BENCHMARK.json` at the repository root,
//! compiled in so the metrics a run prints can never drift from the ones
//! it declares.

use serde::Value;

/// The declaration's text.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The parts of the declaration a run needs.
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(v: &Value, key: &str) -> Vec<MetricSpec> {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: {key} must be an array"))
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .expect("metric unit")
                .to_string(),
        })
        .collect()
}

/// Parses the compiled-in declaration.
pub fn load() -> Spec {
    let v = serde::json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Spec {
        workloads: v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("workload name")
                    .to_string()
            })
            .collect(),
        end_to_end: metrics(&v, "end_to_end"),
        per_layer: metrics(&v, "per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        serde::json::from_str(BENCHMARK_JSON).unwrap()
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn top_level_shape() {
        let d = doc();
        assert_eq!(
            keys(&d),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let secs = d.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&secs));
        let command = d.get("command").and_then(Value::as_array).unwrap();
        assert!(!command.is_empty() && command.len() <= 32);
        for c in command {
            let c = c.as_str().unwrap();
            assert!(
                c.len() <= 200 && !c.starts_with('/') && !c.contains(".."),
                "{c}"
            );
        }
    }

    #[test]
    fn every_workload_has_a_name_and_a_why() {
        let d = doc();
        let w = d.get("workloads").and_then(Value::as_array).unwrap();
        assert!((2..=8).contains(&w.len()));
        for w in w {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(is_name(w.get("name").and_then(Value::as_str).unwrap()));
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
    }

    #[test]
    fn metric_names_units_and_counts() {
        let d = doc();
        let e2e = d.get("end_to_end").and_then(Value::as_array).unwrap();
        let layer = d.get("per_layer").and_then(Value::as_array).unwrap();
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = std::collections::HashSet::new();
        for m in e2e.iter().chain(layer) {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "metric {name} declared twice");
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: bad unit {unit:?}"
            );
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
        }
        for m in e2e {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        for m in layer {
            assert_eq!(keys(m), ["name", "unit", "better"]);
        }
    }

    #[test]
    fn setup_time_is_declared_with_the_largest_bound() {
        let d = doc();
        let e2e = d.get("end_to_end").and_then(Value::as_array).unwrap();
        let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).unwrap();
        let setup = e2e
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
            .expect("setup_s declared");
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));
    }

    #[test]
    fn workload_notes_cover_every_workload_and_metric() {
        let notes = serde::json::from_str(include_str!("../workloads.json")).unwrap();
        let spec = load();
        let described = notes.get("workloads").and_then(Value::as_object).unwrap();
        let names: Vec<&str> = described.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec.workloads);
        let map = notes
            .get("per_layer_moves")
            .and_then(Value::as_object)
            .unwrap();
        for m in &spec.per_layer {
            assert!(
                map.iter().any(|(k, _)| k == &m.name),
                "{} has no map entry",
                m.name
            );
        }
        for (k, _) in map {
            assert!(
                spec.per_layer.iter().any(|m| &m.name == k),
                "{k} is not declared"
            );
        }
    }

    fn why(name: &str) -> String {
        let d = doc();
        let w = d.get("workloads").and_then(Value::as_array).unwrap();
        w.iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .and_then(|w| w.get("why").and_then(Value::as_str))
            .unwrap()
            .to_string()
    }

    /// The recorded workload parameters are the ones the code runs.
    #[test]
    fn workload_parameters_match_the_code() {
        use crate::{serve, sweep};
        let notes = serde::json::from_str(include_str!("../workloads.json")).unwrap();
        let w = |name: &str, key: &str| -> f64 {
            notes
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get(key))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("workloads.json: {name}.{key}"))
        };
        assert_eq!(w("sweep_tgn", "payload_bytes"), sweep::PAYLOAD as f64);
        assert_eq!(
            w("sweep_tgn", "trials_per_point_per_round"),
            sweep::TRIALS as f64
        );
        assert_eq!(w("sweep_tgn", "shard_size"), sweep::SHARD as f64);
        assert_eq!(
            w("sweep_tgn", "reconcile_tolerance"),
            sweep::RECONCILE_TOLERANCE
        );
        assert_eq!(
            w("serve_fleet", "reference_rate_per_s"),
            serve::FLEET_REF_RATE
        );
        assert_eq!(
            w("serve_fleet", "reference_sessions"),
            serve::STEP_SESSIONS as f64
        );
        assert_eq!(
            w("serve_fleet", "saturation_clients"),
            serve::FLEET_CONNS as f64
        );
        assert_eq!(
            w("serve_fleet", "saturation_share_of_run"),
            serve::SATURATION_SHARE
        );
        assert_eq!(w("serve_fleet", "saturation_blocks"), serve::BLOCKS as f64);
        assert_eq!(
            w("serve_fleet", "unloaded_sessions"),
            serve::UNLOADED_SESSIONS as f64
        );
        assert_eq!(
            w("serve_fleet", "unloaded_pause_ms"),
            serve::UNLOADED_PAUSE.as_secs_f64() * 1e3
        );
        assert_eq!(
            w("serve_fleet", "latency_limit_ms"),
            serve::LATENCY_LIMIT_MS
        );
        assert_eq!(w("serve_bulk", "connections"), serve::BULK_CONNS as f64);
        let ladder: Vec<f64> = notes
            .get("workloads")
            .and_then(|w| w.get("serve_fleet"))
            .and_then(|w| w.get("ladder_multiples"))
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(ladder, serve::LADDER);

        // The one-line summaries in BENCHMARK.json quote the same numbers.
        assert!(why("sweep_tgn").contains(&format!("{} B", sweep::PAYLOAD)));
        let fleet = why("serve_fleet");
        for quoted in [
            format!("{} clients", serve::FLEET_CONNS),
            format!("{} sessions/s", serve::FLEET_REF_RATE),
            format!("{} ms", serve::LATENCY_LIMIT_MS),
        ] {
            assert!(fleet.contains(&quoted), "serve_fleet why lacks {quoted:?}");
        }
        assert!(why("serve_bulk").contains(&format!("{} persistent", serve::BULK_CONNS)));
    }

    /// Every end-to-end metric a per-layer metric is said to move is one
    /// the benchmark gates.
    #[test]
    fn layer_map_points_at_declared_end_to_end_metrics() {
        let notes = serde::json::from_str(include_str!("../workloads.json")).unwrap();
        let spec = load();
        let map = notes
            .get("per_layer_moves")
            .and_then(Value::as_object)
            .unwrap();
        for (layer, entry) in map {
            for m in entry.get("should_move").and_then(Value::as_array).unwrap() {
                let m = m.as_str().unwrap();
                assert!(
                    spec.end_to_end.iter().any(|e| e.name == m),
                    "{layer} moves {m}, which is not an end-to-end metric"
                );
            }
        }
    }
}
