//! The benchmark's contract, read from the `BENCHMARK.json` compiled in.
//!
//! One source of truth: the binary prints exactly the metric names the
//! file lists, `compare` applies exactly the bounds it fixes, and a metric
//! the file names but no workload produced is a bug caught at run time.

use impatience_core::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Metrics of the untraced pass.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of the traced pass.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(root: &Json, key: &str) -> Vec<MetricDef> {
    root.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array {key:?}"))
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry lacks {field:?}"))
                    .to_string()
            };
            MetricDef {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Schema {
    /// Parses the compiled-in file; a malformed file is a build defect.
    pub fn load() -> Schema {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        Schema {
            workloads: root
                .get("workloads")
                .and_then(Json::as_array)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("BENCHMARK.json: workload name")
                        .to_string()
                })
                .collect(),
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_i64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            end_to_end: metric_defs(&root, "end_to_end"),
            per_layer: metric_defs(&root, "per_layer"),
        }
    }

    /// The metric list of a pass.
    pub fn metrics(&self, traced: bool) -> &[MetricDef] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_contract_is_well_formed() {
        let s = Schema::load();
        assert_eq!(s.workloads.len(), 4);
        assert!((1..=60).contains(&s.run_seconds));
        let setup = s
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        for m in &s.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
    }
}
