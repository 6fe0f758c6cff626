//! Turning an [`Outcome`] into the contract's JSON line, the human table
//! and the `run --out` file.

use crate::measure::{Metric, Outcome};
use crate::schema::MetricDef;
use impatience_core::{json, Json};

/// Orders an outcome's metrics as the pass's list in `BENCHMARK.json`.
/// A per-layer row the workload bypasses reads 0 ("this layer did no work
/// here"); a missing end-to-end metric or an unlisted name is a defect in
/// the benchmark itself.
pub fn conform(outcome: &Outcome, defs: &[MetricDef], traced: bool) -> Vec<Metric> {
    for m in &outcome.metrics {
        assert!(
            defs.iter().any(|d| d.name == m.name),
            "metric {:?} is not listed in BENCHMARK.json",
            m.name
        );
    }
    defs.iter()
        .map(|d| {
            let mut found = outcome.metrics.iter().filter(|m| m.name == d.name);
            let first = found.next().cloned();
            assert!(found.next().is_none(), "metric {:?} produced twice", d.name);
            match first {
                Some(m) => m,
                None if traced => Metric::plain(&d.name, 0.0),
                None => panic!("end-to-end metric {:?} was not produced", d.name),
            }
        })
        .collect()
}

fn number(v: f64) -> Json {
    // Integral values print without a fraction either way; keep counts as
    // integers so they compare exactly.
    if v.fract() == 0.0 && v.abs() < 9e15 {
        Json::Int(v as i128)
    } else {
        Json::Float(v)
    }
}

/// The one-line result the driver reads.
pub fn contract_line(outcome: &Outcome, metrics: &[Metric], defs: &[MetricDef]) -> String {
    let fields = metrics
        .iter()
        .zip(defs)
        .map(|(m, d)| {
            (
                m.name.clone(),
                json!({"value": number(m.value), "unit": d.unit.as_str()}),
            )
        })
        .collect();
    json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Json::Object(fields),
    })
    .to_string()
}

/// Aligned `name value unit` rows.
pub fn table(title: &str, metrics: &[Metric], defs: &[MetricDef]) -> String {
    let width = defs.iter().map(|d| d.name.len()).max().unwrap_or(0);
    let mut text = format!("{title}\n");
    for (m, d) in metrics.iter().zip(defs) {
        text.push_str(&format!(
            "  {:<width$}  {:>16.4}  {}\n",
            m.name, m.value, d.unit
        ));
    }
    text
}

/// One pass of one workload as stored by `run --out`.
pub fn pass_json(outcome: &Outcome, metrics: &[Metric], defs: &[MetricDef]) -> Json {
    let fields = metrics
        .iter()
        .zip(defs)
        .map(|(m, d)| {
            (
                m.name.clone(),
                json!({
                    "value": number(m.value),
                    "unit": d.unit.as_str(),
                    "segments": Json::Array(m.segments.iter().map(|v| number(*v)).collect()),
                }),
            )
        })
        .collect();
    json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Json::Object(fields),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, unit: &str) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: unit.into(),
            higher_is_better: false,
            bound: None,
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_listed_metrics() {
        let defs = vec![def("a.ns", "ns"), def("b.count", "count")];
        let mut out = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        out.put("b.count", 7.0);
        let metrics = conform(&out, &defs, true);
        let line = contract_line(&out, &metrics, &defs);
        let v = Json::parse(&line).expect("valid JSON");
        let Json::Object(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").expect("metrics");
        // The bypassed layer row reads 0; the count stays an integer.
        assert_eq!(
            m.get("a.ns").and_then(|x| x.get("value")),
            Some(&Json::Int(0))
        );
        assert_eq!(
            m.get("b.count").and_then(|x| x.get("value")),
            Some(&Json::Int(7))
        );
        assert_eq!(
            m.get("b.count")
                .and_then(|x| x.get("unit"))
                .and_then(Json::as_str),
            Some("count")
        );
    }

    #[test]
    #[should_panic(expected = "was not produced")]
    fn a_missing_end_to_end_metric_is_a_defect() {
        conform(&Outcome::default(), &[def("setup_s", "s")], false);
    }

    #[test]
    #[should_panic(expected = "not listed")]
    fn an_unlisted_metric_is_a_defect() {
        let mut out = Outcome::default();
        out.put("typo", 1.0);
        conform(&out, &[def("setup_s", "s")], true);
    }
}
