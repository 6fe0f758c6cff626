//! `stack compare A.json B.json`: the bounds of `BENCHMARK.json` applied
//! row by row (one row per end-to-end metric × workload).
//!
//! * `worse` — B's value is worse than A's by more than the bound;
//! * `unresolved` — either side's own spread (inter-quartile range of its
//!   segment values over their median) is wider than the bound, so the
//!   pair cannot be told apart: reported, never passed off as unchanged;
//! * `ok` — otherwise.
//!
//! Exits non-zero when any row is `worse`. Per-layer rows have no bound;
//! their values are listed side by side for the reader.

use crate::schema::{MetricDef, Schema};
use crate::stats::iqr_share;
use impatience_core::Json;

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// The runs' own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and its segment values.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// The statistic over each segment of the timed section.
    pub segments: Vec<f64>,
}

/// Applies `def`'s bound to baseline `a` and candidate `b`.
pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let worsening = if a.value == 0.0 {
        0.0
    } else if def.higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if worsening > bound {
        return Verdict::Worse;
    }
    // Set-up time is exempt from the spread rule (it is a median of five
    // cold starts by construction), as in the benchmark contract.
    if def.name != "setup_s" && iqr_share(&a.segments).max(iqr_share(&b.segments)) > bound {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn side(file: &Json, workload: &str, pass: &str, metric: &str) -> Option<Side> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        segments: m
            .get("segments")
            .and_then(Json::as_array)
            .map(|s| s.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Compares two `run --out` files; returns the report and whether any
/// row was `worse`.
pub fn compare(schema: &Schema, a: &Json, b: &Json) -> (String, bool) {
    let mut report = String::new();
    let mut any_worse = false;
    let width = schema
        .end_to_end
        .iter()
        .chain(&schema.per_layer)
        .map(|d| d.name.len())
        .max()
        .unwrap_or(0);
    for workload in &schema.workloads {
        report.push_str(&format!("{workload}\n"));
        for def in &schema.end_to_end {
            let (Some(sa), Some(sb)) = (
                side(a, workload, "end_to_end", &def.name),
                side(b, workload, "end_to_end", &def.name),
            ) else {
                report.push_str(&format!("  {:<width$}  missing\n", def.name));
                continue;
            };
            let verdict = judge(def, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            report.push_str(&format!(
                "  {:<width$}  {:>16.4} -> {:>16.4} {:<6} bound {:>4.1}%  spread {:>5.1}% / {:>5.1}%  {}\n",
                def.name,
                sa.value,
                sb.value,
                def.unit,
                100.0 * def.bound.unwrap_or(0.0),
                100.0 * iqr_share(&sa.segments),
                100.0 * iqr_share(&sb.segments),
                verdict.label(),
            ));
        }
        for def in &schema.per_layer {
            let (Some(sa), Some(sb)) = (
                side(a, workload, "per_layer", &def.name),
                side(b, workload, "per_layer", &def.name),
            ) else {
                continue;
            };
            if sa.value != 0.0 || sb.value != 0.0 {
                report.push_str(&format!(
                    "  {:<width$}  {:>16.4} -> {:>16.4} {}\n",
                    def.name, sa.value, sb.value, def.unit
                ));
            }
        }
    }
    (report, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    fn steady(value: f64) -> Side {
        Side {
            value,
            segments: vec![value * 0.99, value, value * 1.01, value, value],
        }
    }

    #[test]
    fn the_three_verdicts() {
        let def = lower("latency_ms", 0.10);
        assert_eq!(judge(&def, &steady(100.0), &steady(105.0)), Verdict::Ok);
        assert_eq!(judge(&def, &steady(100.0), &steady(80.0)), Verdict::Ok);
        assert_eq!(judge(&def, &steady(100.0), &steady(111.0)), Verdict::Worse);
        // Same medians, but one side's own segments scatter by 30%: the
        // pair cannot be told apart at a 10% bound.
        let noisy = Side {
            value: 100.0,
            segments: vec![80.0, 90.0, 100.0, 110.0, 125.0],
        };
        assert_eq!(judge(&def, &steady(100.0), &noisy), Verdict::Unresolved);
        // A regression beyond the bound is `worse` however noisy.
        let noisy_worse = Side {
            value: 150.0,
            ..noisy
        };
        assert_eq!(judge(&def, &steady(100.0), &noisy_worse), Verdict::Worse);
    }

    #[test]
    fn direction_follows_better() {
        let def = MetricDef {
            higher_is_better: true,
            ..lower("throughput_eps", 0.10)
        };
        assert_eq!(judge(&def, &steady(100.0), &steady(120.0)), Verdict::Ok);
        assert_eq!(judge(&def, &steady(100.0), &steady(85.0)), Verdict::Worse);
    }

    #[test]
    fn setup_time_is_exempt_from_the_spread_rule() {
        let def = lower("setup_s", 0.25);
        let scattered = Side {
            value: 1.0,
            segments: vec![0.5, 1.0, 2.0],
        };
        assert_eq!(judge(&def, &scattered, &scattered), Verdict::Ok);
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let schema = Schema::load();
        let metric = &schema.end_to_end[1].name;
        let file = |v: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"{w}": {{"end_to_end": {{"metrics": {{"{metric}":
                   {{"value": {v}, "unit": "x", "segments": [{v}, {v}, {v}]}}}}}}}}}}}}"#,
                w = schema.workloads[0]
            ))
            .expect("json")
        };
        let better = schema.end_to_end[1].higher_is_better;
        let (bad, good) = if better { (50.0, 200.0) } else { (200.0, 50.0) };
        let (report, worse) = compare(&schema, &file(100.0), &file(bad));
        assert!(worse, "{report}");
        assert!(report.contains("worse"));
        let (_, worse) = compare(&schema, &file(100.0), &file(good));
        assert!(!worse);
    }
}
