//! What a bench `--json` file must contain — the checks behind the
//! `snapshot_check` binary.
//!
//! Every line must parse with the in-tree JSON parser and name its
//! `"exhibit"`, and at least one line must be a `"kind": "metrics"`
//! snapshot carrying the observability payload the repro binaries promise
//! (see [`check_snapshot`]). Beyond that, each run declares what it was
//! asked to do: the binary writes the activity its own arguments imply
//! (`--memory-budget`: `"fault"`; with `--spill-dir` too: `"spill"`) into
//! the `"expects"` list of its metrics lines, and the file must then
//! satisfy the row of [`ACTIVITY_CONTRACTS`] with that name. Nothing is
//! supplied by the caller of `snapshot_check`, so a CI script cannot
//! forget a requirement.

use impatience_core::Json;
use std::collections::BTreeSet;

/// The body of a parsed bench JSON line of the given `"kind"` — stored
/// under the kind's own name (`"metrics"`, `"trace"`).
fn body_of<'a>(line: &'a Json, kind: &str) -> Option<&'a Json> {
    line.get(kind)
        .filter(|_| line.get("kind").and_then(Json::as_str) == Some(kind))
}

/// A total read across one bench file. Counter and gauge names match by
/// suffix, so per-stage and per-tenant prefixes all count.
#[derive(Debug, Clone, Copy)]
pub enum Total {
    /// Sum of the counters ending in this name, over all snapshots.
    Counter(&'static str),
    /// Sum of the `value` of the gauges ending in this name. Spill gauges
    /// are lifetime counts: they survive the sorter's death-tombstone.
    GaugeValue(&'static str),
    /// Largest per-snapshot sum of the `high_water` of the gauges ending
    /// in this name.
    GaugeHighWater(&'static str),
}

/// What a file must show for one activity named in an `"expects"` list.
pub struct ActivityContract {
    /// The name a binary writes into `"expects"`.
    pub name: &'static str,
    /// Totals that must be nonzero somewhere in the file.
    pub nonzero: &'static [Total],
    /// Totals that must be zero across the whole file.
    pub zero: &'static [Total],
    /// Why, for the failure message.
    pub why: &'static str,
}

/// One row per activity a bench run can promise.
pub const ACTIVITY_CONTRACTS: &[ActivityContract] = &[
    ActivityContract {
        name: "fault",
        nonzero: &[
            Total::Counter("sort.dead_lettered"),
            Total::Counter("sort.shed_events"),
        ],
        zero: &[],
        why: "a budgeted run must take the degradation path: dead-letter and shed",
    },
    ActivityContract {
        name: "spill",
        nonzero: &[
            Total::GaugeValue("spill.runs_spilled"),
            Total::GaugeHighWater("spill.bytes_on_disk"),
        ],
        zero: &[
            Total::Counter("sort.dead_lettered"),
            Total::Counter("sort.shed_events"),
        ],
        why: "the spill ladder must fire and stay lossless: a spilling run must not \
              dead-letter or shed",
    },
];

/// The parts of a bench file the totals read.
#[derive(Default)]
struct BenchFile {
    snapshots: Vec<Json>,
    traces: usize,
    expects: BTreeSet<String>,
}

/// The values of `section`'s entries whose name ends in `suffix`.
fn ending<'a>(section: Option<&'a Json>, suffix: &'a str) -> impl Iterator<Item = &'a Json> {
    let pairs: &[(String, Json)] = match section {
        Some(Json::Object(pairs)) => pairs,
        _ => &[],
    };
    pairs
        .iter()
        .filter(move |(name, _)| name.ends_with(suffix))
        .map(|(_, v)| v)
}

fn count(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_i64).map_or(0, |v| v.max(0) as u64)
}

impl BenchFile {
    fn total(&self, total: Total) -> u64 {
        let gauges = |name| {
            self.snapshots
                .iter()
                .map(move |m| ending(m.get("gauges"), name))
        };
        match total {
            Total::Counter(name) => self
                .snapshots
                .iter()
                .flat_map(|m| ending(m.get("counters"), name))
                .map(|v| count(Some(v)))
                .sum(),
            Total::GaugeValue(name) => gauges(name).flatten().map(|g| count(g.get("value"))).sum(),
            Total::GaugeHighWater(name) => gauges(name)
                .map(|gs| gs.map(|g| count(g.get("high_water"))).sum())
                .max()
                .unwrap_or(0),
        }
    }
}

/// Validates the JSON-lines output of a bench run (see the module docs);
/// `path` only labels messages. Returns the one-line summary, or the first
/// violation.
pub fn check_bench_file(path: &str, text: &str) -> Result<String, String> {
    let mut file = BenchFile::default();
    let mut lines = 0usize;
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let at = format!("{path}:{}", no + 1);
        let js = Json::parse(line).map_err(|e| format!("{at}: invalid JSON: {e:?}"))?;
        if js.get("exhibit").is_none() {
            return Err(format!("{at}: line has no \"exhibit\" field"));
        }
        if let Some(metrics) = body_of(&js, "metrics") {
            check_snapshot(&at, metrics)?;
            file.snapshots.push(metrics.clone());
            for activity in js.get("expects").and_then(Json::as_array).unwrap_or(&[]) {
                let name = activity
                    .as_str()
                    .ok_or_else(|| format!("{at}: \"expects\" entries must be strings"))?;
                file.expects.insert(name.to_string());
            }
        }
        if let Some(trace) = body_of(&js, "trace") {
            for field in ["spans", "dropped"] {
                if trace.get(field).and_then(Json::as_i64).is_none() {
                    return Err(format!("{at}: trace summary lacks \"{field}\""));
                }
            }
            file.traces += 1;
        }
    }
    if lines == 0 {
        return Err(format!("{path}: no JSON lines found"));
    }
    if file.snapshots.is_empty() {
        return Err(format!(
            "{path}: {lines} lines but no \"kind\": \"metrics\" snapshot"
        ));
    }
    let mut shown = Vec::new();
    for name in &file.expects {
        let contract = ACTIVITY_CONTRACTS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("{path}: \"expects\" names an unknown activity \"{name}\""))?;
        let nonzero = contract.nonzero.iter().map(|&t| (t, "nonzero"));
        let zero = contract.zero.iter().map(|&t| (t, "zero"));
        let mut totals = Vec::new();
        for (total, must_be) in nonzero.chain(zero) {
            let got = file.total(total);
            if (got == 0) != (must_be == "zero") {
                return Err(format!(
                    "{path}: expects \"{name}\": {total:?} is {got}, must be {must_be} — {}",
                    contract.why
                ));
            }
            totals.push(format!("{total:?} = {got}"));
        }
        shown.push(format!("{name} ({})", totals.join(", ")));
    }
    Ok(format!(
        "{path}: {lines} lines ok, {} metrics snapshot(s), {} trace line(s); \
         promised and shown: [{}]",
        file.snapshots.len(),
        file.traces,
        shown.join("; "),
    ))
}

/// Counters (by suffix) every snapshot publishes, zero or not.
const REQUIRED_COUNTERS: [(&str, &[&str]); 3] = [
    // Instrument pairs from at least one metered stage.
    (
        "per-operator",
        &["events_in", "events_out", "punctuations_in"],
    ),
    // Every instrumented pipeline publishes its late/dead-letter/shed
    // accounting and a panic counter, even when a healthy run leaves them
    // all zero.
    (
        "failure-model",
        &[
            "sort.late_dropped",
            "sort.dead_lettered",
            "sort.shed_events",
            "operator_panics",
        ],
    ),
    // Every bench pipeline runs with a checkpoint gate: each snapshot
    // shows at least one checkpoint written (the completion checkpoint at
    // minimum) and its restore counter, zero in a first incarnation.
    ("durability", &["checkpoint.written", "recovery.restores"]),
];

/// One metrics snapshot must carry per-operator counters, the
/// failure-model counters, the durability counters (nonzero checkpoint
/// writes, a recovery.restores counter, zero memory over-releases), sorter
/// gauges with high-water marks, and a watermark-lag histogram with
/// buckets. `at` labels messages.
fn check_snapshot(at: &str, metrics: &Json) -> Result<(), String> {
    let section = |name: &str| match metrics.get(name) {
        Some(obj @ Json::Object(_)) => Ok(obj),
        Some(_) => Err(format!("{at}: counters/gauges/histograms not objects")),
        None => Err(format!("{at}: snapshot has no {name} object")),
    };
    let counters = section("counters")?;
    let gauges = section("gauges")?;
    let histograms = section("histograms")?;
    let named = |section, suffix| ending(Some(section), suffix).next();

    for (group, suffixes) in REQUIRED_COUNTERS {
        for suffix in suffixes {
            if named(counters, suffix).is_none() {
                return Err(format!("{at}: no {group} \"*.{suffix}\" counter"));
            }
        }
    }
    let sum_of = |suffix| -> u64 { ending(Some(counters), suffix).map(|v| count(Some(v))).sum() };
    if sum_of("operator_panics") > 0 {
        return Err(format!("{at}: nonzero operator_panics in a bench run"));
    }
    if sum_of("checkpoint.written") == 0 {
        return Err(format!(
            "{at}: checkpoint.written is zero in a durable bench run"
        ));
    }
    // Memory accounting must never go negative anywhere in a bench run.
    match counters.get("memory.over_releases").and_then(Json::as_i64) {
        Some(0) => {}
        Some(n) => {
            return Err(format!(
                "{at}: memory.over_releases = {n}, accounting went negative"
            ))
        }
        None => return Err(format!("{at}: no \"memory.over_releases\" counter")),
    }
    // Sorter gauges, each carrying value + high-water.
    for suffix in ["sorter.runs", "sorter.state_bytes"] {
        let g = named(gauges, suffix).ok_or_else(|| format!("{at}: no \"*.{suffix}\" gauge"))?;
        if g.get("value").and_then(Json::as_i64).is_none()
            || g.get("high_water").and_then(Json::as_i64).is_none()
        {
            return Err(format!("{at}: gauge *.{suffix} lacks value/high_water"));
        }
    }
    // A watermark-lag histogram with the fixed log2 bucket layout.
    let h = named(histograms, "watermark_lag")
        .ok_or_else(|| format!("{at}: no \"*.watermark_lag\" histogram"))?;
    let buckets = h
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{at}: watermark_lag histogram lacks buckets array"))?;
    if buckets.len() != impatience_core::HISTOGRAM_BUCKETS {
        return Err(format!(
            "{at}: watermark_lag histogram has {} buckets, expected {}",
            buckets.len(),
            impatience_core::HISTOGRAM_BUCKETS
        ));
    }
    for field in ["count", "sum", "min", "max"] {
        if h.get(field).is_none() {
            return Err(format!("{at}: watermark_lag histogram lacks \"{field}\""));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{run_canonical, CanonicalRun};
    use impatience_core::{json, MetricsRegistry};
    use impatience_workloads::{generate_cloudlog, CloudLogConfig};

    /// A healthy canonical snapshot, as a metrics line's body.
    fn healthy_snapshot() -> Json {
        let ds = generate_cloudlog(&CloudLogConfig::sized(4_000));
        let registry = MetricsRegistry::new();
        run_canonical(&CanonicalRun {
            registry: &registry,
            ds: &ds,
            punctuation_frequency: 500,
            budget: None,
            spill_dir: None,
            trace: None,
        });
        registry.snapshot().to_json()
    }

    /// `base` with `extra` entries added to one of its sections.
    fn with(base: &Json, section: &str, extra: Vec<(String, Json)>) -> Json {
        let Json::Object(mut sections) = base.clone() else {
            panic!("snapshot is an object");
        };
        for (name, body) in &mut sections {
            if let (true, Json::Object(entries)) = (name == section, body) {
                entries.extend(extra.clone());
            }
        }
        Json::Object(sections)
    }

    fn counters(base: &Json, extra: &[(&str, i64)]) -> Json {
        let extra = extra
            .iter()
            .map(|&(k, v)| (format!("t.{k}"), Json::from(v)));
        with(base, "counters", extra.collect())
    }

    /// Gauges as `(name, value, high water)`.
    fn gauges(base: &Json, extra: &[(&str, i64, i64)]) -> Json {
        let extra = extra.iter().map(|&(k, value, high_water)| {
            let gauge = json!({ "value": value, "high_water": high_water });
            (format!("t.{k}"), gauge)
        });
        with(base, "gauges", extra.collect())
    }

    /// A one-snapshot file promising `expects`.
    fn file(metrics: Json, expects: &str) -> String {
        let promise = Json::Array(vec![Json::from(expects)]);
        let line =
            json!({ "exhibit": "t", "kind": "metrics", "metrics": metrics, "expects": promise });
        format!("{line}\n")
    }

    #[test]
    fn every_contract_row_accepts_its_activity_and_rejects_its_absence() {
        let base = healthy_snapshot();
        let spilled = [
            ("sorter.spill.runs_spilled", 2, 2),
            ("sorter.spill.bytes_on_disk", 0, 4_096),
        ];
        let dead_and_shed = [("sort.dead_lettered", 3), ("sort.shed_events", 2)];
        // (activity, a file that shows it, a file that does not)
        let rows = [
            (
                "fault",
                file(counters(&base, &dead_and_shed), "fault"),
                file(counters(&base, &dead_and_shed[..1]), "fault"),
            ),
            (
                "spill",
                file(gauges(&base, &spilled), "spill"),
                file(
                    gauges(&counters(&base, &dead_and_shed[1..]), &spilled),
                    "spill",
                ),
            ),
        ];
        assert_eq!(rows.len(), ACTIVITY_CONTRACTS.len(), "one case per row");
        for (name, shows, lacks) in rows {
            let ok = check_bench_file("shows.jsonl", &shows);
            assert!(ok.is_ok(), "{name}: {ok:?}");
            let err = check_bench_file("lacks.jsonl", &lacks).expect_err(name);
            assert!(err.contains(&format!("expects \"{name}\"")), "{err}");
        }
        let unknown = check_bench_file("f.jsonl", &file(base, "telepathy"));
        assert!(unknown.unwrap_err().contains("unknown activity"));
    }
}
