//! Quality oracle for the adaptive reorder-latency controller: what a
//! tenant promises is what its sort delivers.
//!
//! A real in-process [`TenantRuntime`] runs the served adaptive ladder
//! (`16, 64, 256, 1024` ticks, quality 0.99, a 4 096-arrival window, hold
//! 3) over one-event batches, so the tenant punctuates after every arrival
//! and its sort applies the per-arrival lateness rule exactly. The input
//! runs three seeded phases of 8 windows each: in order, then disordered,
//! then in order again. In the disordered phase every 64th arrival raises
//! the watermark by 64 ticks and the others arrive `d` ticks behind it,
//! `d` uniform over `[0, 64]` inclusive, so one straggler in 65 sits
//! exactly on the 64-tick rung's punctuation.
//!
//! Realised completeness per phase is `1 − late_dropped / events_in`,
//! read from the tenant's registry over the phase after its first window
//! (the window the controller needs to see the phase). It must reach the
//! quality target less the window's sampling error.

use impatience_core::{Event, TickDuration, Timestamp};
use impatience_engine::{PipelineSpec, ReorderSpec};
use impatience_serve::{TenantConfig, TenantRuntime};
use impatience_testkit::rng::{Rng, SeedableRng, StdRng};

const QUALITY: f64 = 0.99;
const WINDOW: usize = 4096;
const PHASE: usize = 8 * WINDOW;
const NAME: &str = "quality";

/// The controller decides on the completeness of its last `WINDOW`
/// arrivals, whose standard error at the target is
/// `sqrt(q (1 − q) / WINDOW)` (0.16 percentage points); a rung it accepts
/// may deliver up to two of those below the target.
fn epsilon() -> f64 {
    2.0 * (QUALITY * (1.0 - QUALITY) / WINDOW as f64).sqrt()
}

/// Late drops and admitted events so far.
fn counts(rt: &TenantRuntime) -> (u64, u64) {
    let r = rt.registry();
    (
        r.counter(&format!("{NAME}.00.sort.late_dropped")).get(),
        r.counter("serve.events_in").get(),
    )
}

#[test]
fn adaptive_tenant_realises_its_quality_target_in_every_phase() {
    let root = std::env::temp_dir().join(format!(
        "impatience-adaptive-quality-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let spec = PipelineSpec::new(NAME).with_reorder(ReorderSpec::Adaptive {
        ladder: [16, 64, 256, 1024].map(TickDuration::ticks).to_vec(),
        quality: QUALITY,
        window: WINDOW,
        hold: 3,
    });
    let mut rt = TenantRuntime::start(TenantConfig::new(spec), &root).expect("start");
    let mut rng = StdRng::seed_from_u64(0x5eed_0a11);
    let mut high = 0i64;
    let mut realised = Vec::new();
    for phase in ["in order", "delays uniform over [0, 64]", "in order again"] {
        let mut from = (0, 0);
        for i in 0..PHASE {
            if i == WINDOW {
                from = counts(&rt);
            }
            let t = if phase.starts_with("delays") && i % 64 != 0 {
                high - rng.gen_range(0..=64i64)
            } else {
                high += if phase.starts_with("delays") { 64 } else { 1 };
                high
            };
            rt.ingest(vec![Event::keyed(Timestamp::new(t), 0, t)])
                .expect("ingest");
        }
        let (dropped, admitted) = counts(&rt);
        let c = 1.0 - (dropped - from.0) as f64 / (admitted - from.1) as f64;
        println!(
            "{phase}: realised completeness {c:.5} at latency {:?}",
            rt.current_latency()
        );
        realised.push((phase, c));
    }
    let _ = std::fs::remove_dir_all(&root);
    for (phase, c) in realised {
        assert!(
            c >= QUALITY - epsilon(),
            "{phase}: realised completeness {c:.5} < {QUALITY} - {:.5}",
            epsilon()
        );
    }
}
