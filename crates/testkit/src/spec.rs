//! A seeded, shrinking generator of whole spec-path cases: a
//! [`PipelineSpec`] and the arrivals it is fed, punctuated through
//! [`punctuate_arrivals`] at the spec's fixed reorder latency, with stream
//! faults laid over the punctuated messages.
//!
//! [`SpecCases`] draws 0–4 ops from [`OpSpec`] in any order
//! ([`OpSpec::PanicOn`] only under `hardened`), either [`LatePolicy`]
//! a standalone stage accepts, each [`ShedPolicy`] and `spill`, a memory
//! budget small enough to trip them (under [`LatePolicy::DeadLetter`], so
//! whatever the budget costs is reported), shards from {1, 2, 4, 8}, a
//! checkpoint cadence (unsharded only, as the spec requires), and the
//! `instrument` / `traced` / `hardened` flags. Streams run from empty to a
//! few hundred events: heavy ties, times near both ends of `i64` and
//! around zero, one or many keys, in order or far out of it. [`Faults`]
//! adds duplicates, far stragglers, one regressed punctuation and extreme
//! payloads.
//!
//! A failing case shrinks to fewer events, fewer ops, no faults and unset
//! settings.

use crate::prop::Strategy;
use crate::rng::{Rng, SeedableRng, StdRng};
use impatience_core::{Event, LatePolicy, ShedPolicy, StreamMessage, TickDuration, Timestamp};
use impatience_engine::{
    punctuate_arrivals, IngressPolicy, OpSpec, PipelineSpec, ReorderSpec, SortSpec,
};

/// One generated case.
#[derive(Debug, Clone)]
pub struct SpecCase {
    /// The pipeline; its `reorder` is `Fixed` at `ingress.reorder_latency`.
    pub spec: PipelineSpec,
    /// Events in arrival order.
    pub arrivals: Vec<Event<i64>>,
    /// Punctuation frequency and batch size of the client.
    pub ingress: IngressPolicy,
    /// The sorting stage's memory budget, bytes, if any.
    pub budget: Option<usize>,
    /// Where a durable case crashes, per mille of its input messages.
    pub crash_permille: u32,
    /// The stream faults laid over the punctuated arrivals.
    pub faults: Faults,
}

/// Stream faults, laid over a case's punctuated arrivals where `seed`
/// places them; the default lays none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Faults {
    /// Where the faults fall.
    pub seed: u64,
    /// Events delivered twice: again in their batch, or again in a batch
    /// of their own right after the next punctuation.
    pub duplicates: bool,
    /// Events retimed 5 000 ticks behind the last punctuation (or their
    /// own time, before the first), beyond any drawn latency.
    pub stragglers: bool,
    /// One punctuation below the one before it, after the batches that
    /// follow a drawn punctuation.
    pub regression: bool,
    /// Payloads replaced by `i64::MIN`, `i64::MAX` or a neighbour.
    pub extremes: bool,
}

/// How far behind the watermark a straggler lands, in ticks.
const STRAGGLER_DELAY: i64 = 5_000;

/// What [`SpecCase::messages`] laid, per fault kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultsLaid {
    /// Events repeated in their own batch.
    pub duplicates: usize,
    /// Events repeated across a punctuation.
    pub replays: usize,
    /// Events retimed behind the watermark.
    pub stragglers: usize,
    /// Regressed punctuations: 0 or 1.
    pub regressions: usize,
    /// Extreme payloads.
    pub extremes: usize,
}

impl FaultsLaid {
    /// Did the draw lay any fault at all?
    pub fn any(&self) -> bool {
        *self != FaultsLaid::default()
    }
}

impl Faults {
    /// Lays the faults over `msgs`.
    fn lay(&self, msgs: Vec<StreamMessage<i64>>) -> (Vec<StreamMessage<i64>>, FaultsLaid) {
        let mut laid = FaultsLaid::default();
        if *self == Faults::default() {
            return (msgs, laid);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let puncts = msgs.iter().filter(|m| m.is_punctuation()).count();
        let mut regress_in = (self.regression && puncts > 0).then(|| rng.gen_range(1..=puncts));
        let (mut out, mut last, mut replays) = (Vec::with_capacity(msgs.len()), None, vec![]);
        for m in msgs {
            if let (StreamMessage::Punctuation(_) | StreamMessage::Completed, Some(0)) =
                (&m, regress_in)
            {
                let p: Timestamp = last.expect("after a punctuation");
                let back = Timestamp::new(p.ticks().saturating_sub(rng.gen_range(1i64..1_000)));
                if back < p {
                    out.push(StreamMessage::Punctuation(back));
                    laid.regressions += 1;
                }
                regress_in = None;
            }
            match m {
                StreamMessage::Batch(b) => {
                    let mut events = Vec::with_capacity(b.visible_len());
                    for mut e in b.iter_visible().copied() {
                        if self.extremes && rng.gen_bool(0.1) {
                            e.payload =
                                pick(&mut rng, &[i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
                            laid.extremes += 1;
                        }
                        if self.stragglers && rng.gen_bool(0.05) {
                            let anchor = last.unwrap_or(e.sync_time).ticks();
                            let t = anchor.saturating_sub(STRAGGLER_DELAY).max(i64::MIN + 1);
                            e = Event::keyed(Timestamp::new(t), e.key, e.payload);
                            laid.stragglers += 1;
                        }
                        events.push(e);
                        if self.duplicates && rng.gen_bool(0.05) {
                            events.push(e);
                            laid.duplicates += 1;
                        }
                        if self.duplicates && rng.gen_bool(0.05) {
                            replays.push(e);
                        }
                    }
                    out.push(StreamMessage::batch(events));
                }
                StreamMessage::Punctuation(t) => {
                    out.push(m);
                    last = Some(t);
                    regress_in = regress_in.map(|n| n - 1);
                    if !replays.is_empty() {
                        laid.replays += replays.len();
                        out.push(StreamMessage::batch(std::mem::take(&mut replays)));
                    }
                }
                StreamMessage::Completed => out.push(m),
            }
        }
        (out, laid)
    }
}

impl SpecCase {
    /// The messages a client sends: the arrivals, punctuated, with the
    /// faults laid over them.
    pub fn messages(&self) -> Vec<StreamMessage<i64>> {
        self.laid().0
    }

    /// [`SpecCase::messages`], and what faults it laid.
    pub fn laid(&self) -> (Vec<StreamMessage<i64>>, FaultsLaid) {
        (self.faults).lay(punctuate_arrivals(self.arrivals.clone(), &self.ingress))
    }

    /// Can this case be run? `PanicOn` needs `hardened`, a budget needs
    /// dead letters, a checkpoint needs one shard.
    fn valid(&self) -> bool {
        let ops = &self.spec.ops;
        let panics = ops.iter().any(|op| matches!(op, OpSpec::PanicOn { .. }));
        (!panics || self.spec.hardened)
            && (self.budget.is_none() || self.spec.sort.late == LatePolicy::DeadLetter)
            && (self.spec.checkpoint.is_none() || self.spec.shards == 1)
    }
}

/// Seeded `(PipelineSpec, arrivals)` cases; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct SpecCases;

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

fn op(rng: &mut StdRng, hardened: bool) -> OpSpec {
    match rng.gen_range(0..if hardened { 6 } else { 5 }) {
        0 => OpSpec::FilterMin {
            min: rng.gen_range(-10i64..40),
        },
        1 => OpSpec::Scale {
            factor: rng.gen_range(-3i64..4),
        },
        2 => OpSpec::TumblingWindow {
            size: TickDuration::ticks(pick(rng, &[1, 4, 16, 64, 500])),
        },
        3 => OpSpec::SumByKey,
        4 => OpSpec::TopK {
            k: rng.gen_range(1usize..4),
        },
        _ => OpSpec::PanicOn {
            value: rng.gen_range(0i64..100),
        },
    }
}

fn arrivals(rng: &mut StdRng) -> Vec<Event<i64>> {
    let n = [rng.gen_range(3usize..300), rng.gen_range(0usize..3)][usize::from(rng.gen_bool(0.1))];
    let base = pick(rng, &[0, -3_000, i64::MIN + 600, i64::MAX - 1_000_000]);
    let spacing = pick(rng, &[0, 1, 3, 10]);
    let (late_share, reach) = (pick(rng, &[0.0, 0.1, 0.5]), pick(rng, &[5i64, 50, 500]));
    let keys = pick(rng, &[1u32, 3, 16]);
    (0..n as i64)
        .map(|i| {
            let delay = rng.gen_range(0..reach) * i64::from(rng.gen_bool(late_share));
            let t = Timestamp::new(base + i * spacing - delay);
            Event::keyed(t, rng.gen_range(0..keys), rng.gen_range(-20i64..50))
        })
        .collect()
}

impl Strategy for SpecCases {
    type Value = SpecCase;

    fn generate(&self, rng: &mut StdRng) -> SpecCase {
        let hardened = rng.gen_bool(0.5);
        let shards = pick(rng, &[1, 1, 2, 4, 8]);
        let late = pick(rng, &[LatePolicy::Drop, LatePolicy::DeadLetter]);
        let sheds = [ShedPolicy::ForcePunctuation, ShedPolicy::ShedOldestRuns];
        let shed = pick(rng, &[sheds[0], sheds[1], ShedPolicy::SpillColdRuns]);
        let ingress = IngressPolicy {
            punctuation_frequency: pick(rng, &[1, 3, 10, 50]),
            reorder_latency: TickDuration::ticks(pick(rng, &[0, 1, 4, 16, 64, 256])),
            batch_size: pick(rng, &[1, 4, 16, 64, 1_024]),
        };
        let mut spec = PipelineSpec::new("gen")
            .with_instrument(rng.gen_bool(0.5))
            .with_traced(rng.gen_bool(0.3))
            .with_hardened(hardened)
            .with_shards(shards)
            .with_sort(SortSpec {
                late,
                shed,
                dead_letter_capacity: (late == LatePolicy::DeadLetter).then_some(1 << 16),
                spill: rng.gen_bool(0.3),
            })
            .with_reorder(ReorderSpec::Fixed {
                latency: ingress.reorder_latency,
            });
        if shards == 1 && rng.gen_bool(0.35) {
            spec = spec.with_checkpoint(rng.gen_range(1u32..5));
        }
        spec.ops = (0..rng.gen_range(0..5))
            .map(|_| op(rng, hardened))
            .collect();
        if rng.gen_bool(0.25) {
            // A window and its grouped consumer ahead: the plan hoists the
            // window and sorts with the bucket sorter.
            spec.ops.truncate(2);
            let size = TickDuration::ticks(pick(rng, &[4, 64, 500]));
            let shape = [OpSpec::TumblingWindow { size }, OpSpec::SumByKey];
            spec.ops.splice(0..0, shape);
        }
        let budget = (late == LatePolicy::DeadLetter && rng.gen_bool(0.5))
            .then(|| pick(rng, &[256, 1_024, 4_096]));
        SpecCase {
            arrivals: arrivals(rng),
            ingress,
            budget,
            crash_permille: rng.gen_range(0u32..1_000),
            // A regression ends the run: drawn more often under a budget,
            // where it may follow a forced cut, than where it would cost
            // the crash relation its restores.
            faults: match rng.gen_bool(0.8) {
                true => Faults {
                    seed: rng.gen(),
                    duplicates: rng.gen_bool(0.5),
                    stragglers: rng.gen_bool(0.5),
                    regression: rng.gen_bool([0.25, 0.6][usize::from(budget.is_some())]),
                    extremes: rng.gen_bool(0.5),
                },
                false => Faults::default(),
            },
            spec,
        }
    }

    /// Fewer events, then fewer ops, then no faults, then each setting
    /// unset.
    fn shrink(&self, case: &SpecCase) -> Vec<SpecCase> {
        let mut out = Vec::new();
        let with = |f: &dyn Fn(&mut SpecCase)| {
            let mut c = case.clone();
            f(&mut c);
            c
        };
        let n = case.arrivals.len();
        if n > 0 {
            out.push(with(&|c| c.arrivals.clear()));
            out.push(with(&|c| c.arrivals.truncate(n / 2)));
            out.push(with(&|c| drop(c.arrivals.drain(..n / 2))));
            let remove = |i| with(&|c| drop(c.arrivals.drain(i..=i)));
            out.extend((0..n.min(32)).map(remove));
        }
        out.extend((0..case.spec.ops.len()).map(|i| with(&|c| drop(c.spec.ops.drain(i..=i)))));
        out.push(with(&|c| c.faults = Faults::default()));
        for off in [
            |f: &mut Faults| f.duplicates = false,
            |f: &mut Faults| f.stragglers = false,
            |f: &mut Faults| f.regression = false,
            |f: &mut Faults| f.extremes = false,
        ] {
            out.push(with(&|c| off(&mut c.faults)));
        }
        out.push(with(&|c| c.budget = None));
        out.push(with(&|c| c.spec.shards = 1));
        out.push(with(&|c| c.spec.checkpoint = None));
        out.push(with(&|c| c.spec.sort.spill = false));
        out.push(with(&|c| c.spec.sort.shed = ShedPolicy::default()));
        out.push(with(&|c| c.spec.instrument = false));
        out.push(with(&|c| c.spec.traced = false));
        out.push(with(&|c| c.spec.hardened = false));
        out.retain(|c| c.valid() && format!("{c:?}") != format!("{case:?}"));
        out
    }
}
