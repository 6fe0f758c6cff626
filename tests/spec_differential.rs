//! The spec path's one differential: seeded `(PipelineSpec, arrivals)`
//! cases from `impatience_testkit::SpecCases`, each built through
//! `PipelineSpec::build` and held to one oracle and to the metamorphic
//! relations below, one test each.
//!
//! * **Admitted events.** An event is late iff its `sync_time` is at or
//!   below the last punctuation before it (`LateGate::is_late`). The
//!   admitted events, cut at each punctuation and sorted stably by
//!   `sync_time`, run through a naive interpreter of the ops — the
//!   sort-first chain, whatever the plan hoists. Under `shards > 1` each
//!   shard interprets its keys' events and the shards join as the lockstep
//!   merge does: at each advancing punctuation, what is at or below it in
//!   `(sync_time, key)` order. The run must match message for message, up
//!   to batch cuts.
//! * **Ties** compare as multisets where the plan sorts with the in-memory
//!   Impatience sorter, which is not arrival-stable, and under a budget;
//!   exactly elsewhere. `TopK` breaks equal scores by key, so what it
//!   keeps is a function of the multiset.
//! * **Under a budget** (always `DeadLetter`) the admitted events are the
//!   input less the letters (see `admitted_under_budget`).
//! * **`PanicOn`.** A run whose poison reaches the op ends in exactly one
//!   `OperatorPanicked` and no completion.
//! * **Stream faults** (`impatience_testkit::Faults`). Duplicates and far
//!   stragglers are admitted or late by the late rule above. A regressed
//!   punctuation ends the run in exactly one `PunctuationRegressed` and no
//!   completion, whatever the plan and the budget (unless a poison ends it
//!   first); unsharded and unbudgeted, what came before it is the oracle's
//!   output for the messages before it. Extreme payloads fold as the
//!   interpreter folds them, wrapping.
//! * **Under a budget** the meter stays within it and never releases more
//!   than it was charged, after every push and at rest.
//!
//! Failures shrink to fewer events, ops and settings and print their
//! `IMPATIENCE_PROP_SEED`; `IMPATIENCE_PROP_CASES` sets the case count.

use impatience_core::trace::{TraceClock, TraceConfig, TraceSink};
use impatience_core::{
    hash_key, validate_ordered_stream, DeadLetter, DeadLetterReason, Event, EventBatch, LatePolicy,
    MemoryMeter, MetricsRegistry, ShedPolicy, StreamError, StreamMessage, TickDuration, Timestamp,
};
use impatience_engine::{punctuate_arrivals, IngressPolicy, ReorderSpec, SorterChoice};
use impatience_engine::{Observer, OpSpec, PipelineEnv, PipelineSpec, SortSpec};
use impatience_engine::{OpSpec::*, TraceCtx};
use impatience_testkit::{prop::check, props, Faults, FaultsLaid, SpecCase, SpecCases};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

type Msg = StreamMessage<i64>;
type Ev = Event<i64>;

/// A stream with batch cuts erased: what the oracle predicts.
#[derive(Debug, Clone, PartialEq)]
enum Item {
    E(Ev),
    P(Timestamp),
    Done,
}

fn items(msgs: &[Msg]) -> Vec<Item> {
    let item = |m: &Msg| match m {
        StreamMessage::Batch(b) => b.iter_visible().cloned().map(Item::E).collect(),
        StreamMessage::Punctuation(t) => vec![Item::P(*t)],
        StreamMessage::Completed => vec![Item::Done],
    };
    msgs.iter().flat_map(item).collect()
}

fn events(items: &[Item]) -> Vec<Ev> {
    let event = |i: &Item| match i {
        Item::E(e) => Some(*e),
        _ => None,
    };
    items.iter().filter_map(event).collect()
}

/// Events between punctuations in one fixed order among equal times (the
/// stream is ordered by time, so a full sort of each run reorders ties
/// only).
fn ties_as_sets(mut items: Vec<Item>) -> Vec<Item> {
    for run in items.split_mut(|i| !matches!(i, Item::E(_))) {
        run.sort_by_key(|i| match i {
            Item::E(e) => (e.sync_time, e.key, e.payload, e.other_time),
            _ => unreachable!("runs hold events"),
        });
    }
    items
}

/// Moves `pending`'s events at or below `t` to `out`, sorted stably by `key`.
fn release<K: Ord>(pending: &mut Vec<Ev>, out: &mut Vec<Item>, t: Timestamp, key: fn(&Ev) -> K) {
    let (mut now, rest): (Vec<_>, _) = pending.drain(..).partition(|e| e.sync_time <= t);
    *pending = rest;
    now.sort_by_key(key);
    out.extend(now.into_iter().map(Item::E));
}

/// The sort under the late rule: what it admits, cut at each punctuation;
/// and the late events, each with the punctuation it fell behind.
fn sort_stage(input: &[Msg]) -> (Vec<Item>, Vec<(Ev, Timestamp)>) {
    let (mut watermark, mut pending, mut out, mut late) = (Timestamp::MIN, vec![], vec![], vec![]);
    for m in input {
        let t = match m {
            StreamMessage::Batch(b) => {
                let (l, p): (Vec<&Ev>, _) =
                    b.iter_visible().partition(|e| e.sync_time <= watermark);
                late.extend(l.into_iter().map(|e| (*e, watermark)));
                pending.extend(p);
                continue;
            }
            StreamMessage::Punctuation(t) => *t,
            StreamMessage::Completed => Timestamp::MAX,
        };
        release(&mut pending, &mut out, t, |e| e.sync_time);
        watermark = t;
        out.push([Item::P(t), Item::Done][usize::from(t == Timestamp::MAX)].clone());
    }
    (out, late)
}

fn aligned(e: Ev, size: i64) -> Ev {
    let window = e.sync_time.ticks().div_euclid(size);
    let start = Timestamp::new(window.saturating_mul(size));
    let end = Timestamp::new(window.saturating_add(1).saturating_mul(size));
    Event::interval(start, end, e.key, e.payload)
}

/// Closes a grouping op's open window: the events of one `sync_time`.
fn close(op: &OpSpec, open: &mut Vec<Ev>, out: &mut Vec<Item>) {
    let Some(first) = open.first().cloned() else {
        return;
    };
    if let TopK { k } = op {
        open.sort_by_key(|e| (std::cmp::Reverse(e.payload), e.key));
        out.extend(open.drain(..).take(*k).map(Item::E));
        return;
    }
    let mut sums = std::collections::BTreeMap::<u32, i64>::new();
    for e in open.drain(..) {
        let sum = sums.entry(e.key).or_insert(0);
        *sum = sum.wrapping_add(e.payload);
    }
    let (start, end) = (first.sync_time, first.other_time);
    out.extend((sums.into_iter()).map(|(k, sum)| Item::E(Event::interval(start, end, k, sum))));
}

/// One op, naively; `None` when `PanicOn` meets its poison.
fn interpret(op: &OpSpec, input: Vec<Item>) -> Option<Vec<Item>> {
    let (mut out, mut open) = (Vec::with_capacity(input.len()), Vec::<Ev>::new());
    for item in input {
        match (op, item) {
            (FilterMin { min }, Item::E(e)) if e.payload < *min => {}
            (Scale { factor }, Item::E(e)) => out.push(Item::E(Event {
                payload: e.payload.wrapping_mul(*factor),
                ..e
            })),
            (TumblingWindow { size }, Item::E(e)) => out.push(Item::E(aligned(e, size.as_ticks()))),
            // No future window starts at or below the one before `t`'s.
            (TumblingWindow { size }, Item::P(t)) => {
                let size = size.as_ticks();
                let start = t.ticks().div_euclid(size).saturating_mul(size);
                match t == Timestamp::MAX {
                    true => out.push(Item::P(t)),
                    false if start > i64::MIN => out.push(Item::P(Timestamp::new(start - 1))),
                    false => {}
                }
            }
            (PanicOn { value }, Item::E(e)) if e.payload == *value => return None,
            (SumByKey | TopK { .. }, Item::E(e)) => {
                if open.first().is_some_and(|o| o.sync_time != e.sync_time) {
                    close(op, &mut open, &mut out);
                }
                open.push(e);
            }
            (SumByKey | TopK { .. }, Item::P(t)) => {
                if open.first().is_some_and(|o| o.sync_time <= t) {
                    close(op, &mut open, &mut out);
                }
                out.push(Item::P(t));
            }
            (_, Item::Done) => {
                close(op, &mut open, &mut out);
                out.push(Item::Done);
            }
            (_, item) => out.push(item),
        }
    }
    Some(out)
}

/// The lockstep merge of shard streams that share one punctuation
/// sequence: at each advancing punctuation, every held event at or below
/// it in `(sync_time, key)` order; the rest at completion.
fn merge(shards: Vec<Vec<Item>>) -> Vec<Item> {
    let mut streams: Vec<_> = shards.into_iter().map(Vec::into_iter).collect();
    let (mut held, mut last, mut out) = (Vec::new(), Timestamp::MIN, Vec::new());
    loop {
        let mut reached = None;
        for stream in &mut streams {
            reached = stream.by_ref().find_map(|item| match item {
                Item::E(e) => {
                    held.push(e);
                    None
                }
                Item::P(t) => Some(Some(t)),
                Item::Done => Some(None),
            });
        }
        match reached.flatten() {
            Some(w) if w <= last => continue,
            Some(w) => last = w,
            None => last = Timestamp::MAX,
        }
        release(&mut held, &mut out, last, |e| (e.sync_time, e.key));
        if last == Timestamp::MAX {
            out.push(Item::Done);
            return out;
        }
        out.push(Item::P(last));
    }
}

/// `items` split into what each of `n` shards sees.
fn shard_parts(items: &[Item], n: usize) -> Vec<Vec<Item>> {
    let of = |e: &Ev| (hash_key(e.key) % n as u64) as usize;
    let mine = |i: usize| move |x: &&Item| !matches!(x, Item::E(e) if of(e) != i);
    (0..n)
        .map(|i| items.iter().filter(mine(i)).cloned().collect())
        .collect()
}

/// What the spec must emit, given the sort stage's output: per shard,
/// interpreted, then merged. `None`: it panics.
fn expected(spec: &PipelineSpec, sorted: &[Item]) -> Option<Vec<Item>> {
    let shards = shard_parts(sorted, spec.shards).into_iter();
    let fold = |part| spec.ops.iter().try_fold(part, |s, op| interpret(op, s));
    let mut outs = shards.map(fold).collect::<Option<Vec<_>>>()?;
    Some(match outs.len() {
        1 => outs.remove(0),
        _ => merge(outs),
    })
}

/// The sink: every message, and every error.
#[derive(Clone, Default)]
struct Recorder(Arc<Mutex<(Vec<Msg>, Vec<StreamError>)>>);

impl Observer<i64> for Recorder {
    fn on_batch(&mut self, batch: EventBatch<i64>) {
        self.0.lock().unwrap().0.push(StreamMessage::Batch(batch));
    }
    fn on_punctuation(&mut self, t: Timestamp) {
        self.0.lock().unwrap().0.push(StreamMessage::Punctuation(t));
    }
    fn on_completed(&mut self) {
        self.0.lock().unwrap().0.push(StreamMessage::Completed);
    }
    fn on_error(&mut self, err: StreamError) {
        self.0.lock().unwrap().1.push(err);
    }
}

struct Run {
    msgs: Vec<Msg>,
    errors: Vec<StreamError>,
    /// Dead letters, in a fixed order (shards interleave theirs).
    letters: Vec<DeadLetter<i64>>,
    registry: MetricsRegistry,
    /// Output messages after each input message pushed.
    marks: Vec<usize>,
    /// Input messages a restored run skipped, and its committed events.
    restored: Option<(usize, u64)>,
}

impl Run {
    /// Stage 00's `what.name` summed over shards: a counter or a gauge's
    /// high water.
    fn stat(&self, spec: &PipelineSpec, what: &str, name: &str) -> i64 {
        let read = |prefix: String| {
            let name = format!("{prefix}.00.{what}.{name}");
            match what {
                "sorter" => self.registry.gauge(&name).high_water(),
                _ => self.registry.counter(&name).get() as i64,
            }
        };
        match spec.shards {
            1 => read(spec.name.clone()),
            n => (0..n)
                .map(|i| read(format!("{}.shard{i:02}", spec.name)))
                .sum(),
        }
    }
}

static RUNS: AtomicUsize = AtomicUsize::new(0);

/// A fresh directory for one run's checkpoints and spill files, removed
/// when the guard drops: on a panic too, so a failing case leaves none.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_dir() -> ScratchDir {
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("impatience-specdiff-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ScratchDir(dir)
}

/// Builds `spec` over `dir` (a fresh one, removed after, if `None`) and
/// pushes `input` past what a checkpoint there restored.
fn run(case: &SpecCase, spec: &PipelineSpec, dir: Option<&Path>, input: &[Msg]) -> Run {
    let fresh = scratch_dir();
    let dir = dir.unwrap_or(&fresh.0);
    let registry = MetricsRegistry::new();
    let trace = TraceSink::with(TraceClock::logical(), TraceConfig::default());
    let meter = case
        .budget
        .map_or_else(MemoryMeter::new, MemoryMeter::with_budget);
    let env = PipelineEnv::new()
        .with_registry(&registry)
        .with_meter(&meter)
        .with_trace(TraceCtx::new(&trace))
        .with_checkpoint_dir(dir.join("checkpoints"))
        .with_spill_dir(dir.join("spill"));
    let recorder = Recorder::default();
    let built = spec
        .build(&env, Box::new(recorder.clone()))
        .expect("a generated spec builds");
    let restored = built.ckpt.as_ref().and_then(|c| c.recovery());
    let restored = restored.map(|r| (r.messages_seen as usize, r.egress_events));
    let mut marks = Vec::new();
    // Shards share the budget but each enforces it on its own state, on its
    // own thread, so only the release count is held for them.
    let budget = case.budget.filter(|_| spec.shards == 1);
    for m in &input[restored.map_or(0, |r| r.0)..] {
        built.handle.push(m.clone()).expect("push");
        marks.push(recorder.0.lock().unwrap().0.len());
        assert!(within(&meter, budget), "after {m:?}");
    }
    let dead_letters = built.dead_letters.clone();
    drop(built);
    assert!(within(&meter, budget), "at rest");
    let (msgs, errors) = std::mem::take(&mut *recorder.0.lock().unwrap());
    let mut letters = dead_letters.map(|q| q.drain()).unwrap_or_default();
    letters.sort_by_cached_key(|l| format!("{l:?}"));
    Run {
        msgs,
        errors,
        letters,
        registry,
        marks,
        restored,
    }
}

/// The meter holds no more than `budget` and has never released more than
/// it was charged.
fn within(meter: &MemoryMeter, budget: Option<usize>) -> bool {
    budget.is_none_or(|b| meter.current() <= b) && meter.over_releases() == 0
}

/// What the cases covered, for the floors the tests assert: `ops` by
/// `OpSpec` variant in declaration order; cases with late events under
/// `Drop` and `DeadLetter`; budgets that forced a cut, shed, spilled; the
/// Impatience, bucket and external sorters seen sorting events; shard
/// counts 1, 2, 4, 8; crashes restored from a checkpoint, in all, under a
/// budget and in a hoisted plan; runs a poison ended typed.
#[derive(Debug, Default)]
struct Seen {
    cases: usize,
    ops: [usize; 6],
    late: [usize; 2],
    tripped: [usize; 3],
    sorters: [usize; 3],
    shards: [usize; 4],
    restores: [usize; 3],
    panicked: usize,
    faults: FaultsSeen,
}

/// Cases that laid a stream fault, and by kind: duplicates in a batch and
/// across a punctuation, stragglers, regressions refused (in all, in a
/// hoisted plan, after a forced cut), extreme payloads through `Scale` and
/// through `SumByKey`.
#[derive(Debug, Default)]
struct FaultsSeen {
    faulted: usize,
    duplicates: usize,
    replays: usize,
    stragglers: usize,
    refused: usize,
    refused_hoisted: usize,
    refused_after_a_cut: usize,
    extremes_scaled: usize,
    extremes_summed: usize,
}

impl FaultsSeen {
    /// Every kind seen, and at least 1 170 in 2 000 cases fault-bearing.
    fn floor(&self, cases: usize) -> bool {
        let kinds = [self.duplicates, self.replays, self.stragglers, self.refused];
        let where_ = [self.refused_hoisted, self.refused_after_a_cut];
        let extremes = [self.extremes_scaled, self.extremes_summed];
        covers(&[&kinds, &where_, &extremes]) && self.faulted * 2_000 >= cases * 1_170
    }
}

/// The regressed punctuation in `input`, if any: where it is, and the
/// error that must end the run there.
fn regression(input: &[Msg]) -> Option<(usize, StreamError)> {
    let mut previous = Timestamp::MIN;
    for (at, m) in input.iter().enumerate() {
        if let StreamMessage::Punctuation(attempted) = *m {
            if attempted < previous {
                return Some((
                    at,
                    StreamError::PunctuationRegressed {
                        previous,
                        attempted,
                    },
                ));
            }
            previous = attempted;
        }
    }
    None
}

/// The input less the letters, sorted stably by time. Each letter is an
/// input event (or, from a sort behind a hoisted window, its aligned
/// image) and holds to its reason, and every late event is among them —
/// unless the run failed, and a sharded one stopped routing what followed.
fn admitted_under_budget(case: &SpecCase, run: &Run) -> Vec<Item> {
    let (spec, input, letters) = (&case.spec, case.messages(), &run.letters);
    let (late, failed) = (sort_stage(&input).1, !run.errors.is_empty());
    let image = |e: Ev| {
        let hoisted = spec.ops[..spec.plan().hoisted()].iter();
        hoisted.fold(e, |e, op| match op {
            TumblingWindow { size } => aligned(e, size.as_ticks()),
            _ => e,
        })
    };
    let all = events(&items(&input));
    let mut rest = all.clone();
    let mut unmatched: Vec<_> = letters.iter().collect();
    for aligned in [false, true] {
        unmatched.retain(|l| {
            let at = rest
                .iter()
                .position(|e| l.event == if aligned { image(*e) } else { *e });
            at.map(|at| rest.remove(at)).is_none()
        });
    }
    assert!(unmatched.is_empty(), "not input: {unmatched:?}");
    let sheds = spec.sort.shed != ShedPolicy::ForcePunctuation;
    for l in letters {
        match l.reason {
            DeadLetterReason::Late { watermark } => {
                assert!(l.event.sync_time <= watermark, "{l:?}")
            }
            DeadLetterReason::Shed => assert!(sheds, "shed under {:?}", spec.sort.shed),
        }
    }
    let count = |v: &[Ev], e: &Ev| v.iter().filter(|x| *x == e).count();
    for (e, _) in late.iter().filter(|_| !failed) {
        let copies = late.iter().filter(|(x, _)| x == e).count();
        assert!(count(&all, e) - count(&rest, e) >= copies, "{e:?}");
    }
    rest.sort_by_key(|e| e.sync_time);
    rest.into_iter().map(Item::E).chain([Item::Done]).collect()
}

/// `items` with ties as multisets where `case`'s sort is not arrival-stable.
fn ties(case: &SpecCase, items: Vec<Item>) -> Vec<Item> {
    let impatience = case.spec.plan().sorter() == SorterChoice::Impatience;
    match case.budget.is_some() || impatience && !case.spec.sort.spill {
        true => ties_as_sets(items),
        false => items,
    }
}

/// Holds `prop` over the generated cases, then (unless one seed was
/// replayed) what they covered to `floor`.
fn check_cases(name: &str, floor: fn(&Seen) -> bool, prop: impl Fn(SpecCase, &mut Seen)) {
    let seen = RefCell::new(Seen::default());
    check(name, 200, &SpecCases, |case| {
        prop(case, &mut seen.borrow_mut());
        seen.borrow_mut().cases += 1;
    });
    let seen = seen.into_inner();
    eprintln!("{name}: {seen:?}");
    let replayed = std::env::var_os("IMPATIENCE_PROP_SEED").is_some();
    assert!(replayed || floor(&seen), "coverage: {seen:?}");
}

fn covers(tallies: &[&[usize]]) -> bool {
    tallies.iter().all(|t| t.iter().all(|&n| n > 0))
}

/// The oracle: letters, output, and (where a poison is reached or a
/// punctuation regresses) the one typed error.
#[test]
fn generated_specs_match_the_oracle() {
    let floor =
        |s: &Seen| covers(&[&s.ops, &s.late, &s.shards, &[s.panicked]]) && s.faults.floor(s.cases);
    check_cases("generated_specs_match_the_oracle", floor, oracle);
}

/// Holds one case's run to the oracle and tallies what it covered.
fn oracle(case: SpecCase, seen: &mut Seen) {
    let (spec, (input, laid), budget) = (&case.spec, case.laid(), case.budget.is_some());
    let main = run(&case, spec, None, &input);
    // The oracle runs up to the regressed punctuation, if any.
    let (at, refusal) = regression(&input).unzip();
    let upto = &input[..at.unwrap_or(input.len())];
    let (failed, (mut sorted, late)) = (!main.errors.is_empty(), sort_stage(upto));
    let refused = refusal.is_some() && refusal.iter().eq(&main.errors);
    let unsharded = spec.shards == 1;
    match spec.sort.late {
        _ if budget => sorted = admitted_under_budget(&case, &main),
        LatePolicy::DeadLetter if failed && !(refused && unsharded) => {}
        LatePolicy::DeadLetter => {
            let letter = |(event, watermark)| DeadLetter {
                event,
                reason: DeadLetterReason::Late { watermark },
            };
            let mut want: Vec<_> = late.iter().cloned().map(letter).collect();
            want.sort_by_cached_key(|l| format!("{l:?}"));
            assert_eq!(main.letters, want, "dead letters");
        }
        _ => assert!(main.letters.is_empty()),
    }
    let ties = |items| ties(&case, items);
    let flat = |items: &[Item]| events(items).into_iter().map(Item::E).collect::<Vec<_>>();
    let (got, plan) = (items(&main.msgs), spec.plan());
    let has = |variant: &str| {
        spec.ops
            .iter()
            .any(|op| format!("{op:?}").starts_with(variant))
    };
    // A failed run's letters stop where it stopped: under a budget they
    // do not say what it admitted, and only the typed error is checked.
    match (
        expected(spec, &sorted).filter(|_| !(failed && budget)),
        refusal,
    ) {
        // Refused typed, or stopped first by a poison it reached.
        (want, Some(refusal)) => {
            assert!(!got.contains(&Item::Done), "a refused run completed");
            match &main.errors[..] {
                [e] if *e == refusal && unsharded && !budget => {
                    let want = want.expect("a poison before the regression");
                    assert_eq!(ties(got), ties(want), "plan {plan}")
                }
                [e] if *e == refusal => {}
                [StreamError::OperatorPanicked { .. }] if has("PanicOn") => {
                    assert!(!unsharded || budget || want.is_none(), "plan {plan}")
                }
                errors => panic!("not one {refusal:?}: {errors:?}"),
            }
        }
        (None, None) => {
            let one_panic = matches!(main.errors[..], [StreamError::OperatorPanicked { .. }]);
            assert!(one_panic, "one typed panic: {:?}", main.errors);
            assert!(!got.contains(&Item::Done), "a failed run completed");
        }
        (Some(_), None) if failed => panic!("{:?}", main.errors),
        (Some(want), None) if budget => {
            assert_eq!(ties(flat(&got)), ties(flat(&want)), "plan {plan}")
        }
        (Some(want), None) => assert_eq!(ties(got), ties(want), "plan {plan}"),
    }
    if !failed {
        validate_ordered_stream(&main.msgs).expect("an ordered stream");
    }
    let variants = ["Fil", "Sca", "Tum", "Sum", "Top", "Pan"];
    for op in spec.ops.iter().map(|op| format!("{op:?}")) {
        let at = variants.iter().position(|v| op.starts_with(v));
        seen.ops[at.expect("a variant")] += 1;
    }
    if !late.is_empty() {
        seen.late[usize::from(spec.sort.late == LatePolicy::DeadLetter)] += 1;
    }
    seen.shards[spec.shards.trailing_zeros() as usize] += 1;
    let typed_panic = |e: &StreamError| matches!(e, StreamError::OperatorPanicked { .. });
    seen.panicked += usize::from(main.errors.iter().any(typed_panic));
    let cut = main.stat(spec, "sort", "forced_punctuations") > 0;
    let f = &mut seen.faults;
    let counts = [
        (&mut f.faulted, laid.any()),
        (&mut f.duplicates, laid.duplicates > 0),
        (&mut f.replays, laid.replays > 0),
        (&mut f.stragglers, laid.stragglers > 0),
        (&mut f.refused, refused),
        (&mut f.refused_hoisted, refused && plan.hoisted() > 0),
        (&mut f.refused_after_a_cut, refused && cut),
        (&mut f.extremes_scaled, laid.extremes > 0 && has("Scale")),
        (&mut f.extremes_summed, laid.extremes > 0 && has("SumByKey")),
    ];
    for (count, hit) in counts {
        *count += usize::from(hit);
    }
}

/// The sorter that ran, read from its gauges and counters, is
/// `plan().sorter()`; the sort stage's counters are the oracle's.
#[test]
fn the_instruments_say_what_ran() {
    let floor = |s: &Seen| covers(&[&s.sorters, &s.tripped]);
    check_cases("the_instruments_say_what_ran", floor, |case, seen| {
        if !case.spec.instrument {
            return;
        }
        let (spec, input) = (&case.spec, case.messages());
        let (main, late) = (run(&case, spec, None, &input), sort_stage(&input).1);
        let (plan, stat) = (spec.plan(), |what, name| main.stat(spec, what, name));
        match spec.sort.late {
            LatePolicy::Drop if main.errors.is_empty() => {
                assert_eq!(stat("sort", "late_dropped"), late.len() as i64)
            }
            _ => assert_eq!(stat("sort", "dead_lettered"), main.letters.len() as i64),
        }
        if spec.shards == 1 && plan.hoisted() == 0 {
            let (all, events_in) = (items(&input), stat("sort", "events_in"));
            assert_eq!(events_in, events(&all).len() as i64);
            let puncts = all.iter().filter(|i| matches!(i, Item::P(_))).count();
            assert_eq!(stat("sort", "punctuations_in"), puncts as i64);
        }
        let (runs, buffered) = (stat("sorter", "runs"), stat("sorter", "buffered_events"));
        let spilled = stat("sorter", "spill.runs_spilled");
        let sorter = match plan.sorter() {
            SorterChoice::Bucket { .. } => 1,
            SorterChoice::Impatience => 2 * usize::from(spec.sort.spill),
        };
        // Impatience keeps runs (the external sorter may have spilled them
        // all); the bucket sorter has none.
        if buffered > 0 {
            assert_eq!(runs + spilled > 0, sorter != 1, "runs {runs}: {plan}");
        }
        assert!(spec.sort.spill || spilled == 0, "spilled without spill");
        seen.sorters[sorter] += usize::from(buffered > 0);
        let forced = stat("sort", "forced_punctuations");
        let tripped = [forced, stat("sort", "shed_events"), spilled];
        for (count, n) in seen.tripped.iter_mut().zip(tripped) {
            *count += usize::from(n > 0);
        }
    });
}

/// Crash at a seeded point, restore, replay: the committed output and the
/// replayed output are the uninterrupted run's, under a budget too — a
/// restored sorter charges what the uninterrupted one did, so its forced
/// cuts fall in the same places.
#[test]
fn crash_restore_and_replay_is_the_uninterrupted_run() {
    let floor = |s: &Seen| s.restores[0] * 20 >= s.cases && covers(&[&s.restores]);
    let name = "crash_restore_and_replay_is_the_uninterrupted_run";
    check_cases(name, floor, crash_relation);
}

/// Holds one case to the crash relation and tallies its restores.
fn crash_relation(case: SpecCase, seen: &mut Seen) {
    // A failed run has no replay to compare, and a regressed punctuation
    // fails it: the relation holds on the other faults.
    let faults = Faults {
        regression: false,
        ..case.faults
    };
    let case = SpecCase { faults, ..case };
    let (spec, input) = (&case.spec, case.messages());
    if spec.checkpoint.is_none() {
        return;
    }
    let (main, dir) = (run(&case, spec, None, &input), scratch_dir());
    if !main.errors.is_empty() {
        return;
    }
    let at = input.len() * case.crash_permille as usize / 1_000;
    let crashed = run(&case, spec, Some(&dir.0), &input[..at]);
    let replayed = run(&case, spec, Some(&dir.0), &input);
    let (skipped, egress) = replayed.restored.unwrap_or((0, 0));
    let committed = &crashed.msgs[..skipped.checked_sub(1).map_or(0, |i| crashed.marks[i])];
    let committed_events = events(&items(committed)).len() as u64;
    assert_eq!(committed_events, egress, "committed events");
    let whole = [committed, &replayed.msgs].concat();
    let what = format!("crash after {at} messages, restored past {skipped}");
    assert_eq!(whole, main.msgs, "{what}");
    if replayed.restored.is_some() {
        let kinds = [true, case.budget.is_some(), spec.plan().hoisted() > 0];
        for (count, kind) in seen.restores.iter_mut().zip(kinds) {
            *count += usize::from(kind);
        }
    }
}

props! {
    cases = 200;

    /// What a client would send, the service parses and builds.
    fn generated_specs_round_trip_through_the_wire_form(case in SpecCases) {
        let spec = PipelineSpec::from_json(&case.spec.to_json());
        assert_eq!(spec, Ok(case.spec.clone()), "the wire form");
        run(&case, &spec.expect("checked"), None, &[]);
    }

    /// Flipping instrument / traced / hardened changes no byte (a budget
    /// shared by shards is spent in thread order, so not there).
    fn flipping_the_flags_changes_no_byte(case in SpecCases) {
        let (spec, input) = (&case.spec, case.messages());
        if case.budget.is_some() && spec.shards > 1 {
            return;
        }
        let (main, mut flipped) = (run(&case, spec, None, &input), spec.clone());
        flipped.instrument ^= true;
        flipped.traced ^= true;
        flipped.hardened ^= !spec.ops.iter().any(|op| matches!(op, PanicOn { .. }));
        let other = run(&case, &flipped, None, &input);
        assert_eq!(other.msgs, main.msgs, "flipped flags");
        assert_eq!(other.errors.len(), main.errors.len());
        // A failed sharded run stops routing when its merge ends, at a
        // point thread timing picks: what it dead-lettered by then varies.
        assert!(!main.errors.is_empty() || other.letters == main.letters, "letters");
    }

    /// A sharded run is the one-shard run, split by key and merged (`TopK`
    /// ranks within a shard).
    fn a_sharded_run_is_the_merged_one_shard_run(case in SpecCases) {
        let (spec, input, n) = (&case.spec, case.messages(), case.spec.shards);
        let top_k = spec.ops.iter().any(|op| matches!(op, TopK { .. }));
        if n == 1 || case.budget.is_some() || top_k {
            return;
        }
        let main = run(&case, spec, None, &input);
        if main.errors.is_empty() {
            let one = run(&case, &spec.clone().with_shards(1), None, &input);
            let merged = merge(shard_parts(&items(&one.msgs), n));
            let ties = |items| ties(&case, items);
            assert_eq!(ties(items(&main.msgs)), ties(merged), "{n} shards against one");
        }
    }
}

/// Shrunk from a generated case, where four shards shared one budget: a
/// stage that has shed all it buffered, still over a budget others hold,
/// cuts. The cut flushes nothing, so it must not punctuate the sorter
/// behind the gate's back: the next event at the cut would be pushed below
/// the sorter's floor (a debug assertion, so a typed panic here).
#[test]
fn a_cut_that_flushes_nothing_leaves_the_sorter_open() {
    let meter = MemoryMeter::with_budget(256);
    meter.charge(1 << 20);
    let spec = PipelineSpec::new("gen").with_sort(SortSpec {
        late: LatePolicy::DeadLetter,
        shed: ShedPolicy::ShedOldestRuns,
        dead_letter_capacity: Some(16),
        spill: false,
    });
    let recorder = Recorder::default();
    let env = PipelineEnv::new().with_meter(&meter);
    let sink = Box::new(recorder.clone());
    let built = spec.build(&env, sink).expect("builds");
    for t in [5, 5, 6] {
        let batch = StreamMessage::batch(vec![Event::keyed(Timestamp::new(t), 0, t)]);
        built.handle.push(batch).expect("push");
    }
    built.handle.push(StreamMessage::Completed).expect("push");
    let (msgs, errors) = std::mem::take(&mut *recorder.0.lock().unwrap());
    assert_eq!(errors, vec![]);
    assert_eq!(msgs.last(), Some(&StreamMessage::Completed));
}

/// Shrunk from a generated case: under a budget, forced cuts run the
/// sort's watermark ahead of the input's punctuations, yet a punctuation
/// below the last input punctuation is a regression, refused typed as it
/// is without a budget and in a hoisted plan, not swallowed as stale.
#[test]
fn a_regression_after_a_forced_cut_is_refused() {
    let meter = MemoryMeter::with_budget(256);
    let spec = PipelineSpec::new("gen").with_sort(SortSpec {
        late: LatePolicy::DeadLetter,
        shed: ShedPolicy::ForcePunctuation,
        dead_letter_capacity: Some(16),
        spill: false,
    });
    let recorder = Recorder::default();
    let env = PipelineEnv::new().with_meter(&meter);
    let built = spec
        .build(&env, Box::new(recorder.clone()))
        .expect("builds");
    let batch = |ts: &[i64]| {
        StreamMessage::batch(
            ts.iter()
                .map(|&t| Event::keyed(Timestamp::new(t), 0, t))
                .collect(),
        )
    };
    let punct = |t| StreamMessage::Punctuation(Timestamp::new(t));
    let input = [
        batch(&[0, 10, 20, 30]),
        batch(&[40, 50, 60, 70]),
        batch(&[80, 90]),
        punct(26),
        batch(&[100, 110, 120, 130]),
        batch(&[140, 150, 160]),
        punct(20),
        StreamMessage::Completed,
    ];
    for m in input {
        built.handle.push(m).expect("push");
    }
    let (msgs, errors) = std::mem::take(&mut *recorder.0.lock().unwrap());
    let cut = |m: &Msg| matches!(m, StreamMessage::Punctuation(t) if t.ticks() > 26);
    assert!(msgs.iter().any(cut), "a forced cut ran ahead: {msgs:?}");
    let (previous, attempted) = (Timestamp::new(26), Timestamp::new(20));
    assert_eq!(
        errors,
        vec![StreamError::PunctuationRegressed {
            previous,
            attempted
        }]
    );
    assert!(
        !msgs.contains(&StreamMessage::Completed),
        "a refused run completed"
    );
}

/// Shrunk from a generated case: a plan that does nothing under a budget
/// that forces cuts, checkpointed every 2 punctuations and crashed after
/// 14 messages. While the budget charged capacity, the restored sorter,
/// rebuilt at exact capacity, cut elsewhere than the uninterrupted one:
/// the fifth batch held 13 events where the uninterrupted run's held 9.
#[test]
fn a_budgeted_crash_replays_the_uninterrupted_cuts() {
    let spec = PipelineSpec::new("gen")
        .with_checkpoint(2)
        .with_sort(dead_letters(ShedPolicy::ForcePunctuation));
    let case = SpecCase {
        budget: Some(512),
        crash_permille: 369,
        ..named_case(spec, 100, 3, Faults::default())
    };
    assert_eq!(case.messages().len() * 369 / 1_000, 14);
    let main = run(&case, &case.spec, None, &case.messages());
    let forced = main.stat(&case.spec, "sort", "forced_punctuations");
    assert!(forced > 0, "no cut");
    let mut seen = Seen::default();
    crash_relation(case, &mut seen);
    assert_eq!(seen.restores[..2], [1, 1], "{seen:?}");
}

/// A hand-made case: `n` events over `keys` keys, every fifth 20 ticks
/// late, punctuated every 8 at a reorder latency of 16, in batches of 4.
fn named_case(spec: PipelineSpec, n: i64, keys: u32, faults: Faults) -> SpecCase {
    let ingress = IngressPolicy {
        punctuation_frequency: 8,
        reorder_latency: TickDuration::ticks(16),
        batch_size: 4,
    };
    let at = |i: i64| Timestamp::new(1_000 + 3 * i - 20 * i64::from(i % 5 == 0));
    let arrivals = (0..n)
        .map(|i| Event::keyed(at(i), i as u32 % keys, i % 50))
        .collect();
    let latency = ingress.reorder_latency;
    SpecCase {
        spec: spec.with_reorder(ReorderSpec::Fixed { latency }),
        arrivals,
        ingress,
        budget: None,
        crash_permille: 0,
        faults,
    }
}

/// `named_case` held to the generated cases' oracle: what it laid and
/// what it covered.
fn held(case: SpecCase) -> (FaultsLaid, Seen) {
    let (laid, mut seen) = (case.laid().1, Seen::default());
    oracle(case, &mut seen);
    (laid, seen)
}

fn dead_letters(shed: ShedPolicy) -> SortSpec {
    SortSpec {
        late: LatePolicy::DeadLetter,
        shed,
        dead_letter_capacity: Some(1 << 16),
        spill: false,
    }
}

/// No faults lay nothing; the same faults lay the same messages.
#[test]
fn the_fault_draw_is_seeded_and_none_lays_nothing() {
    let plain = named_case(PipelineSpec::new("gen"), 200, 3, Faults::default());
    let punctuated = punctuate_arrivals(plain.arrivals.clone(), &plain.ingress);
    assert_eq!(plain.laid(), (punctuated, FaultsLaid::default()));
    let faults = Faults {
        seed: 11,
        duplicates: true,
        stragglers: true,
        regression: true,
        extremes: true,
    };
    let faulty = SpecCase { faults, ..plain };
    let (msgs, laid) = faulty.laid();
    assert!(
        laid.duplicates + laid.replays > 0 && laid.regressions == 1,
        "{laid:?}"
    );
    assert!(laid.stragglers > 0 && laid.extremes > 0, "{laid:?}");
    assert_eq!(faulty.laid(), (msgs, laid), "the same seed");
}

/// A window and its sum hoisted below the sort, whose gate judges input
/// punctuations: a regressed one ends the run in one typed error.
#[test]
fn a_regression_in_a_hoisted_plan_is_refused_typed() {
    let spec = PipelineSpec::new("gen")
        .with_sort(dead_letters(ShedPolicy::ForcePunctuation))
        .with_op(TumblingWindow {
            size: TickDuration::ticks(16),
        })
        .with_op(SumByKey);
    assert!(spec.plan().hoisted() > 0, "{}", spec.plan());
    let faults = Faults {
        seed: 3,
        regression: true,
        ..Faults::default()
    };
    let (laid, seen) = held(named_case(spec, 200, 3, faults));
    assert_eq!(laid.regressions, 1);
    assert_eq!(seen.faults.refused_hoisted, 1, "{seen:?}");
}

/// `i64::MIN`, `i64::MAX` and their neighbours, scaled and summed per key
/// and window, wrap exactly as the interpreter wraps them.
#[test]
fn extreme_payloads_wrap_through_scale_and_sum_by_key() {
    let spec = PipelineSpec::new("gen")
        .with_op(Scale { factor: 3 })
        .with_op(TumblingWindow {
            size: TickDuration::ticks(16),
        })
        .with_op(SumByKey);
    let faults = Faults {
        seed: 5,
        extremes: true,
        ..Faults::default()
    };
    let (laid, seen) = held(named_case(spec, 300, 2, faults));
    assert!(laid.extremes > 0);
    let extremes = (seen.faults.extremes_scaled, seen.faults.extremes_summed);
    assert_eq!(extremes, (1, 1), "{seen:?}");
}

/// A poison on one of four shards, among duplicates and stragglers: the
/// whole run ends in exactly one typed panic and no completion.
#[test]
fn a_poisoned_shard_ends_the_run_in_one_typed_panic() {
    let spec = PipelineSpec::new("gen")
        .with_hardened(true)
        .with_shards(4)
        .with_op(PanicOn { value: 37 });
    let faults = Faults {
        seed: 9,
        duplicates: true,
        stragglers: true,
        ..Faults::default()
    };
    let (laid, seen) = held(named_case(spec, 200, 16, faults));
    assert!(laid.duplicates + laid.replays > 0 && laid.stragglers > 0);
    assert_eq!(seen.panicked, 1, "{seen:?}");
}

/// Duplicates and stragglers under a budget small enough to force cuts:
/// the meter stays within it and is never released more than charged
/// (`run` checks both after every push and at rest), and the output is the
/// admitted events.
#[test]
fn a_budgeted_run_under_faults_stays_within_its_budget() {
    let spec = PipelineSpec::new("gen")
        .with_instrument(true)
        .with_sort(dead_letters(ShedPolicy::ForcePunctuation));
    let faults = Faults {
        seed: 13,
        duplicates: true,
        stragglers: true,
        ..Faults::default()
    };
    let case = SpecCase {
        budget: Some(256),
        ..named_case(spec, 300, 3, faults)
    };
    let main = run(&case, &case.spec, None, &case.messages());
    assert!(
        main.stat(&case.spec, "sort", "forced_punctuations") > 0,
        "no cut"
    );
    let (laid, seen) = held(case);
    assert!(laid.duplicates + laid.replays > 0 && laid.stragglers > 0);
    assert_eq!((seen.panicked, seen.faults.refused), (0, 0), "{seen:?}");
}
