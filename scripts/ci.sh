#!/usr/bin/env bash
# Tier-1 gate for the workspace. Everything runs --offline: the build has
# no external dependencies (see README.md "Zero external dependencies"),
# so CI must never touch the network or a registry cache.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings
# A comment line opening with four or more slashes is no doc comment, and
# clippy's `four_forward_slashes` does not flag five: rustdoc then renders
# the item's docs from the following line.
if grep -rnE '^[[:space:]]*////' --include='*.rs' crates src tests examples; then echo "comment lines above start with ////"; exit 1; fi

echo "== cargo doc --workspace --no-deps (warnings are errors) =="
# Catches doc links that a rename or deletion leaves dangling, and public
# docs that link private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (root crate: conformance + e2e) =="
cargo test -q --offline

echo "== cargo test -q --offline --workspace --exclude impatience (member crates) =="
# The root package's suites just ran; a plain --workspace would run them again.
cargo test -q --offline --workspace --exclude impatience

# The two steps above run every suite once, in the debug profile. The gates
# below say what those suites hold; they run only what is new — single
# tests by name (so a regression names itself), release-mode properties,
# the ignored timing budgets, the exhibits and the stack benchmark.

# == spill conformance (external sorter vs oracle, disk faults, crashes):
# tests/sorter_conformance.rs, tests/spill_faults.rs ==
# The external-sort gate: 1000 seeded streams with mid-stream budget trips
# and snapshot/restore cycles must stay byte-identical to the stable-sort
# oracle, and 500+ seeded disk-fault/crash cycles must each end in either
# byte-identical output or one typed error — never an abort.

echo "== paper shapes (table1, fig5, table2 --check at default sizes) =="
# Table I, Fig 5 and Table II check counts — inversions and runs,
# sorted-run counts, completeness — not time, so their shapes hold under
# any load (each takes about a second). Fig 7-10 stay out: their shapes are
# throughput ratios, which a loaded host can invert.
for exhibit in table1 fig5 table2; do
    cargo run --release --offline -q -p impatience-bench --bin "$exhibit" -- --check > /dev/null
done
# Below 10 000 events an exhibit has nothing to sample: refused, exit 2.
status=0
cargo run --release --offline -q -p impatience-bench --bin fig5 -- --events 5000 \
    2> /dev/null || status=$?
[ "$status" -eq 2 ] || { echo "fig5 --events 5000 exited $status, not 2"; exit 1; }

echo "== spec differential (generated specs and streams against one oracle) =="
# The spec path's gate: seeded (PipelineSpec, arrivals) cases from
# impatience_testkit::SpecCases — 0-4 ops in any order, either late
# policy, each shed policy and spill under a budget that trips them, shards
# {1, 2, 4, 8}, checkpoints, instrument/traced/hardened — each built
# through PipelineSpec::build (after a round trip through its JSON wire
# form) and held to one oracle: the admitted events, cut at each
# punctuation and sorted by sync_time, through a naive interpreter of the
# ops, the shards joined as the lockstep merge joins them. It holds what
# the plan differential held (a plan that runs filters and windows below
# the sort emits what the sort-first chain does; the sorter that ran, read
# from its gauges, is the plan's) and what shard conformance held (a
# sharded run is the one-shard run split by key and merged), plus flags
# and crash/restore/replay leaving the output bytes unchanged, under a
# budget too: a sorter charges the bytes it buffers, not its buffers'
# capacity, so a restored one cuts where the uninterrupted one did (the
# crash relation floors restores in all, under a budget and in a hoisted
# plan). Each relation is a test of its own, asserting its own coverage
# floors.
# It is also the failure-model gate: a seeded fault draw lays duplicates
# (in a batch and across a punctuation), stragglers 5 000 ticks behind the
# watermark, one regressed punctuation and payloads at both ends of i64
# over the messages, and every run must end in the oracle's output or one
# typed error, a regression refused typed in every plan and under every
# budget, a budgeted meter within its budget after every push, a
# punctuation into a bucket sort included. The
# oracle test asserts and prints a floor per fault kind (a regression in
# a hoisted plan, one after a forced cut, extremes through Scale and
# SumByKey) and that at least 1 170 of the 2 000 cases bear a fault.
# 2 000 cases per test, release, timed.
start=$(date +%s)
IMPATIENCE_PROP_CASES=2000 cargo test --release -q --offline --test spec_differential
echo "spec differential: 2000 cases in $(( $(date +%s) - start ))s"
# The budgeted crash shrunk from a generated case, by name: a restored
# sorter that charged other bytes cut elsewhere on replay.
cargo test --release -q --offline --test spec_differential a_budgeted_crash_replays_the_uninterrupted_cuts

echo "== sharded plumbing and the plan's recovery cases =="
# The engine's `sharded` suite holds the plumbing: seeded producer and
# worker pacing must not change a byte, an idle source must not end the
# stream, and a dead shard must stop routing and let every thread join.
# The boundary carries the chain: each shard inherits the chain's
# instruments (under `{prefix}.shardNN`), fence and trace, and the
# `shard.*` counters land in the chain's registry. The inheritance test
# runs by name, so a regression names itself (the engine's tests/sharded.rs
# runs whole above).
cargo test -q --offline -p impatience-engine --test sharded shards_inherit_the_chains_instruments_and_fence

# The two hoisted_plan recovery cases hold the plan/checkpoint rule: a
# sort-first slot or an Impatience-state slot is refused with a typed
# RecoveryFailed. (That the late gate's watermark and the bucket sorter's
# buffered windows survive a crash is the crash relation's, above.)
# The plan is what the chain built: the chain decides at the grouped
# operator, by the one rule plan() reads, and the shape test builds every
# spec of up to four ops (1 555 shapes), reads each physical stage order
# back from its counters and holds it to plan()'s display.
cargo test -q --offline --test recovery hoisted_plan
cargo test -q --offline -p impatience-engine --lib spec::tests::planner_rule_holds_for_every_shape_up_to_four_ops

echo "== framework differential (ladder rungs under the planner's sorter rule) =="
# The framework gate. The ladder is a boundary the chain owns: each rung
# inherits the chain's instruments and trace (under `partitionNN`, the
# trace on lane NN), its fence and — unlike a shard, since a ladder runs
# on the source's one thread — its checkpoint context; the merge and
# output relays carry only the fence and the checkpoint context. The
# inheritance test runs by name, so a regression names itself; the
# durable case restores the ladder from a checkpointed source at the
# replay offset the caller's context reports. Each rung picks its sorter
# by the planner's rule: where a tumbling window runs below the framework
# every rung runs the bucket sorter, elsewhere (and under ShedOldestRuns)
# Impatience. A bucket-sorting rung whose PIQ opens with group_aggregate
# or reduce_by_key (one grouped operator) fuses the two: its sort stage
# folds each event into one table per open window, in arrival order, and
# emits the groups sort -> grouped operator would, holding no raw event,
# under the sort's label. The props
# hold every tier to a batch oracle, the basic framework's tiers over
# windowed input to an exact tie order (time, then partition, then
# arrival), and the fused rungs to the sort-first spelling under every
# late policy, dead letters included (for a count and for a reduce_by_key
# that keeps each group's first payload), and under a budget that forces
# cuts. surface_differential pins the ladder's output, routing, dead
# letters and spans byte for byte; its metered.metrics and
# durable.checkpoints digests record the fused rungs (sort rows only,
# window-table snapshots), and the checkpoint digest covers each slot's
# bytes, not only its size. A durable slot written while the rungs ran
# Impatience, or sort-first where they now fuse (and the reverse), or
# while reduce_by_key was an operator of its own (its merge frames carry
# engine.reduce_by_key), is refused with a typed RecoveryFailed. Both inheritance tests run by name:
# the sort-first test's name is a substring of its fused twin's.
# Batches enter the ladder whole: the partitioner hands a batch that falls
# wholly in one rung over as it is and copies each event of a batch with
# rung changes inside it once, which a clone-counting payload checks by
# name. Rungs place their sort by the planner's rule: a filter opening
# the PIQ runs below the sort, which still fuses; a re_key, or a second
# window over aligned input, stays above it. Those rung cases run by name.
# The ladder is DisorderedStreamable::to_streamables, and its own cases —
# delay partitioning, the late policies, the per-rung sorter choice, the
# boundary, the partitioner's copies, typed take_stream errors — live in
# the engine's tests/ladder.rs. That file, tests/framework_props.rs and
# tests/surface_differential.rs run whole above.
cargo test -q --offline --test framework_props a_piq_opening_with_another_stage_keeps_the_sort_first
cargo test -q --offline -p impatience-engine --test ladder rungs_inherit_the_chains_instruments_trace_and_fence
cargo test -q --offline -p impatience-engine --test ladder rungs_bucket_window_aligned_input
cargo test -q --offline -p impatience-engine --test ladder the_partitioner_copies_each_routed_event_at_most_once
# Both bucket kinds (the bucket sorter's Vecs, a fused rung's group tables)
# share one bucket grid: its lifecycle table runs over each, by name.
cargo test -q --offline -p impatience-engine --lib -- \
    ops::group::tests::lifecycle \
    ops::group::tests::window_tables_match_sort_then_group
cargo test -q --offline --test recovery framework_refuses_an_impatience_state_slot
cargo test -q --offline --test recovery framework_refuses_a_slot_across_the_fused_plan_change
cargo test -q --offline --test recovery framework_refuses_a_slot_of_the_old_reduce_by_key_operator

echo "== sorting stage (a batch admitted in one pass and one sorter call) =="
# SortOp reads a batch once — watermark lag for every visible event, the
# highest admitted time, the late count — then diverts the late events in
# arrival order and hands the rest to the sorter in one push_batch call.
# The late-path cases run by name: a plain sort under DeadLetter, and a
# plain sort and one behind a late gate after a forced cut, each with a
# batch that mixes late and on-time events (letters and counters exact,
# `high` at the admitted maximum, lag tallied for every event).
cargo test -q --offline -p impatience-engine --lib -- \
    ops::sort::tests::dead_letter_policy_diverts_late_events \
    ops::sort::tests::watermark_lag_is_measured_against_received_punctuations

echo "== two-input stages (union and join on one synchronizer) =="
# Union and join share one synchronizer (ops::sync) and differ only in
# their merge. The property suite feeds each through two live inputs in
# seeded interleavings: the union must emit exactly the multiset of its
# inputs, the join exactly a nested-loop interval join, each as an ordered,
# completed stream with its meter back at 0. The frame pin holds the bytes
# of a checkpointed union's and a checkpointed join's slot files. The
# engine tests run in release as well as debug: a punctuation that
# regresses on either input fails typed, and events waiting for the other
# side are charged to the meter, in both profiles.
cargo test -q --offline --test two_input_props -- \
    union_of_interleaved_live_inputs_is_their_multiset \
    join_of_interleaved_live_inputs_is_the_nested_loop_join \
    two_input_frames_are_pinned
cargo test -q --release --offline -p impatience-engine --test props two_input_stage

echo "== trace conformance (traced pipelines byte-identical, spans laminar) =="
# The observability determinism gate: traced runs must produce output
# byte-identical to untraced ones across shard counts, spans must nest,
# and sampled provenance must survive a crash -> restore -> replay cycle.
# A spec-built traced pipeline with two shards builds, matches its
# untraced output, and records each shard's stage and queue spans on that
# shard's lane and the merge's on lane 2; the engine unit test holds the
# queue, merge and watermark spans of a traced chain split four ways.
# tests/trace_conformance.rs runs whole above.
cargo test -q --offline -p impatience-engine --lib sharded::tests::traced_sharded_records_queue_merge_and_watermark_spans

echo "== tenant isolation (seeded chaos across the service boundary) =="
# The multi-tenant gate: 270 seeded runs each boot a real server, connect
# four socket tenants, and inject one fault (an operator panic — under the
# default hardened spec on alternate panic runs, unhardened on the others
# — an admission budget breach, or a disk fault). The faulted tenant must
# fail with a typed error on its own connection only; every healthy tenant
# must be byte-identical to a solo in-process run; the server must keep
# accepting. The tenant's own tests pin that it reads failure from its
# pipeline: a panic either way, a punctuation regression and an
# unrestorable slot each fail typed, and a config that could only fail
# later (past 255 rungs, a checkpoint without durable) is refused up front.
# An adaptive tenant realises its quality target, less the window's
# sampling error, in every phase of an in-order / disordered / in-order
# stream punctuated after every arrival. tests/tenant_isolation.rs and
# tests/adaptive_quality.rs run whole above.
cargo test -q --offline -p impatience-serve --lib -- \
    tenant::tests::a_pipeline_failure_is_typed_now_and_tenant_failed_later \
    tenant::tests::a_slot_that_cannot_be_restored_refuses_the_start_and_the_open \
    tenant::tests::a_ladder_past_255_rungs_is_refused_before_the_tenant_touches_disk \
    tenant::tests::config_rejections_are_field_precise

# == network chaos (seeded kill/reset/stall/dup faults, exactly-once resume):
# tests/session_resume.rs ==
# The session-survivability gate: 200+ seeded kill→reconnect→resume cycles
# across both framings and both durability modes, each run's output
# byte-identical to an unbroken run of the same workload (zero duplicated,
# zero lost events), with the server's serve.session.* counters accounting
# for every resume. A failing cell replays with IMPATIENCE_PROP_SEED=<seed>.

# == wire fuzz (seeded malformed frames against a live server):
# tests/wire_fuzz.rs ==
# The protocol-robustness gate: nine seeded attack classes (bad magic,
# truncated/oversize/zero length prefixes, mid-frame EOF, garbage JSON,
# unknown tags, noise) against a live server. Every hostile connection must
# end in a typed error frame or a clean close within a bounded window —
# never a hang or panic — while a healthy tenant streams unperturbed on
# the same server.

echo "== wire codecs (fixed-stride binary records, NDJSON event frames without a tree) =="
# The served path's event-frame codecs, held to their generic forms: a
# binary batch decodes to itself; the NDJSON writer prints exactly what
# to_json().to_string() prints; and the NDJSON scanner agrees with
# core::json plus from_json on canonical frames, on perturbed ones (key
# order, whitespace, the 3-field point form, keys outside u32,
# non-integers, cut and corrupted lines) and on the wire fuzzer's attacks
# (the seed tests/wire_fuzz.rs throws). The golden frames, the truncation
# table and tests/batch_copies.rs (a counting allocator pins the
# batch-sized blocks of one served request) run whole above.
# 2 000 cases per property, release, timed.
start=$(date +%s)
IMPATIENCE_PROP_CASES=2000 cargo test --release -q --offline -p impatience-serve --test wire_codec -- \
    binary_event_frames_round_trip \
    ndjson_event_lines_print_the_json_tree \
    ndjson_scanner_agrees_with_the_generic_parser \
    ndjson_scanner_agrees_on_the_fuzzers_attacks
echo "wire codecs: 2000 cases per property in $(( $(date +%s) - start ))s"

# A gate on a ratio of two timings taken inside one process survives host
# drift without a recorded history, but a load spike can still push one
# attempt either way: such a gate fails only when three attempts in a row
# do. An attempt that returns 2 (wrong output, not a timing) fails at once.
three_attempts() {
    local name="$1" attempt status
    shift
    for attempt in 1 2 3; do
        status=0
        "$@" || status=$?
        [ "$status" -eq 0 ] && return 0
        if [ "$status" -eq 2 ] || [ "$attempt" -eq 3 ]; then
            echo "$name failed"
            exit 1
        fi
    done
}

echo "== timing budgets (tracing >= 95% of untraced, checkpointing <= 10% over plain) =="
# The two in-process budgets, `#[ignore]`d so `cargo test` never times
# anything: the fully traced canonical CloudLog pipeline keeps >= 95% of
# untraced throughput on the cleanest of 7 interleaved pairs (1 M events),
# and checkpointing every 16 punctuations costs <= 10% wall-clock over the
# plain pipeline, best of 5 (2 M events, fixed 1 s latency).
three_attempts "timing budgets" \
    cargo test --release --offline --test trace_conformance --test recovery -- --ignored --nocapture

echo "== stack benchmark (unit tests + smoke: every workload, both passes, oracle on) =="
# The BENCHMARK.json benchmark is a package of its own (stackbench/), so
# the workspace steps above never build it. Its unit tests and a 1/100-size
# run of every workload, untraced then traced, keep it compiling against
# the crates and fail CI when any served or in-process output mismatches
# its independent reference. Every build of it is --locked: the benchmark
# builds against its own Cargo.lock, so a change to a path crate's
# dependency list fails here instead of rewriting that lock when the
# benchmark runs.
cargo test --release --offline --locked --manifest-path stackbench/Cargo.toml
# The benchmark reads the spill gauges by name (`eng.00.sorter.spill.*`): a
# zero here means the sort stage's label moved, not that nothing spilled.
smoke_json="$(mktemp)"
trap 'rm -f "$smoke_json"' EXIT
cargo run --release --offline --locked --manifest-path stackbench/Cargo.toml -- run --smoke --out "$smoke_json"
grep -q '"sort.external.runs_spilled":{"value":[1-9]' "$smoke_json" || {
    echo "stack smoke: sort.external.runs_spilled read 0 (stage 00 label lost?)"
    exit 1
}

echo "== stage-shell gate (engine-inmem traced: shell <= 15% of end-to-end) =="
# What instrument + hardened add around every stage must stay a small
# share of the pipeline they wrap: on the traced pass of `engine-inmem`,
# `engine.pipeline.shell_ns_per_event` (full pipeline minus the same
# pipeline built bare) may be at most 15% of `stack.e2e_ns_per_event`
# (31% before the per-batch StageShell). Both come from one process, so
# the ratio survives host drift without a recorded history. The shell row
# is a difference of two medians, so a load spike can push one attempt
# either way: the gate fails only when three attempts in a row exceed it.
shell_gate() {
    local out shell e2e
    out="$(cargo run --release --offline --locked --quiet --manifest-path stackbench/Cargo.toml -- \
        bench --workload engine-inmem --seconds 2 --trace 1)"
    grep -q '"correct":true' <<<"$out" || { echo "engine-inmem: oracle mismatch"; return 2; }
    metric() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" <<<"$out"; }
    shell="$(metric engine.pipeline.shell_ns_per_event)"
    e2e="$(metric stack.e2e_ns_per_event)"
    awk -v s="$shell" -v e="$e2e" 'BEGIN {
        printf "shell %.1f ns/event of %.1f ns/event end to end = %.1f%%\n", s, e, 100 * s / e
        exit !(e > 0 && s <= 0.15 * e)
    }'
}
three_attempts "stage-shell gate" shell_gate

echo "CI OK"
