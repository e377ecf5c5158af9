//! Tier-1 perf gate: deterministic performance proxies, no wall clock.
//!
//! Wall-clock timings cannot be asserted in CI (they depend on the
//! machine), so this gate pins the two proxies that are pure functions of
//! the seed: the *allocation count* of a run under the counting global
//! allocator, and the *event volume* of the campaign. The headline
//! property of the streaming fingerprint pipeline — the audit fast path
//! (`RunMode::Hash`) adds **zero** allocations over a plain traced run —
//! is asserted per arm, across every arm in the registry.
//!
//! The counts are recomputed with the exact logic that generated the
//! committed `BENCH_perf.json` (`bench::perf_bench::deterministic_counts`),
//! then diffed against the artifact, so a hot-path regression both fails
//! here and shows up as a stale artifact.

use neat_repro::campaign::{self, RunMode};
use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};

// Route this test binary's heap through the counting allocator; the
// counters are thread-local, so the parallel test harness cannot bleed
// counts across tests.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

#[test]
fn the_counting_allocator_is_live() {
    assert!(
        alloc_counter::is_counting(),
        "perf_gate.rs must install CountingAlloc as #[global_allocator]"
    );
}

#[test]
fn stream_hash_allocates_nothing() {
    // Warm one run so lazy one-time setup cannot be billed to the
    // measured call, then hash a value with plenty of nested structure.
    let arm = &campaign::arm_ids()[0];
    let artifacts = campaign::run_arm(arm, 8, RunMode::Trace);
    let _ = neat::audit::stream_hash(&artifacts.timeline);
    let (_, allocs) =
        alloc_counter::count_allocations(|| neat::audit::stream_hash(&artifacts.timeline));
    assert_eq!(
        allocs, 0,
        "stream_hash must fold Debug output straight into FNV-1a without materializing it"
    );
}

#[test]
fn fingerprint_fast_path_allocates_nothing_across_every_arm() {
    let d = bench::perf_bench::deterministic_counts(8);
    assert!(d.counting_allocator, "allocator probe failed");
    assert!(d.arms >= 70, "registry shrank: only {} arms counted", d.arms);
    assert_eq!(
        d.fingerprint_alloc_delta_total, 0,
        "a Hash-mode run allocated more than the identical Trace-mode run: \
         the streaming fingerprint fast path regressed"
    );
    // The rendered fingerprint is the cost the fast path avoids — if
    // rendering were free too, this gate would be testing nothing.
    assert!(
        d.render_allocs_sample > 0,
        "Render mode allocated nothing extra; the zero-delta assertion above is vacuous"
    );
}

/// Ping-pong forever between two nodes: every step is one delivery.
struct Pinger;
impl Application for Pinger {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.id() == NodeId(0) {
            ctx.send(NodeId(1), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg + 1);
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
}

/// Keeps eight short timers armed per node, like the `timer_storm` micro.
struct Storm;
impl Application for Storm {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for i in 0..8 {
            ctx.set_timer(1 + i, i);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerId, tag: u64) {
        ctx.set_timer(1 + (tag % 7), tag);
    }
}

#[test]
fn steady_state_delivery_path_allocates_nothing() {
    // After a short warm-up (arena slots recycled, heap and action buffer
    // at capacity, link matrix grown), ping-pong delivery must run
    // allocation-free: pop reuses the arena slot its push freed. A
    // recorded run logs no per-message events, so it is held to the same
    // zero.
    for record in [false, true] {
        let mut w = WorldBuilder::new(1)
            .event_capacity(16)
            .record_trace(record)
            .build(2, |_| Pinger);
        for _ in 0..100 {
            w.step();
        }
        let (_, allocs) = alloc_counter::count_allocations(|| {
            for _ in 0..10_000 {
                w.step();
            }
        });
        assert_eq!(
            allocs, 0,
            "steady-state message delivery allocated (record_trace={record}): \
             the arena/heap hot path or the trace regressed"
        );
    }
}

#[test]
fn steady_state_timer_path_allocates_nothing() {
    // Wheel buckets are lazily grown Vecs, so the measured window must
    // only touch buckets the warm-up already gave capacity. Delays here
    // are <= 7 ms, which means: level-0 and level-1 slots all recur
    // within one 4096 ms (level-2) rotation, but each 4096 boundary
    // crossing parks timers in a *fresh* level-2 bucket. Warm one full
    // rotation, stop right after a boundary, and keep the window well
    // short of the next one. Virtual time is a pure function of the
    // seed, so the window bound below is deterministic, not a timing.
    // Recording does not log timer fires, so both runs must allocate
    // nothing.
    for record in [false, true] {
        let mut w = WorldBuilder::new(1)
            .event_capacity(64)
            .record_trace(record)
            .build(4, |_| Storm);
        // Three rotations, not one: bucket capacities keep creeping up for
        // a while because each rotation packs slightly different timer
        // batches into the same slots.
        while w.now() < 3 * (1 << 12) {
            assert!(w.step(), "timer storm ran dry during warm-up");
        }
        let (_, allocs) = alloc_counter::count_allocations(|| {
            for _ in 0..5_000 {
                w.step();
            }
        });
        assert!(
            w.now() < 4 * (1 << 12) - 8,
            "measurement window reached the next level-2 boundary at t={}; shrink it",
            w.now()
        );
        assert_eq!(
            allocs, 0,
            "steady-state timer fire/re-arm allocated (record_trace={record}): \
             the wheel hot path or the trace regressed"
        );
    }
}

#[test]
fn event_volume_matches_the_committed_perf_artifact() {
    let d = bench::perf_bench::deterministic_counts(8);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_perf.json");
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed artifact {path}: {e}"));
    for needle in [
        format!("\"events_simulated_total\": {}", d.events_simulated_total),
        format!("\"arms\": {}", d.arms),
        "\"fingerprint_alloc_delta_total\": 0".to_string(),
        "\"counting_allocator\": true".to_string(),
    ] {
        assert!(
            json.contains(&needle),
            "BENCH_perf.json lacks `{needle}`; refresh with \
             `cargo run --release -p bench --bin perf`"
        );
    }
}

/// The repkv write path must stay linear: allocations per op of the
/// write-only retry-storm stream may not grow with the stream length.
/// Whole-log replication once cloned the full log per write and per
/// replica, and rebuilt the store from scratch per commit, so the
/// 3,840-op figure was 15x the 240-op one.
#[test]
fn repkv_write_path_allocations_per_op_stay_flat() {
    let allocs_per_op = |ops: u64| {
        let (_, allocs) = alloc_counter::count_allocations(|| {
            repkv::load::load_retry_storm_gray_loss_with_ops(false, 8, false, ops)
        });
        allocs as f64 / ops as f64
    };
    let short = allocs_per_op(240);
    let long = allocs_per_op(3_840);
    assert!(
        long <= 1.5 * short,
        "repkv allocations per op grew from {short:.1} at 240 ops to {long:.1} at 3,840: \
         the write path went superlinear"
    );
}
