//! Every metric the benchmark prints, with its unit. Each per-layer metric
//! names the end-to-end metric and the workload it should move; `exact`
//! marks a count that must repeat exactly from run to run. `BENCHMARK.json`
//! lists the same names and units (checked by `tests/smoke.rs`).
//!
//! Times are host time unless the unit is `sim_ms`: virtual milliseconds
//! on simnet's clock.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric this one should move (empty for end-to-end).
    pub moves: &'static str,
    pub workload: &'static str,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        moves: "",
        workload: "",
        exact: false,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        moves,
        workload,
        exact: false,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    workload: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        moves,
        workload,
        exact: true,
    }
}

pub const WORKLOADS: [&str; 4] = [
    "campaign_sweep",
    "audit_fingerprint",
    "explore_coverage",
    "kv_partition_load",
];

pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s"),
    e2e("items_per_kref", "1/kref"),
    e2e("peak_rss_mb", "MB"),
];

const CS: &str = "campaign_sweep";
const AF: &str = "audit_fingerprint";
const EC: &str = "explore_coverage";
const KV: &str = "kv_partition_load";
const ALL: &str = "every workload";
const IPS: &str = "items_per_kref";

/// Crates that own campaign scenarios, in `campaign.arm_ms.<crate>` order.
pub const CRATES: [&str; 7] = [
    "repkv",
    "consensus",
    "coord",
    "mqueue",
    "gridstore",
    "sched",
    "dfs",
];

/// Explorer targets, in `explore_coverage` order.
pub const TARGETS: [&str; 4] = ["raft", "repkv", "gridstore", "mqueue"];

pub const PER_LAYER: &[Metric] = &[
    // campaign: registry and scenario arms.
    layer("campaign.registry_build_us", "us", "setup_s", CS),
    layer("campaign.arm_ms.repkv", "ms", IPS, CS),
    layer("campaign.arm_ms.consensus", "ms", IPS, CS),
    layer("campaign.arm_ms.coord", "ms", IPS, CS),
    layer("campaign.arm_ms.mqueue", "ms", IPS, CS),
    layer("campaign.arm_ms.gridstore", "ms", IPS, CS),
    layer("campaign.arm_ms.sched", "ms", IPS, CS),
    layer("campaign.arm_ms.dfs", "ms", IPS, CS),
    layer("campaign.heaviest_arm_share", "share", IPS, CS),
    exact("campaign.detection_rate", "share", IPS, CS),
    // fleet: the work-stealing grid.
    exact("fleet.batches", "count", IPS, CS),
    layer("fleet.steals", "count", IPS, CS),
    layer("fleet.idle_share", "share", IPS, CS),
    layer("fleet.speedup", "ratio", IPS, CS),
    layer("fleet.nproc", "count", IPS, CS),
    // simnet: queue and fabric, against the benchmark-owned micro ceiling.
    exact("simnet.events", "count", IPS, ALL),
    exact("simnet.messages_dropped", "count", IPS, ALL),
    layer("simnet.events_per_s", "1/s", IPS, ALL),
    layer("simnet.micro.ping_pong_events_per_s", "1/s", IPS, ALL),
    layer("simnet.micro.timer_storm_events_per_s", "1/s", IPS, ALL),
    // neat.engine: op ordering, pacing and faults.
    exact("engine.ops_ordered", "count", IPS, KV),
    exact("engine.events_per_op", "ratio", IPS, KV),
    layer("engine.sleep_s", "s", IPS, KV),
    layer("engine.fault_us", "us", IPS, KV),
    // obs: the recorder, Trace minus Quick.
    layer("obs.record_ms_per_arm", "ms", IPS, AF),
    exact("obs.timeline_events", "count", IPS, AF),
    exact("obs.allocs_per_arm", "count", "peak_rss_mb", AF),
    // neat.audit: the streamed fingerprint, Hash minus Trace.
    layer("audit.hash_ms_per_arm", "ms", IPS, AF),
    exact("audit.fingerprint_bytes", "bytes", IPS, AF),
    exact("audit.alloc_delta", "count", IPS, AF),
    // neat.checkers.
    layer("checkers.register_ms", "ms", IPS, KV),
    exact("checkers.history_ops", "count", IPS, KV),
    // neat.explore, through the timing TestTarget wrapper.
    layer("explore.reset_share", "share", IPS, EC),
    layer("explore.schedule_share", "share", IPS, EC),
    layer("explore.check_share", "share", IPS, EC),
    layer("explore.timeline_share", "share", IPS, EC),
    layer("explore.self_share", "share", IPS, EC),
    layer("explore.reset_ms.raft", "ms", IPS, EC),
    layer("explore.reset_ms.repkv", "ms", IPS, EC),
    layer("explore.reset_ms.gridstore", "ms", IPS, EC),
    layer("explore.reset_ms.mqueue", "ms", IPS, EC),
    exact("explore.trials_with_violation", "count", IPS, EC),
    exact("explore.distinct_kinds", "count", IPS, EC),
    exact("explore.signatures", "count", IPS, EC),
    exact("explore.corpus_len", "count", IPS, EC),
    exact("explore.first_find_trial.raft", "count", IPS, EC),
    exact("explore.first_find_trial.repkv", "count", IPS, EC),
    exact("explore.first_find_trial.gridstore", "count", IPS, EC),
    exact("explore.first_find_trial.mqueue", "count", IPS, EC),
    exact("explore.minimize_replays", "count", IPS, EC),
    exact("explore.minimal_steps", "count", IPS, EC),
    layer("explore.minimize_s", "s", IPS, EC),
    // repkv: the protocol model's write path.
    layer("repkv.write_us.first_decile", "us", IPS, KV),
    layer("repkv.write_us.last_decile", "us", IPS, KV),
    layer("repkv.write_growth", "ratio", IPS, KV),
    exact("repkv.elections", "count", IPS, KV),
    // Client-visible host latency per KvClient call.
    layer("kv.write_p50_us", "us", IPS, KV),
    layer("kv.write_p99_us", "us", IPS, KV),
    layer("kv.read_p50_us", "us", IPS, KV),
    layer("kv.read_p99_us", "us", IPS, KV),
    // workload: the model's behaviour under the fault, in virtual time. A
    // perf change must leave every one unchanged.
    exact("workload.issued", "count", IPS, KV),
    exact("workload.ok", "count", IPS, KV),
    exact("workload.fail", "count", IPS, KV),
    exact("workload.timeout", "count", IPS, KV),
    exact("workload.behind", "count", IPS, KV),
    exact("workload.max_lag_ms", "sim_ms", IPS, KV),
    exact("workload.sim_p50_ms", "sim_ms", IPS, KV),
    exact("workload.sim_p99_ms", "sim_ms", IPS, KV),
    exact("workload.unavailable_ms", "sim_ms", IPS, KV),
    // The host: raw set-up time and rate, and the reference rate that
    // setup_s and items_per_kref divide out of them.
    layer("host.setup_s", "s", "setup_s", ALL),
    layer("host.items_per_s", "1/s", IPS, ALL),
    layer("host.kref_per_s", "1/s", IPS, ALL),
    // The benchmark itself.
    layer("trace.overhead_share", "share", IPS, ALL),
    layer("failed_share", "share", IPS, ALL),
    // Self time per round of each span the benchmark records.
    layer("self_ms.campaign.registry", "ms", "setup_s", CS),
    layer("self_ms.campaign.run_arm", "ms", IPS, CS),
    layer("self_ms.audit.double_run", "ms", IPS, AF),
    layer("self_ms.explore.explore_full", "ms", IPS, EC),
    layer("self_ms.explore.reset", "ms", IPS, EC),
    layer("self_ms.explore.schedule", "ms", IPS, EC),
    layer("self_ms.explore.check", "ms", IPS, EC),
    layer("self_ms.explore.timeline", "ms", IPS, EC),
    layer("self_ms.explore.minimize", "ms", IPS, EC),
    layer("self_ms.repkv.build", "ms", "setup_s", KV),
    layer("self_ms.repkv.wait_for_leader", "ms", "setup_s", KV),
    layer("self_ms.repkv.write", "ms", IPS, KV),
    layer("self_ms.repkv.read", "ms", IPS, KV),
    layer("self_ms.repkv.final_state", "ms", IPS, KV),
    layer("self_ms.engine.sleep", "ms", IPS, KV),
    layer("self_ms.engine.fault", "ms", IPS, KV),
    layer("self_ms.workload.driver", "ms", IPS, KV),
    layer("self_ms.checkers.register", "ms", IPS, KV),
];
