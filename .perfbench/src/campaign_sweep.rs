//! `campaign_sweep`: every registry arm in `RunMode::Quick` over a range of
//! seeds, sharded by `fleet::campaign::sweep` over one worker per core. The
//! Table 11 multi-seed detection sweep: set-up, fleet, the models and the
//! engine do the work; recording and fingerprinting do none.

use std::collections::BTreeMap;
use std::time::Instant;

use neat_repro::campaign::{self, RunMode, ScenarioResult, SweepReport};

use crate::layers::CRATES;
use crate::report::{self, digest, median, Metrics, Outcome, Round};
use crate::span::{self, span};
use crate::Config;

/// The swept seeds: a contiguous range starting at the workload seed.
fn seeds(cfg: &Config) -> Vec<u64> {
    let n = if cfg.tiny { 2 } else { 32 };
    (0..n).map(|i| cfg.seed.wrapping_add(i)).collect()
}

/// Fixed arms that reported a violation: each is a failed item.
fn fixed_failures(report: &SweepReport) -> u64 {
    report
        .scenarios
        .iter()
        .map(|s| s.fixed_clean.iter().filter(|&&clean| !clean).count() as u64)
        .sum()
}

/// The crate that owns a scenario, from the system it models.
fn crate_of(name: &str, system: &str) -> Option<&'static str> {
    Some(match system {
        // The one Redis scenario modelled on the coordination service.
        "Redis" if name == "sync_interrupted_corruption" => "coord",
        "VoltDB" | "Elasticsearch" | "Redis" | "Aerospike" | "MongoDB" | "RepKV" => "repkv",
        "RethinkDB" | "Raft" => "consensus",
        "ZooKeeper" => "coord",
        "ActiveMQ" | "RabbitMQ" | "Kafka" => "mqueue",
        "Ignite" | "Hazelcast" | "Terracotta" => "gridstore",
        "MapReduce" | "DKron" => "sched",
        "HDFS" | "MooseFS" | "HBase" | "Ceph" => "dfs",
        _ => return None,
    })
}

/// Set-ups timed together per round (see [`report::set_up`]).
pub const SETUP_REPS: usize = 64;

fn sweep_round(seeds: &[u64], jobs: usize) -> (Round, SweepReport, fleet::pool::GridStats) {
    let (arms, setup_s) =
        report::set_up(SETUP_REPS, || span("campaign.registry", campaign::arm_ids));
    let start = Instant::now();
    let (report, stats) = fleet::campaign::sweep_grid(seeds, jobs);
    let round = Round {
        setup_s,
        work_s: start.elapsed().as_secs_f64(),
        items: (arms.len() * seeds.len()) as u64,
        failed: fixed_failures(&report),
        digest: digest(&report),
    };
    (round, report, stats)
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return traced(cfg);
    }
    let seeds = seeds(cfg);
    let jobs = report::cores();
    report::measure(cfg, "campaign_sweep", || sweep_round(&seeds, jobs).0)
}

/// The same sweep driven through `fleet::pool::grid` with the benchmark's
/// own closure over `run_scenario_at`, timing each item on its worker.
/// Returns the per-seed runs, the grid's wall time and the share of worker
/// time not spent in items.
fn own_grid(seeds: &[u64], jobs: usize) -> (Vec<Vec<ScenarioResult>>, f64, f64) {
    let n = campaign::scenario_count();
    let start = Instant::now();
    let (items, stats) = fleet::pool::grid(
        jobs,
        n * seeds.len(),
        || (),
        |(), k| {
            let t = Instant::now();
            let result = campaign::run_scenario_at(k % n, seeds[k / n]);
            (result, t.elapsed().as_secs_f64())
        },
    );
    let wall = start.elapsed().as_secs_f64();
    let busy: f64 = items.iter().map(|(_, s)| s).sum();
    let mut runs: Vec<Vec<ScenarioResult>> = vec![Vec::with_capacity(n); seeds.len()];
    for (k, (result, _)) in items.into_iter().enumerate() {
        runs[k / n].push(result);
    }
    (runs, wall, 1.0 - busy / (stats.workers as f64 * wall))
}

fn traced(cfg: &Config) -> Outcome {
    let seeds = seeds(cfg);
    let jobs = report::cores();
    let mut m = Metrics::per_layer();
    span::enable(true);

    let registry_us: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(campaign::registry().len());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("campaign.registry_build_us", median(&registry_us));

    // Untraced sweeps alternate with sweeps through the timed grid.
    let mut plain = Vec::new();
    let mut timed = Vec::new();
    let mut idle = Vec::new();
    let mut steals = Vec::new();
    let mut kinds_digests = Vec::new();
    let mut agree = true;
    let mut last = None;
    let rounds = report::rounds(cfg.seconds, 2, || {
        let (round, report, stats) = sweep_round(&seeds, jobs);
        plain.push(round.work_s);
        steals.push(stats.steals as f64);
        m.set("fleet.batches", stats.batches as f64);
        let (runs, wall, idle_share) = own_grid(&seeds, jobs);
        timed.push(wall);
        idle.push(idle_share);
        kinds_digests.push(digest(&runs));
        agree &= digest(&SweepReport::from_runs(seeds.clone(), &runs)) == round.digest;
        last = Some(report);
        round
    });
    let sweep = last.expect("at least one round ran");
    report::self_times(&mut m, &span::take(), rounds.len());
    m.set("fleet.steals", median(&steals));
    m.set("fleet.idle_share", median(&idle));
    m.set("fleet.nproc", jobs as f64);
    m.set(
        "trace.overhead_share",
        median(&timed) / median(&plain) - 1.0,
    );
    report::host(&mut m, &rounds, &plain);

    let serial: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(fleet::campaign::sweep_grid(&seeds, 1));
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.set("fleet.speedup", median(&serial) / median(&plain));

    let hits: usize = sweep.scenarios.iter().map(|s| s.hits()).sum();
    m.set(
        "campaign.detection_rate",
        hits as f64 / (sweep.scenarios.len() * seeds.len()) as f64,
    );

    // Serial per-arm profile over the same seeds: Quick self time per
    // owning crate, the heaviest arm, and the simulator's counters.
    let specs = campaign::registry();
    let arms = campaign::arm_ids();
    let mut per_arm = vec![0u64; arms.len()];
    let mut per_crate: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut events, mut dropped) = (0u64, 0u64);
    let mut mapped = true;
    for &seed in &seeds {
        for (i, arm) in arms.iter().enumerate() {
            let t = Instant::now();
            let run = span("campaign.run_arm", || {
                campaign::run_arm(arm, seed, RunMode::Quick)
            });
            let ns = t.elapsed().as_nanos() as u64;
            per_arm[i] += ns;
            let spec = &specs[arm.scenario];
            match crate_of(spec.name, spec.system) {
                Some(owner) => *per_crate.entry(owner).or_default() += ns,
                None => mapped = false,
            }
            events += run.timeline.counters.events_simulated;
            dropped += run.timeline.counters.messages_dropped;
        }
    }
    let total: u64 = per_arm.iter().sum();
    for owner in CRATES {
        let ns = per_crate.get(owner).copied().unwrap_or(0);
        m.set(
            &format!("campaign.arm_ms.{owner}"),
            ns as f64 / 1e6 / seeds.len() as f64,
        );
    }
    m.set(
        "campaign.heaviest_arm_share",
        per_arm.iter().copied().max().unwrap_or(0) as f64 / total as f64,
    );
    m.set("simnet.events", events as f64);
    m.set("simnet.messages_dropped", dropped as f64);
    m.set("simnet.events_per_s", events as f64 / (total as f64 / 1e9));
    crate::micro::ceiling(&mut m, cfg.tiny);

    report::self_times(&mut m, &span::take(), 1);
    span::enable(false);
    let (attempted, failed) = report::tally(&rounds);
    m.set("failed_share", failed as f64 / attempted as f64);
    let kinds_agree = kinds_digests.windows(2).all(|w| w[0] == w[1]);
    Outcome {
        correct: agree
            && mapped
            && kinds_agree
            && report::same_digest(&rounds)
            && crate::matches_recorded(cfg, "campaign_sweep", rounds[0].digest)
            && crate::matches_recorded(cfg, "campaign_sweep.kinds", kinds_digests[0]),
        attempted,
        failed,
        metrics: m,
    }
}
