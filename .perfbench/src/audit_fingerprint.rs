//! `audit_fingerprint`: every registry arm run twice in `RunMode::Hash`
//! through `neat::audit::audit_double_run` over `campaign::run_arm`, on one
//! job, for a few seeds. The `lint --audit` path: recording, trace
//! rendering and the streamed hash dominate and the fleet does nothing.

use std::time::Instant;

use alloc_counter::count_allocations;
use neat::audit::audit_double_run;
use neat_repro::campaign::{self, ArmId, RunMode};

use crate::report::{self, digest, median, Metrics, Outcome, Round};
use crate::span::{self, span};
use crate::Config;

fn seeds(cfg: &Config) -> Vec<u64> {
    let n = if cfg.tiny { 1 } else { 6 };
    (0..n).map(|i| cfg.seed.wrapping_add(i)).collect()
}

/// Each audited arm's name with its hash or its divergence.
type Audited = Vec<(String, Result<u64, String>)>;

/// Audits every arm at every seed. Returns the outcomes and the simulator
/// counters summed over every run.
fn audit_all(arms: &[ArmId], seeds: &[u64]) -> (Audited, u64, u64) {
    let (mut events, mut dropped) = (0u64, 0u64);
    let mut out = Vec::with_capacity(arms.len() * seeds.len());
    for &seed in seeds {
        for arm in arms {
            let result = span("audit.double_run", || {
                audit_double_run(
                    &arm.name,
                    seed,
                    |s| {
                        let run = span("campaign.run_arm", || {
                            campaign::run_arm(arm, s, RunMode::Hash)
                        });
                        events += run.timeline.counters.events_simulated;
                        dropped += run.timeline.counters.messages_dropped;
                        run.fingerprint.hash().expect("Hash mode yields a hash")
                    },
                    |s| {
                        campaign::run_arm(arm, s, RunMode::Render)
                            .fingerprint
                            .into_rendered()
                            .expect("Render mode yields a rendering")
                    },
                )
            });
            out.push((arm.name.clone(), result.map_err(|d| d.to_string())));
        }
    }
    (out, events, dropped)
}

fn round(seeds: &[u64]) -> (Round, u64, u64) {
    let (arms, setup_s) = report::set_up(crate::campaign_sweep::SETUP_REPS, || {
        span("campaign.registry", campaign::arm_ids)
    });
    let start = Instant::now();
    let (outcomes, events, dropped) = audit_all(&arms, seeds);
    let round = Round {
        setup_s,
        work_s: start.elapsed().as_secs_f64(),
        items: outcomes.len() as u64,
        failed: outcomes.iter().filter(|(_, r)| r.is_err()).count() as u64,
        digest: digest(&outcomes),
    };
    (round, events, dropped)
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return traced(cfg);
    }
    let seeds = seeds(cfg);
    report::measure(cfg, "audit_fingerprint", || round(&seeds).0)
}

/// One arm in one mode: host ms (median of `reps`), the first run's
/// allocations, its timeline length and its rendered fingerprint length.
fn profile(arm: &ArmId, seed: u64, mode: RunMode, reps: usize) -> (f64, u64, usize, usize) {
    let (run, allocs) = count_allocations(|| campaign::run_arm(arm, seed, mode));
    let events = run.timeline.events.len();
    let bytes = run.fingerprint.into_rendered().map_or(0, |s| s.len());
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(campaign::run_arm(arm, seed, mode));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(&ms), allocs, events, bytes)
}

fn traced(cfg: &Config) -> Outcome {
    let seeds = seeds(cfg);
    let mut m = Metrics::per_layer();

    // Untraced rounds alternate with traced ones.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut agree = true;
    let mut counters = (0, 0);
    let rounds = report::rounds(cfg.seconds, 2, || {
        let (untraced, _, _) = round(&seeds);
        span::enable(true);
        let (r, events, dropped) = round(&seeds);
        span::enable(false);
        plain.push(untraced.work_s);
        traced.push(r.work_s);
        agree &= untraced.digest == r.digest;
        counters = (events, dropped);
        r
    });
    let spans = span::take();
    report::self_times(&mut m, &spans, rounds.len());
    m.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
    report::host(&mut m, &rounds, &plain);
    let (events, dropped) = counters;
    m.set("simnet.events", events as f64);
    m.set("simnet.messages_dropped", dropped as f64);
    let run_arm_s = spans
        .get("campaign.run_arm")
        .map_or(0.0, |a| a.total_ns as f64 / 1e9);
    m.set(
        "simnet.events_per_s",
        events as f64 * rounds.len() as f64 / run_arm_s,
    );

    // Each arm once per mode at the first seed: what recording (Trace
    // minus Quick) and the streamed hash (Hash minus Trace) cost per arm.
    let arms = campaign::arm_ids();
    let reps = if cfg.tiny { 1 } else { 3 };
    let (mut ms, mut allocs) = ([0.0f64; 4], [0u64; 4]);
    let (mut timeline_events, mut bytes, mut alloc_delta) = (0usize, 0usize, 0u64);
    for arm in &arms {
        let modes = [
            RunMode::Quick,
            RunMode::Trace,
            RunMode::Hash,
            RunMode::Render,
        ];
        let runs: Vec<_> = modes
            .iter()
            .map(|&mode| profile(arm, seeds[0], mode, reps))
            .collect();
        for (i, r) in runs.iter().enumerate() {
            ms[i] += r.0;
            allocs[i] += r.1;
        }
        timeline_events += runs[1].2;
        bytes += runs[3].3;
        alloc_delta += runs[2].1.abs_diff(runs[1].1);
    }
    let n = arms.len() as f64;
    m.set("obs.record_ms_per_arm", (ms[1] - ms[0]) / n);
    m.set("obs.timeline_events", timeline_events as f64);
    m.set(
        "obs.allocs_per_arm",
        (allocs[1] as f64 - allocs[0] as f64) / n,
    );
    m.set("audit.hash_ms_per_arm", (ms[2] - ms[1]) / n);
    m.set("audit.fingerprint_bytes", bytes as f64);
    m.set("audit.alloc_delta", alloc_delta as f64);
    crate::micro::ceiling(&mut m, cfg.tiny);

    let (attempted, failed) = report::tally(&rounds);
    m.set("failed_share", failed as f64 / attempted as f64);
    Outcome {
        correct: agree
            && alloc_counter::is_counting()
            && report::same_digest(&rounds)
            && crate::matches_recorded(cfg, "audit_fingerprint", rounds[0].digest),
        attempted,
        failed,
        metrics: m,
    }
}
