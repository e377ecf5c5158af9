//! `explore_coverage`: `Strategy::coverage_guided(4)` for a fixed trial
//! budget on each of the four explorer targets, then `minimize_for_kind` on
//! each target's first find. Thousands of short trials that each rebuild a
//! cluster, so per-trial reset and explorer bookkeeping dominate; the only
//! workload where `neat::explore` and ddmin run.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use neat::explore::minimize::minimize_for_kind;
use neat::explore::{explore_full, Exploration, SchedulePlan, Strategy, TestTarget};

use crate::layers::TARGETS;
use crate::report::{self, digest, median, Metrics, Outcome, Round};
use crate::span::{self, span, Agg};
use crate::timed_target::Timed;
use crate::{derive, Config};

fn targets() -> Vec<Box<dyn TestTarget>> {
    vec![
        Box::new(consensus::RaftTarget::new(
            consensus::RaftTweaks::default(),
            3,
        )),
        Box::new(repkv::RepkvTarget::new(repkv::Config::voltdb())),
        Box::new(gridstore::GridTarget::new(gridstore::GridFlaws::flawed())),
        Box::new(mqueue::explorer::MqTarget::new(
            mqueue::BrokerFlaws::flawed(),
        )),
    ]
}

fn trials(cfg: &Config) -> usize {
    if cfg.tiny {
        6
    } else {
        150
    }
}

/// One target's exact outputs: the exploration and its minimized first find.
type Found = (Exploration, Option<SchedulePlan>);

/// Builds the targets and resets each once at its exploration seed, so the
/// first timed trial does not pay for a cold cluster build.
fn setup(cfg: &Config) -> (Vec<Box<dyn TestTarget>>, f64) {
    report::set_up(8, || {
        let mut ts = targets();
        for (i, t) in ts.iter_mut().enumerate() {
            t.reset(derive(cfg.seed, i as u64), true);
        }
        ts
    })
}

fn explore_one(target: &mut dyn TestTarget, trials: usize, seed: u64) -> Exploration {
    span("explore.explore_full", || {
        explore_full(target, &Strategy::coverage_guided(4), trials, seed)
    })
}

fn minimize_first(target: &mut dyn TestTarget, ex: &Exploration) -> Option<SchedulePlan> {
    let find = ex.finds.first()?;
    span("explore.minimize", || {
        minimize_for_kind(target, &find.plan, find.trial_seed, find.kinds[0])
    })
}

/// A find whose minimization returns nothing did not replay: a failure.
fn failed(found: &[Found]) -> u64 {
    found
        .iter()
        .filter(|(ex, min)| !ex.finds.is_empty() && min.is_none())
        .count() as u64
}

fn round(cfg: &Config) -> (Round, Vec<Found>) {
    let (mut ts, setup_s) = setup(cfg);
    let start = Instant::now();
    let found: Vec<Found> = ts
        .iter_mut()
        .enumerate()
        .map(|(i, t)| {
            let ex = explore_one(t.as_mut(), trials(cfg), derive(cfg.seed, i as u64));
            let min = minimize_first(t.as_mut(), &ex);
            (ex, min)
        })
        .collect();
    let round = Round {
        setup_s,
        work_s: start.elapsed().as_secs_f64(),
        items: (trials(cfg) * ts.len()) as u64,
        failed: failed(&found),
        digest: digest(&found),
    };
    (round, found)
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return traced(cfg);
    }
    report::measure(cfg, "explore_coverage", || round(cfg).0)
}

/// What one traced round measured, beyond its [`Round`].
#[derive(Default)]
struct Probe {
    explore: BTreeMap<&'static str, Agg>,
    all: BTreeMap<&'static str, Agg>,
    reset_ms: Vec<f64>,
    replays: u64,
    minimize_s: f64,
    events: u64,
    dropped: u64,
}

/// The round again, with every target behind the timing wrapper and the
/// explore and minimize phases' spans kept apart.
fn traced_round(cfg: &Config, probe: &mut Probe) -> (Round, Vec<Found>) {
    let (mut ts, setup_s) = setup(cfg);
    let start = Instant::now();
    let mut found = Vec::new();
    for (i, t) in ts.iter_mut().enumerate() {
        let mut timed = Timed::new(t.as_mut());
        let ex = explore_one(&mut timed, trials(cfg), derive(cfg.seed, i as u64));
        probe
            .reset_ms
            .push(timed.reset_ns as f64 / 1e6 / timed.resets as f64);
        probe.events += timed.events;
        probe.dropped += timed.dropped;
        let spans = span::take();
        span::merge(&mut probe.explore, spans.clone());
        span::merge(&mut probe.all, spans);

        let before = timed.resets;
        let t0 = Instant::now();
        let min = minimize_first(&mut timed, &ex);
        probe.minimize_s += t0.elapsed().as_secs_f64();
        probe.replays += timed.resets - before;
        span::merge(&mut probe.all, span::take());
        found.push((ex, min));
    }
    let round = Round {
        setup_s,
        work_s: start.elapsed().as_secs_f64(),
        items: (trials(cfg) * ts.len()) as u64,
        failed: failed(&found),
        digest: digest(&found),
    };
    (round, found)
}

fn traced(cfg: &Config) -> Outcome {
    let mut m = Metrics::per_layer();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut agree = true;
    let mut probes = Vec::new();
    let mut outputs = None;
    let rounds = report::rounds(cfg.seconds, 2, || {
        let (untraced, _) = round(cfg);
        span::enable(true);
        let mut probe = Probe::default();
        let (r, found) = traced_round(cfg, &mut probe);
        span::enable(false);
        plain.push(untraced.work_s);
        traced.push(r.work_s);
        agree &= untraced.digest == r.digest;
        probes.push(probe);
        outputs = Some(found);
        r
    });
    m.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
    report::host(&mut m, &rounds, &plain);

    let mut explore = BTreeMap::new();
    let mut all = BTreeMap::new();
    for p in &probes {
        span::merge(&mut explore, p.explore.clone());
        span::merge(&mut all, p.all.clone());
    }
    report::self_times(&mut m, &all, rounds.len());
    let whole = explore
        .get("explore.explore_full")
        .copied()
        .unwrap_or_default();
    let share =
        |name: &str| explore.get(name).map_or(0, |a| a.total_ns) as f64 / whole.total_ns as f64;
    m.set("explore.reset_share", share("explore.reset"));
    m.set("explore.schedule_share", share("explore.schedule"));
    m.set("explore.check_share", share("explore.check"));
    m.set("explore.timeline_share", share("explore.timeline"));
    m.set(
        "explore.self_share",
        whole.self_ns as f64 / whole.total_ns as f64,
    );
    for (i, name) in TARGETS.iter().enumerate() {
        let ms: Vec<f64> = probes.iter().map(|p| p.reset_ms[i]).collect();
        m.set(&format!("explore.reset_ms.{name}"), median(&ms));
    }
    let minimize: Vec<f64> = probes.iter().map(|p| p.minimize_s).collect();
    m.set("explore.minimize_s", median(&minimize));
    let first = &probes[0];
    m.set("explore.minimize_replays", first.replays as f64);
    m.set("simnet.events", first.events as f64);
    m.set("simnet.messages_dropped", first.dropped as f64);
    m.set(
        "simnet.events_per_s",
        first.events as f64 * rounds.len() as f64 / (whole.total_ns as f64 / 1e9),
    );

    let found = outputs.expect("at least one round ran");
    let mut kinds = BTreeSet::new();
    let (mut with_violation, mut signatures, mut corpus, mut steps) = (0, 0, 0, 0);
    for (i, (ex, min)) in found.iter().enumerate() {
        with_violation += ex.report.trials_with_violation;
        signatures += ex.report.signatures.len();
        corpus += ex.corpus.len();
        kinds.extend(ex.report.kinds.keys().copied());
        steps += min.as_ref().map_or(0, |p| p.steps.len());
        m.set(
            &format!("explore.first_find_trial.{}", TARGETS[i]),
            ex.report.first_violation_trial.unwrap_or(0) as f64,
        );
    }
    m.set("explore.trials_with_violation", with_violation as f64);
    m.set("explore.distinct_kinds", kinds.len() as f64);
    m.set("explore.signatures", signatures as f64);
    m.set("explore.corpus_len", corpus as f64);
    m.set("explore.minimal_steps", steps as f64);
    crate::micro::ceiling(&mut m, cfg.tiny);

    let (attempted, failed) = report::tally(&rounds);
    m.set("failed_share", failed as f64 / attempted as f64);
    Outcome {
        correct: agree
            && report::same_digest(&rounds)
            && crate::matches_recorded(cfg, "explore_coverage", rounds[0].digest),
        attempted,
        failed,
        metrics: m,
    }
}
