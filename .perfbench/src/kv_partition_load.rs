//! `kv_partition_load`: one `repkv` cluster with `Config::fixed()` under an
//! open-loop Poisson stream of reads and writes over a Zipfian keyspace, at
//! a rate the healthy cluster keeps up with. A complete partition isolates
//! the leader for the middle third of the stream, then heals; afterwards
//! `check_register` runs over the whole history. The only workload where a
//! protocol model and a checker run at scale, and reads and writes share
//! one stream so a write-path change that costs reads shows up.

use std::time::Instant;

use neat::checkers::{check_register, RegisterSemantics};
use neat::{rest_of, Outcome as OpOutcome, ViolationKind};
use repkv::{Cluster, ClusterSpec, Config as KvConfig};
use simnet::NodeId;
use workload::{
    Arrival, Driver, Keyspace, LoadReport, Mix, OpKind, OpStatus, Pacing, WorkloadSpec,
};

use crate::report::{self, digest, mean, median, percentile, Metrics, Outcome, Round};
use crate::span::{self, span};
use crate::{derive, Config};

const KEYS: usize = 32;
/// Arrivals per second of virtual time.
const RATE: f64 = 50.0;
/// Longest a client waits for a leader before sending, ms.
const ELECTION_WAIT_MS: u64 = 10_000;

/// Independent clusters per round, each with its own derived seeds. The op
/// mix is drawn per stream and a write costs more the longer the log, so
/// one stream's work swings with its seed; six streams average that out.
const STREAMS: u64 = 6;

/// Sends of one client op before the client reports its last outcome.
const ATTEMPTS: usize = 3;

fn ops(cfg: &Config) -> u64 {
    if cfg.tiny {
        60
    } else {
        800
    }
}

/// The exact outputs of one stream, plus host timings (traced run only).
#[derive(Default)]
struct Stream {
    report: LoadReport,
    violations: Vec<ViolationKind>,
    history_ops: usize,
    elections: u64,
    unavailable_ms: u64,
    counters: neat::obs::Counters,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    register_ms: f64,
}

impl Stream {
    fn digest(&self) -> u64 {
        digest(&(
            &self.report,
            &self.violations,
            self.history_ops,
            self.elections,
            self.unavailable_ms,
            &self.counters,
        ))
    }
}

fn status_of(o: &OpOutcome) -> OpStatus {
    match o {
        OpOutcome::Ok(_) | OpOutcome::OkMany(_) => OpStatus::Ok,
        OpOutcome::Fail => OpStatus::Fail,
        OpOutcome::Timeout => OpStatus::Timeout,
    }
}

/// Runs `f` in a span and, when tracing, records its host µs.
fn call<T>(name: &'static str, samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    if !span::enabled() {
        return f();
    }
    let start = Instant::now();
    let out = span(name, f);
    samples.push(start.elapsed().as_secs_f64() * 1e6);
    out
}

fn sleep(cluster: &mut Cluster, ms: u64) {
    span("engine.sleep", || cluster.neat.sleep(ms));
}

/// The client follows the leader: while the cluster has none, or only the
/// `deposed` one cut off by the partition, it waits before sending. It
/// gives up after [`ELECTION_WAIT_MS`], and the op then goes to the last
/// known leader.
fn follow_leader(cluster: &mut Cluster, deposed: Option<NodeId>) -> Option<NodeId> {
    let deadline = cluster.neat.now() + ELECTION_WAIT_MS;
    loop {
        match cluster.leader() {
            Some(l) if Some(l) != deposed => return Some(l),
            _ if cluster.neat.now() >= deadline => return None,
            _ => sleep(cluster, 10),
        }
    }
}

fn setup(cfg: &Config, k: u64) -> (Cluster, f64) {
    report::set_up(16, || {
        let mut cluster = span("repkv.build", || {
            Cluster::build(ClusterSpec::three_by_two(
                KvConfig::fixed(),
                derive(cfg.seed, 2 * k),
            ))
        });
        span("repkv.wait_for_leader", || cluster.wait_for_leader(3000))
            .expect("a healthy cluster elects a leader");
        cluster
    })
}

fn stream(cfg: &Config, k: u64, cluster: &mut Cluster) -> Stream {
    let keys: Vec<String> = (0..KEYS).map(|k| format!("k{k}")).collect();
    let n = ops(cfg);
    let mut out = Stream::default();
    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Poisson { rate: RATE }),
            keyspace: Keyspace::Zipfian {
                keys: KEYS,
                theta: 0.99,
            },
            mix: Mix::read_write(1, 1),
            ops: n,
            batch: 0,
            start_at: cluster.neat.now(),
        },
        derive(cfg.seed, 2 * k + 1),
    );
    let mut target = cluster.leader().expect("set-up waited for a leader");
    let mut partition = None;
    let mut installed_at = None;
    let mut deposed = None;
    while let Some(op) = span("workload.driver", || driver.next_op()) {
        if op.seq == n / 3 {
            let old = target;
            let majority = rest_of(&cluster.neat.world.node_ids(), &[old]);
            partition = Some(span("engine.fault", || {
                cluster.neat.partition_complete(&[old], &majority)
            }));
            installed_at = Some(cluster.neat.now());
            deposed = Some(old);
        }
        if op.seq == 2 * n / 3 {
            if let Some(p) = partition.take() {
                span("engine.fault", || cluster.neat.heal(&p));
            }
            deposed = None;
        }
        let now = cluster.neat.now();
        if op.at > now {
            sleep(cluster, op.at - now);
        }
        let key = &keys[op.key];
        let start = cluster.neat.now();
        // A leader can step down with the op in flight; the client then
        // follows the leader and sends again. Reads and puts are idempotent.
        let mut outcome = OpOutcome::Timeout;
        for _ in 0..ATTEMPTS {
            target = follow_leader(cluster, deposed).unwrap_or(target);
            let client = cluster.client(0).via(target);
            outcome = match op.kind {
                OpKind::Read => call("repkv.read", &mut out.read_us, || {
                    client.read(&mut cluster.neat, key)
                }),
                _ => call("repkv.write", &mut out.write_us, || {
                    client.write(&mut cluster.neat, key, op.val)
                }),
            };
            if status_of(&outcome) == OpStatus::Ok {
                break;
            }
        }
        let end = cluster.neat.now();
        let status = status_of(&outcome);
        if let (Some(at), OpStatus::Ok, 0) = (installed_at, status, out.unavailable_ms) {
            out.unavailable_ms = end - at;
        }
        span("workload.driver", || {
            driver.complete(&op, start, end, status)
        });
    }
    if let Some(p) = partition.take() {
        span("engine.fault", || cluster.neat.heal(&p));
    }
    sleep(cluster, 1000);

    let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
    let final_state = span("repkv.final_state", || cluster.final_state(&key_refs));
    let start = Instant::now();
    let violations = span("checkers.register", || {
        check_register(
            cluster.neat.history(),
            RegisterSemantics::Strong,
            &final_state,
        )
    });
    out.register_ms = start.elapsed().as_secs_f64() * 1e3;
    out.violations = violations.iter().map(|v| v.kind).collect();
    out.history_ops = cluster.neat.history().len();
    out.elections = cluster.total_elections();
    out.counters = cluster.neat.timeline().counters;
    out.report = driver.into_report();
    out
}

fn round(cfg: &Config) -> (Round, Vec<Stream>) {
    let mut setups = Vec::new();
    let mut work_s = 0.0;
    let mut streams = Vec::new();
    for k in 0..STREAMS {
        let (mut cluster, setup_s) = setup(cfg, k);
        setups.push(setup_s);
        let start = Instant::now();
        streams.push(stream(cfg, k, &mut cluster));
        work_s += start.elapsed().as_secs_f64();
    }
    let round = Round {
        setup_s: mean(&setups),
        work_s,
        items: streams.iter().map(|s| s.report.issued).sum(),
        failed: streams
            .iter()
            .map(|s| s.report.failed + s.report.timed_out + s.violations.len() as u64)
            .sum(),
        digest: digest(&streams.iter().map(Stream::digest).collect::<Vec<_>>()),
    };
    (round, streams)
}

pub fn run(cfg: &Config, trace: bool) -> Outcome {
    if trace {
        return traced(cfg);
    }
    report::measure(cfg, "kv_partition_load", || round(cfg).0)
}

fn decile_means(xs: &[f64]) -> (f64, f64) {
    let d = (xs.len() / 10).max(1);
    (
        mean(&xs[..d.min(xs.len())]),
        mean(&xs[xs.len().saturating_sub(d)..]),
    )
}

fn traced(cfg: &Config) -> Outcome {
    let mut m = Metrics::per_layer();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut agree = true;
    let mut streams = Vec::new();
    let rounds = report::rounds(cfg.seconds, 2, || {
        let (untraced, _) = round(cfg);
        span::enable(true);
        let (r, s) = round(cfg);
        span::enable(false);
        plain.push(untraced.work_s);
        traced.push(r.work_s);
        agree &= untraced.digest == r.digest;
        streams.push(s);
        r
    });
    let spans = span::take();
    let per_round =
        |name: &str| spans.get(name).map_or(0, |a| a.total_ns) as f64 / rounds.len() as f64;
    report::self_times(&mut m, &spans, rounds.len());
    m.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
    );
    report::host(&mut m, &rounds, &plain);
    m.set("engine.sleep_s", per_round("engine.sleep") / 1e9);
    m.set("engine.fault_us", per_round("engine.fault") / 1e3);

    // The exact counters come from one round: every round is the same work.
    let first: Vec<Stream> = streams.swap_remove(0);
    let all: Vec<&Stream> = first.iter().chain(streams.iter().flatten()).collect();
    let writes: Vec<f64> = all
        .iter()
        .flat_map(|s| s.write_us.iter().copied())
        .collect();
    let reads: Vec<f64> = all.iter().flat_map(|s| s.read_us.iter().copied()).collect();
    m.set("kv.write_p50_us", percentile(&writes, 50.0));
    m.set("kv.write_p99_us", percentile(&writes, 99.0));
    m.set("kv.read_p50_us", percentile(&reads, 50.0));
    m.set("kv.read_p99_us", percentile(&reads, 99.0));
    let (firsts, lasts): (Vec<f64>, Vec<f64>) =
        all.iter().map(|s| decile_means(&s.write_us)).unzip();
    m.set("repkv.write_us.first_decile", median(&firsts));
    m.set("repkv.write_us.last_decile", median(&lasts));
    m.set("repkv.write_growth", median(&lasts) / median(&firsts));
    let register: Vec<f64> = std::iter::once(&first)
        .chain(&streams)
        .map(|round| round.iter().map(|s| s.register_ms).sum())
        .collect();
    m.set("checkers.register_ms", median(&register));

    let sum = |f: fn(&Stream) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let mut load = LoadReport::default();
    let mut counters = neat::obs::Counters::default();
    for s in &first {
        load.merge(&s.report);
        counters.merge(&s.counters);
    }
    m.set("repkv.elections", sum(|s| s.elections));
    m.set("checkers.history_ops", sum(|s| s.history_ops as u64));
    m.set("engine.ops_ordered", counters.ops_ordered as f64);
    m.set(
        "engine.events_per_op",
        counters.events_simulated as f64 / counters.ops_ordered as f64,
    );
    m.set("simnet.events", counters.events_simulated as f64);
    m.set("simnet.messages_dropped", counters.messages_dropped as f64);
    m.set(
        "simnet.events_per_s",
        counters.events_simulated as f64 / median(&traced),
    );
    m.set("workload.issued", load.issued as f64);
    m.set("workload.ok", load.ok as f64);
    m.set("workload.fail", load.failed as f64);
    m.set("workload.timeout", load.timed_out as f64);
    m.set("workload.behind", load.behind as f64);
    m.set("workload.max_lag_ms", load.max_lag as f64);
    m.set(
        "workload.sim_p50_ms",
        load.latency.p50().unwrap_or(0) as f64,
    );
    m.set(
        "workload.sim_p99_ms",
        load.latency.p99().unwrap_or(0) as f64,
    );
    let unavailable = first.iter().map(|s| s.unavailable_ms).max().unwrap_or(0);
    m.set("workload.unavailable_ms", unavailable as f64);
    crate::micro::ceiling(&mut m, cfg.tiny);

    let (attempted, failed) = report::tally(&rounds);
    m.set("failed_share", failed as f64 / attempted as f64);
    Outcome {
        correct: agree
            && report::same_digest(&rounds)
            && crate::matches_recorded(cfg, "kv_partition_load", rounds[0].digest),
        attempted,
        failed,
        metrics: m,
    }
}
