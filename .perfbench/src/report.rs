//! Result assembly: metric tables, the final JSON line, and the small
//! statistics and host probes every workload shares.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::layers::{Metric, END_TO_END, PER_LAYER};

/// One run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Metric values in table order. Every name of the table is present; a
/// per-layer metric whose layer does not run in the workload stays 0.
pub struct Metrics {
    table: &'static [Metric],
    values: Vec<f64>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self::of(END_TO_END)
    }

    pub fn per_layer() -> Self {
        Self::of(PER_LAYER)
    }

    fn of(table: &'static [Metric]) -> Self {
        Self {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Sets `name`, which must be in the table. A value that is not finite
    /// (a ratio over an empty denominator) is recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// Human-readable table: value, unit, and for per-layer metrics the
    /// end-to-end metric and workload each should move.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (m, v) in self.table.iter().zip(&self.values) {
            let _ = write!(out, "{:<44} {:>16} {:<6}", m.name, fmt_num(*v), m.unit);
            if !m.moves.is_empty() {
                let _ = write!(out, " -> {} on {}", m.moves, m.workload);
            }
            if m.exact {
                out.push_str(" [exact]");
            }
            out.push('\n');
        }
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Outcome {
    /// The last line of standard output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        let m = &self.metrics;
        for (i, (metric, v)) in m.table.iter().zip(&m.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                fmt_num(*v),
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the benchmark uses for sharded work: the core count.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc=<n> cpu="<model>"`, printed beside the traced metrics.
pub fn machine() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    format!("nproc={} cpu=\"{model}\"", cores())
}

/// FNV-1a hash of the `{:?}` rendering of a workload's exact outputs.
pub fn digest<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    neat::audit::stream_hash(value)
}

/// Repeats `round` until `seconds` have passed and at least `min_rounds`
/// ran, returning each round's result.
pub fn rounds<R>(seconds: u64, min_rounds: usize, mut round: impl FnMut() -> R) -> Vec<R> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut out = Vec::new();
    while out.len() < min_rounds || start.elapsed() < budget {
        out.push(round());
    }
    out
}

/// Runs a workload's set-up `reps` times and keeps the last result: returns
/// it with the mean host seconds of one set-up. A single set-up takes
/// microseconds here, too little to time on its own.
pub fn set_up<S>(reps: usize, mut f: impl FnMut() -> S) -> (S, f64) {
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let built = f();
        total += start.elapsed().as_secs_f64();
        last = Some(built);
    }
    (
        last.expect("at least one set-up"),
        total / reps.max(1) as f64,
    )
}

/// One repetition of a workload: its set-up, its timed work, and the
/// digest of its exact outputs.
pub struct Round {
    pub setup_s: f64,
    pub work_s: f64,
    pub items: u64,
    pub failed: u64,
    pub digest: u64,
}

/// Reference events timed after each untraced round.
const REF_EVENTS: usize = 80_000;

/// Host seconds of one reference run on the nominal host, which runs one
/// reference event per microsecond. `setup_s` is scaled to this host.
const NOMINAL_REF_S: f64 = REF_EVENTS as f64 * 1e-6;

/// Host seconds of one run of the reference simulation.
fn time_reference() -> f64 {
    let start = Instant::now();
    std::hint::black_box(crate::calibrate::reference(REF_EVENTS));
    start.elapsed().as_secs_f64()
}

/// Runs `round` for the configured seconds and returns the untraced result,
/// with every round's digest equal (and equal to the recorded one at the
/// default seed).
///
/// The host is shared, and its speed drifts by a fifth and more over
/// minutes. So after each round the run times the benchmark's own reference
/// simulation (`calibrate.rs`), and measures the round's times against it.
/// Throughput is items per thousand reference events, and set-up time is
/// scaled to the nominal host; each is the median over rounds. Peak memory
/// is read before the first reference run, so it is the workload's alone.
pub fn measure(cfg: &crate::Config, key: &str, mut round: impl FnMut() -> Round) -> Outcome {
    let mut ref_s = Vec::new();
    let mut peak_mb = None;
    let rounds = rounds(cfg.seconds, 3, || {
        let r = round();
        peak_mb.get_or_insert_with(peak_rss_mb);
        ref_s.push(time_reference());
        r
    });
    let kref_rates: Vec<f64> = rounds
        .iter()
        .zip(&ref_s)
        .map(|(r, s)| r.items as f64 * s / r.work_s / (REF_EVENTS as f64 / 1e3))
        .collect();
    let setup: Vec<f64> = rounds
        .iter()
        .zip(&ref_s)
        .map(|(r, s)| r.setup_s * NOMINAL_REF_S / s)
        .collect();
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", median(&setup));
    metrics.set("items_per_kref", median(&kref_rates));
    metrics.set("peak_rss_mb", peak_mb.unwrap_or(0.0));
    let (attempted, failed) = tally(&rounds);
    Outcome {
        correct: same_digest(&rounds) && crate::matches_recorded(cfg, key, rounds[0].digest),
        attempted,
        failed,
        metrics,
    }
}

/// Sets the raw host figures: `host.setup_s` and `host.items_per_s`, the
/// median set-up time and rate of `rounds` whose untraced runs took
/// `work_s` each, and `host.kref_per_s`, the host's rate on the reference
/// simulation.
pub fn host(m: &mut Metrics, rounds: &[Round], work_s: &[f64]) {
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    m.set("host.setup_s", median(&setup));
    m.set("host.items_per_s", rounds[0].items as f64 / median(work_s));
    let ref_s: Vec<f64> = (0..5).map(|_| time_reference()).collect();
    m.set("host.kref_per_s", REF_EVENTS as f64 / 1e3 / median(&ref_s));
}

/// Items and failures of the run. Every round repeats the same items, and
/// the digest check holds them to the same outputs, so a run attempts one
/// round's items and a failure repeated in every round counts once. The
/// counts then depend on the seed alone, not on how many rounds fit in the
/// run.
pub fn tally(rounds: &[Round]) -> (u64, u64) {
    rounds.first().map_or((0, 0), |r| (r.items, r.failed))
}

/// Whether every round produced the same outputs.
pub fn same_digest(rounds: &[Round]) -> bool {
    rounds.windows(2).all(|w| w[0].digest == w[1].digest)
}

/// Sets `self_ms.<span>` for every recorded span, as self time per round.
pub fn self_times(
    m: &mut Metrics,
    spans: &std::collections::BTreeMap<&'static str, crate::span::Agg>,
    rounds: usize,
) {
    for (name, agg) in spans {
        m.set(
            &format!("self_ms.{name}"),
            agg.self_ns as f64 / 1e6 / rounds.max(1) as f64,
        );
    }
}
