//! Property tests for the simulator substrate: determinism, FIFO links,
//! partition semantics and trace recording under arbitrary fault schedules.

use proptest::prelude::*;
use simnet::{
    net::bidirectional_pairs, Application, Ctx, DegradeRule, LinkConfig, NodeId, TimerId,
    WorldBuilder,
};

/// Records every delivery in order; replies to even payloads.
#[derive(Default)]
struct Recorder {
    seen: Vec<(NodeId, u64)>,
}

impl Application for Recorder {
    type Msg = u64;
    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.seen.push((from, msg));
        if msg.is_multiple_of(2) {
            ctx.send(from, msg + 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _t: TimerId, _tag: u64) {}
}

/// One abstract action of a random schedule.
#[derive(Clone, Debug)]
enum Act {
    Send { from: u8, to: u8, val: u64 },
    Partition { a: u8, b: u8 },
    /// Install a degrade rule between two nodes: `loss`/`dup` are quarters
    /// of a probability (0..=4 → 0.0..=1.0), `flap` a half-period in units
    /// of 50 ms (0 = always active).
    Degrade { a: u8, b: u8, loss: u8, dup: u8, extra: u8, flap: u8 },
    HealAll,
    Crash { node: u8 },
    Restart { node: u8 },
    Advance { ms: u16 },
}

fn act_strategy(n: u8) -> impl Strategy<Value = Act> {
    prop_oneof![
        (0..n, 0..n, 0..1000u64)
            .prop_map(|(from, to, val)| Act::Send { from, to, val }),
        (0..n, 0..n).prop_map(|(a, b)| Act::Partition { a, b }),
        (0..n, 0..n, 0..=4u8, 0..=4u8, 0..20u8, 0..4u8).prop_map(
            |(a, b, loss, dup, extra, flap)| Act::Degrade { a, b, loss, dup, extra, flap }
        ),
        Just(Act::HealAll),
        (0..n).prop_map(|node| Act::Crash { node }),
        (0..n).prop_map(|node| Act::Restart { node }),
        (1..200u16).prop_map(|ms| Act::Advance { ms }),
    ]
}

/// What one execution of a schedule produced.
struct Run {
    /// Every node's delivery log.
    logs: Vec<Vec<(NodeId, u64)>>,
    counters: simnet::trace::Counters,
    /// `Trace::summary()`; empty unless the run recorded.
    summary: String,
    /// Calls the schedule made to `block_pairs`, `unblock`, `degrade_pairs`
    /// and `undegrade`, in that order.
    rule_calls: [usize; 4],
}

/// Executes a schedule, returning a full fingerprint of the run.
fn run(seed: u64, acts: &[Act], n: usize, record: bool) -> Run {
    let mut w = WorldBuilder::new(seed)
        .record_trace(record)
        .build(n, |_| Recorder::default());
    let mut rules = Vec::new();
    let mut degrades = Vec::new();
    let mut rule_calls = [0; 4];
    for act in acts {
        match act {
            Act::Send { from, to, val } => {
                let to = NodeId(*to as usize % n);
                let _ = w.call(NodeId(*from as usize % n), |_, ctx| ctx.send(to, *val));
            }
            Act::Partition { a, b } => {
                let a = NodeId(*a as usize % n);
                let b = NodeId(*b as usize % n);
                if a != b {
                    rules.push(w.block_pairs(bidirectional_pairs(&[a], &[b])));
                    rule_calls[0] += 1;
                }
            }
            Act::Degrade { a, b, loss, dup, extra, flap } => {
                let a = NodeId(*a as usize % n);
                let b = NodeId(*b as usize % n);
                if a != b {
                    let rule = DegradeRule {
                        loss: f64::from(*loss) * 0.25,
                        dup_probability: f64::from(*dup) * 0.25,
                        extra_latency: u64::from(*extra),
                        jitter: u64::from(*extra) / 2,
                        flap_period: u64::from(*flap) * 50,
                    };
                    degrades.push(w.degrade_pairs(bidirectional_pairs(&[a], &[b]), rule));
                    rule_calls[2] += 1;
                }
            }
            Act::HealAll => {
                for r in rules.drain(..) {
                    w.unblock(r);
                    rule_calls[1] += 1;
                }
                for d in degrades.drain(..) {
                    w.undegrade(d);
                    rule_calls[3] += 1;
                }
            }
            Act::Crash { node } => {
                let _ = w.crash(NodeId(*node as usize % n));
            }
            Act::Restart { node } => {
                let _ = w.restart(NodeId(*node as usize % n));
            }
            Act::Advance { ms } => w.run_for(*ms as u64),
        }
    }
    w.run_for(1000);
    Run {
        logs: (0..n).map(|i| w.app(NodeId(i)).seen.clone()).collect(),
        counters: w.trace().counters,
        summary: w.trace().summary(),
        rule_calls,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same seed and schedule always produce the identical execution.
    #[test]
    fn determinism(seed in 0u64..1000, acts in proptest::collection::vec(act_strategy(4), 0..40)) {
        let a = run(seed, &acts, 4, false);
        let b = run(seed, &acts, 4, false);
        prop_assert_eq!(a.logs, b.logs);
        prop_assert_eq!(a.counters, b.counters);
    }

    /// Recording only observes: a recorded run delivers and counts exactly
    /// what an unrecorded one does, and its summary holds one line per rule
    /// call, crash and restart — no line for any message or timer.
    #[test]
    fn recording_only_observes(seed in 0u64..1000, acts in proptest::collection::vec(act_strategy(4), 0..40)) {
        let plain = run(seed, &acts, 4, false);
        let recorded = run(seed, &acts, 4, true);
        prop_assert_eq!(&recorded.logs, &plain.logs);
        prop_assert_eq!(recorded.counters, plain.counters);
        prop_assert!(plain.summary.is_empty());

        let lines: Vec<&str> = recorded.summary.lines().collect();
        let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
        let [blocks, unblocks, degrades, undegrades] = recorded.rule_calls;
        let c = recorded.counters;
        prop_assert_eq!(count(" net  install rule "), blocks);
        prop_assert_eq!(count(" net  heal rule "), unblocks);
        prop_assert_eq!(count(" net  degrade rule "), degrades);
        prop_assert_eq!(count(" net  restore rule "), undegrades);
        prop_assert_eq!(count("  CRASH"), c.crashes as usize);
        prop_assert_eq!(count("  RESTART"), c.restarts as usize);
        prop_assert_eq!(
            lines.len(),
            blocks + unblocks + degrades + undegrades + (c.crashes + c.restarts) as usize,
            "summary holds lines beyond rule calls, crashes and restarts:\n{}",
            recorded.summary
        );
    }

    /// FIFO links never reorder messages between a fixed pair.
    #[test]
    fn fifo_per_link(seed in 0u64..1000, vals in proptest::collection::vec(0u64..10_000, 1..50)) {
        let mut w = WorldBuilder::new(seed)
            .link(LinkConfig { base_latency: 1, jitter: 5, fifo: true, drop_probability: 0.0 })
            .build(2, |_| Recorder::default());
        // Tag messages with their sequence (odd values avoid replies).
        for (i, v) in vals.iter().enumerate() {
            let payload = (i as u64) * 20_000 + (v * 2 + 1);
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), payload)).unwrap();
            w.run_for(1);
        }
        w.run_for(100);
        let seen = &w.app(NodeId(1)).seen;
        prop_assert_eq!(seen.len(), vals.len());
        for pair in seen.windows(2) {
            prop_assert!(pair[0].1 / 20_000 < pair[1].1 / 20_000, "reordered: {:?}", seen);
        }
    }

    /// While a bidirectional rule is installed, nothing crosses it, and the
    /// counters account for every send.
    #[test]
    fn partitions_are_absolute(seed in 0u64..1000, vals in proptest::collection::vec(0u64..100, 1..20)) {
        let mut w = WorldBuilder::new(seed).build(2, |_| Recorder::default());
        w.block_pairs(bidirectional_pairs(&[NodeId(0)], &[NodeId(1)]));
        for v in &vals {
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), *v)).unwrap();
        }
        w.run_for(1000);
        prop_assert!(w.app(NodeId(1)).seen.is_empty());
        let c = w.trace().counters;
        prop_assert_eq!(c.sent, vals.len() as u64);
        prop_assert_eq!(c.dropped_partition, vals.len() as u64);
        prop_assert_eq!(c.delivered, 0);
    }

    /// Degrade install/heal cycles are deterministic per seed: the same
    /// degrade-heavy schedule replayed with the same seed produces the
    /// identical delivery logs and counters, loss/dup/jitter draws
    /// included.
    #[test]
    fn degrade_install_and_heal_are_deterministic(
        seed in 0u64..1000,
        acts in proptest::collection::vec(
            prop_oneof![
                (0..4u8, 0..4u8, 0..1000u64)
                    .prop_map(|(from, to, val)| Act::Send { from, to, val }),
                (0..4u8, 0..4u8, 0..=4u8, 0..=4u8, 0..20u8, 0..4u8).prop_map(
                    |(a, b, loss, dup, extra, flap)| Act::Degrade { a, b, loss, dup, extra, flap }
                ),
                Just(Act::HealAll),
                (1..200u16).prop_map(|ms| Act::Advance { ms }),
            ],
            0..40,
        ),
    ) {
        let a = run(seed, &acts, 4, false);
        let b = run(seed, &acts, 4, false);
        prop_assert_eq!(a.logs, b.logs);
        prop_assert_eq!(a.counters, b.counters);
    }

    /// A degrade rule with every knob at zero is byte-identical to no rule
    /// at all: zero-valued knobs consume no RNG draws, so the logs *and*
    /// every counter — including jitter-dependent delivery order — match.
    #[test]
    fn zero_knob_degrade_rule_equals_no_rule(
        seed in 0u64..1000,
        acts in proptest::collection::vec(
            prop_oneof![
                (0..4u8, 0..4u8, 0..1000u64)
                    .prop_map(|(from, to, val)| Act::Send { from, to, val }),
                (1..200u16).prop_map(|ms| Act::Advance { ms }),
            ],
            1..30,
        ),
    ) {
        let without = run(seed, &acts, 4, false);
        let mut w = WorldBuilder::new(seed).build(4, |_| Recorder::default());
        w.degrade_pairs(
            bidirectional_pairs(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]),
            DegradeRule::default(),
        );
        for act in &acts {
            match act {
                Act::Send { from, to, val } => {
                    let to = NodeId(*to as usize % 4);
                    let _ = w.call(NodeId(*from as usize % 4), |_, ctx| ctx.send(to, *val));
                }
                Act::Advance { ms } => w.run_for(*ms as u64),
                _ => unreachable!("strategy only generates sends and advances"),
            }
        }
        w.run_for(1000);
        let logs: Vec<_> = (0..4).map(|i| w.app(NodeId(i)).seen.clone()).collect();
        prop_assert_eq!(logs, without.logs);
        prop_assert_eq!(w.trace().counters, without.counters);
    }

    /// A crashed node receives nothing; after restart it receives again.
    #[test]
    fn crash_restart_delivery(seed in 0u64..1000, v in 0u64..1000) {
        let mut w = WorldBuilder::new(seed).build(2, |_| Recorder::default());
        w.crash(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), v * 2 + 1)).unwrap();
        w.run_for(100);
        prop_assert!(w.app(NodeId(1)).seen.is_empty());
        w.restart(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), v * 2 + 1)).unwrap();
        w.run_for(100);
        prop_assert_eq!(w.app(NodeId(1)).seen.len(), 1);
    }
}
