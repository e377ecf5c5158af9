//! A timing [`TestTarget`] wrapper: delegates every method to the real
//! adapter, wraps each call in a span, and counts resets (one per trial and
//! one per ddmin replay) and the simulator events the trials report.

use std::time::Instant;

use neat::explore::{EventChoice, TestTarget};
use neat::{DegradeSpec, PartitionSpec, Violation};
use rand::rngs::StdRng;
use simnet::{NodeId, Time};

use crate::span::span;

/// The wrapped target plus what the wrapper measured.
pub struct Timed<'a> {
    pub inner: &'a mut dyn TestTarget,
    pub resets: u64,
    pub reset_ns: u64,
    /// Simulator counters summed over every timeline the explorer read.
    pub events: u64,
    pub dropped: u64,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn TestTarget) -> Self {
        Self {
            inner,
            resets: 0,
            reset_ns: 0,
            events: 0,
            dropped: 0,
        }
    }
}

impl TestTarget for Timed<'_> {
    fn reset(&mut self, seed: u64, record: bool) {
        let start = Instant::now();
        span("explore.reset", || self.inner.reset(seed, record));
        self.reset_ns += start.elapsed().as_nanos() as u64;
        self.resets += 1;
    }

    fn servers(&self) -> Vec<NodeId> {
        span("explore.schedule", || self.inner.servers())
    }

    fn leader(&mut self) -> Option<NodeId> {
        span("explore.schedule", || self.inner.leader())
    }

    fn supported_events(&self) -> Vec<EventChoice> {
        span("explore.schedule", || self.inner.supported_events())
    }

    fn inject(&mut self, spec: &PartitionSpec) {
        span("explore.schedule", || self.inner.inject(spec))
    }

    fn degrade(&mut self, spec: &DegradeSpec) {
        span("explore.schedule", || self.inner.degrade(spec))
    }

    fn crash(&mut self, nodes: &[NodeId]) {
        span("explore.schedule", || self.inner.crash(nodes))
    }

    fn restart(&mut self, nodes: &[NodeId]) {
        span("explore.schedule", || self.inner.restart(nodes))
    }

    fn advance(&mut self, ms: Time) {
        span("explore.schedule", || self.inner.advance(ms))
    }

    fn heal_all(&mut self) {
        span("explore.schedule", || self.inner.heal_all())
    }

    fn apply_event(&mut self, ev: EventChoice, rng: &mut StdRng) {
        span("explore.schedule", || self.inner.apply_event(ev, rng))
    }

    fn finish_and_check(&mut self) -> Vec<Violation> {
        span("explore.check", || self.inner.finish_and_check())
    }

    fn timeline(&mut self) -> neat::obs::Timeline {
        let timeline = span("explore.timeline", || self.inner.timeline());
        self.events += timeline.counters.events_simulated;
        self.dropped += timeline.counters.messages_dropped;
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{explore_full, Strategy};

    #[test]
    fn wrapper_leaves_the_exploration_unchanged() {
        let strategy = Strategy::coverage_guided(4);
        let plain = explore_full(
            &mut repkv::RepkvTarget::new(repkv::Config::voltdb()),
            &strategy,
            25,
            8,
        );
        let mut target = repkv::RepkvTarget::new(repkv::Config::voltdb());
        let mut timed = Timed::new(&mut target);
        let wrapped = explore_full(&mut timed, &strategy, 25, 8);
        assert!(!plain.finds.is_empty(), "the check needs a run with finds");
        assert_eq!(format!("{wrapped:?}"), format!("{plain:?}"));
        assert_eq!(timed.resets, 25);
        assert!(timed.events > 0);
    }

    #[test]
    fn every_defaulted_method_reaches_the_inner_target() {
        #[derive(Default)]
        struct Probe(Vec<&'static str>);
        impl TestTarget for Probe {
            fn reset(&mut self, _: u64, _: bool) {
                self.0.push("reset");
            }
            fn servers(&self) -> Vec<NodeId> {
                vec![NodeId(0)]
            }
            fn leader(&mut self) -> Option<NodeId> {
                None
            }
            fn supported_events(&self) -> Vec<EventChoice> {
                Vec::new()
            }
            fn inject(&mut self, _: &PartitionSpec) {
                self.0.push("inject");
            }
            fn degrade(&mut self, _: &DegradeSpec) {
                self.0.push("degrade");
            }
            fn crash(&mut self, _: &[NodeId]) {
                self.0.push("crash");
            }
            fn restart(&mut self, _: &[NodeId]) {
                self.0.push("restart");
            }
            fn advance(&mut self, _: Time) {
                self.0.push("advance");
            }
            fn heal_all(&mut self) {
                self.0.push("heal_all");
            }
            fn apply_event(&mut self, _: EventChoice, _: &mut StdRng) {
                self.0.push("apply_event");
            }
            fn finish_and_check(&mut self) -> Vec<Violation> {
                self.0.push("finish_and_check");
                Vec::new()
            }
            fn timeline(&mut self) -> neat::obs::Timeline {
                self.0.push("timeline");
                neat::obs::Timeline::default()
            }
        }
        use rand::SeedableRng;
        let mut probe = Probe::default();
        let mut t = Timed::new(&mut probe);
        t.reset(1, false);
        t.inject(&PartitionSpec::Complete {
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
        });
        t.degrade(&DegradeSpec::Simplex {
            src: vec![NodeId(0)],
            dst: vec![NodeId(1)],
            rule: simnet::DegradeRule::lossy(0.5),
        });
        t.crash(&[NodeId(0)]);
        t.restart(&[NodeId(0)]);
        t.advance(5);
        t.heal_all();
        t.apply_event(EventChoice::Write, &mut StdRng::seed_from_u64(1));
        t.finish_and_check();
        t.timeline();
        assert_eq!(t.resets, 1);
        assert_eq!(
            probe.0,
            [
                "reset",
                "inject",
                "degrade",
                "crash",
                "restart",
                "advance",
                "heal_all",
                "apply_event",
                "finish_and_check",
                "timeline"
            ]
        );
    }
}
