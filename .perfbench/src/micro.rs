//! The substrate ceiling: simnet micros on benchmark-owned applications,
//! where every simulated event is a bare delivery or timer firing.

use std::time::Instant;

use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};

use crate::report::{median, Metrics};

/// Two nodes bounce one message forever: every step is one delivery.
struct PingPong;

impl Application for PingPong {
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

/// Eight timers stay armed per node: every step fires one and re-arms it.
struct TimerStorm;

impl Application for TimerStorm {
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

/// Median events per second of host time over `samples` fresh worlds.
fn rate<A: Application>(samples: usize, events: u64, build: impl Fn() -> simnet::World<A>) -> f64 {
    let per_sample: Vec<f64> = (0..samples)
        .map(|_| {
            let mut world = build();
            let start = Instant::now();
            for _ in 0..events {
                world.step();
            }
            std::hint::black_box(world.events_scheduled());
            events as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    median(&per_sample)
}

pub fn ceiling(m: &mut Metrics, tiny: bool) {
    let (samples, events) = if tiny { (3, 20_000) } else { (9, 200_000) };
    m.set(
        "simnet.micro.ping_pong_events_per_s",
        rate(samples, events, || {
            WorldBuilder::new(1).build(2, |_| PingPong)
        }),
    );
    m.set(
        "simnet.micro.timer_storm_events_per_s",
        rate(samples, events, || {
            WorldBuilder::new(1).build(4, |_| TimerStorm)
        }),
    );
}
