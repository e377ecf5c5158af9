//! Figure 4 counterpart: the NEAT framework's own overhead.
//!
//! The paper's NEAT is 1553 lines of Java driving real machines; ours is a
//! virtual-time engine, so the relevant costs are simulator throughput,
//! partition-rule installation/heal, the per-operation cost of the
//! globally ordered test engine, and the register checker's cost as the
//! history grows.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neat::checkers::{check_register, RegisterSemantics};
use neat::{History, Op, OpRecord, Outcome};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simnet::{
    net::bidirectional_pairs, Application, Ctx, NodeId, TimerId, WorldBuilder,
};

/// Ping-pong forever between two nodes.
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

fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    for events in [1_000u64, 10_000, 100_000] {
        g.bench_with_input(
            BenchmarkId::new("ping_pong_events", events),
            &events,
            |b, &events| {
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(2, |_| Pinger);
                    for _ in 0..events {
                        w.step();
                    }
                    w.trace().counters.delivered
                })
            },
        );
    }
    g.finish();
}

fn partition_rules(c: &mut Criterion) {
    let mut g = c.benchmark_group("partitioner");
    for nodes in [5usize, 20, 50] {
        g.bench_with_input(
            BenchmarkId::new("install_and_heal", nodes),
            &nodes,
            |b, &nodes| {
                let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
                let (a, rest) = ids.split_at(nodes / 2);
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(nodes, |_| Pinger);
                    let r = w.block_pairs(bidirectional_pairs(a, rest));
                    w.unblock(r);
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("delivery_with_rules", nodes),
            &nodes,
            |b, &nodes| {
                // Message delivery cost while many unrelated rules are
                // installed (the is_blocked scan).
                let mut w = WorldBuilder::new(1).build(nodes, |_| Pinger);
                for i in 2..nodes {
                    w.block_pairs(bidirectional_pairs(&[NodeId(i)], &[NodeId((i + 1) % nodes)]));
                }
                b.iter(|| {
                    for _ in 0..1_000 {
                        w.step();
                    }
                })
            },
        );
    }
    g.finish();
}

fn engine_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("repkv_write_read_pair", |b| {
        let mut cluster = repkv::Cluster::build(repkv::ClusterSpec::three_by_two(
            repkv::Config::fixed(),
            1,
        ));
        let leader = cluster.wait_for_leader(3000).expect("leader");
        let client = cluster.client(0).via(leader);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            client.write(&mut cluster.neat, "bench", i);
            client.read(&mut cluster.neat, "bench")
        })
    });
    g.bench_function("cluster_boot_to_leader", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut cluster = repkv::Cluster::build(repkv::ClusterSpec::three_by_two(
                repkv::Config::fixed(),
                seed,
            ));
            cluster.wait_for_leader(3000)
        })
    });
    g.finish();
}

/// A seeded kv-like history of `ops` overlapping reads and writes (1:1)
/// over 32 keys skewed toward the first few, with unique written values,
/// 2% failed and 3% timed-out writes, and reads that return the last value
/// issued for their key. The final state holds each key's last value.
fn kv_history(ops: usize, seed: u64) -> (History, BTreeMap<String, Option<u64>>) {
    const KEYS: usize = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..KEYS).map(|k| format!("key{k}")).collect();
    let mut state = [None; KEYS];
    let mut h = History::new();
    let mut t = 0u64;
    for i in 0..ops {
        let k = rng.gen_range(0..KEYS);
        let k = rng.gen_range(0..=k);
        let key = names[k].clone();
        t += rng.gen_range(0..4u64);
        let (start, end) = (t, t + rng.gen_range(1..20u64));
        let (op, outcome) = if rng.gen_bool(0.5) {
            let val = i as u64;
            let outcome = match rng.gen_range(0..100u32) {
                0..=1 => Outcome::Fail,
                2..=4 => Outcome::Timeout,
                _ => Outcome::Ok(None),
            };
            if outcome != Outcome::Fail {
                state[k] = Some(val);
            }
            (Op::Write { key, val }, outcome)
        } else {
            (Op::Read { key }, Outcome::Ok(state[k]))
        };
        h.push(OpRecord {
            client: NodeId(i % 8),
            op,
            outcome,
            start,
            end,
        });
    }
    let fin = names.iter().cloned().zip(state).collect();
    (h, fin)
}

fn register_checker(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkers/register");
    for ops in [1_000usize, 10_000, 100_000] {
        let (h, fin) = kv_history(ops, 8);
        g.bench_with_input(BenchmarkId::new("kv_history_ops", ops), &ops, |b, _| {
            b.iter(|| check_register(&h, RegisterSemantics::Strong, &fin).len())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = simulator_throughput, partition_rules, engine_ops, register_checker
}
criterion_main!(benches);
