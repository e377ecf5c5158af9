//! A fixed reference workload that owes nothing to the repository's code:
//! a small discrete-event simulation with the same mix of allocation,
//! ordered maps, string keys, a binary heap and dynamic dispatch as the
//! simulator. Its host time tracks how fast the shared host runs at the
//! moment, and no change to the program moves it.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

const NODES: usize = 48;
/// Keys a node keeps; the oldest goes when a new one would pass this.
const STORE: usize = 256;
/// Queue length past which a handler's sends beyond the first are dropped,
/// so the working set stays the same size however long the run.
const QUEUE: usize = 4096;

struct Msg {
    key: String,
    vals: Vec<u64>,
}

/// A message due at `at`; `seq` breaks ties in send order.
struct Event {
    at: u64,
    seq: u64,
    node: usize,
    msg: Msg,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

trait Handler {
    /// Handles `msg` at `now`, pushing `(due, node, msg)` sends onto `out`.
    fn on_msg(&mut self, now: u64, msg: Msg, rng: &mut u64, out: &mut Vec<(u64, usize, Msg)>);
}

struct Node {
    store: BTreeMap<String, Vec<u64>>,
    seen: u64,
}

fn next(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

impl Handler for Node {
    fn on_msg(&mut self, now: u64, msg: Msg, rng: &mut u64, out: &mut Vec<(u64, usize, Msg)>) {
        self.seen += 1;
        let sum: u64 = msg.vals.iter().sum();
        let entry = self.store.entry(msg.key).or_default();
        entry.push(sum);
        if entry.len() > 8 {
            entry.drain(..4);
        }
        for _ in 0..1 + next(rng) % 2 {
            let r = next(rng);
            let key = format!("k{}", r % 512);
            let vals = (0..r % 7 + 1).map(|i| i ^ self.seen).collect();
            out.push((now + 1 + r % 50, (r >> 20) as usize % NODES, Msg { key, vals }));
        }
        if self.store.len() > STORE {
            self.store.pop_first();
        }
    }
}

/// Runs `events` events of the reference simulation; returns a checksum.
pub fn reference(events: usize) -> u64 {
    let mut nodes: Vec<Box<dyn Handler>> = (0..NODES)
        .map(|_| {
            Box::new(Node {
                store: BTreeMap::new(),
                seen: 0,
            }) as Box<dyn Handler>
        })
        .collect();
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut queue = BinaryHeap::new();
    let mut seq = 0u64;
    let mut send = |queue: &mut BinaryHeap<Reverse<Event>>, at, node, msg| {
        seq += 1;
        queue.push(Reverse(Event { at, seq, node, msg }));
    };
    for node in 0..NODES {
        let msg = Msg {
            key: format!("k{node}"),
            vals: vec![node as u64],
        };
        send(&mut queue, 0, node, msg);
    }
    let mut out = Vec::new();
    let mut check = 0u64;
    for _ in 0..events {
        let Some(Reverse(ev)) = queue.pop() else {
            break;
        };
        nodes[ev.node].on_msg(ev.at, ev.msg, &mut rng, &mut out);
        let keep = if queue.len() > QUEUE { 1 } else { out.len() };
        for (at, node, msg) in out.drain(..).take(keep) {
            send(&mut queue, at, node, msg);
        }
        check = check.wrapping_add(ev.at);
    }
    check
}
