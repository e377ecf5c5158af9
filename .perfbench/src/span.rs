//! Host-time spans recorded from the benchmark's own code around each call
//! into a layer's public functions.
//!
//! Spans nest on one thread: a span's self time is its duration minus the
//! time covered by the spans opened inside it. Totals are kept in memory per
//! span name and read out when the traced run ends. Recording is off unless
//! [`enable`] was called, so the untraced path pays one thread-local read.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate of every closed span of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TOTALS: RefCell<BTreeMap<&'static str, Agg>> = const { RefCell::new(BTreeMap::new()) };
}

/// Turns span recording on or off for the current thread.
pub fn enable(on: bool) {
    ON.with(|c| c.set(on));
}

/// Whether spans are being recorded on the current thread.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Runs `f` inside a span called `name` (when recording is on).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let out = f();
    let frame = STACK
        .with(|s| s.borrow_mut().pop())
        .expect("span stack underflow");
    let dur = frame.start.elapsed().as_nanos() as u64;
    STACK.with(|s| {
        if let Some(parent) = s.borrow_mut().last_mut() {
            parent.child_ns += dur;
        }
    });
    TOTALS.with(|t| {
        let mut t = t.borrow_mut();
        let agg = t.entry(frame.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
    });
    out
}

/// Drains the current thread's span totals.
pub fn take() -> BTreeMap<&'static str, Agg> {
    TOTALS.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Adds `from` into `into`, span by span.
pub fn merge(into: &mut BTreeMap<&'static str, Agg>, from: BTreeMap<&'static str, Agg>) {
    for (name, agg) in from {
        let a = into.entry(name).or_default();
        a.count += agg.count;
        a.total_ns += agg.total_ns;
        a.self_ns += agg.self_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable(true);
        let _ = take();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = take();
        enable(false);
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 20_000_000);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns < inner.total_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        enable(false);
        let _ = take();
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
    }
}
