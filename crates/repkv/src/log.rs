//! The replicated log: one append-only buffer shared by every holder.
//!
//! Replication ships the *whole* log on every write — that is how the
//! model reproduces truncation on consolidation (Listing 1, ENG-10486): a
//! follower or a losing leader replaces its log with whatever arrives. A
//! [`Log`] keeps those whole-log semantics without the copying. Nodes and
//! in-flight messages share one `Rc<RefCell<Vec<Entry>>>` buffer, each
//! holder seeing only its own `[0..len]` prefix. Entries below any
//! holder's `len` are never mutated, so `clone` is O(1) and a snapshot
//! never changes under its holder.

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::msg::Entry;

/// A snapshot-able, append-only log (see the module docs).
#[derive(Clone, Default)]
pub struct Log {
    buf: Rc<RefCell<Vec<Entry>>>,
    len: usize,
}

impl Log {
    /// An empty log on a fresh buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries this holder sees.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when this holder sees no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries this holder sees.
    pub fn entries(&self) -> Ref<'_, [Entry]> {
        Ref::map(self.buf.borrow(), |v| &v[..self.len])
    }

    /// Appends one entry. In place when this holder sees the whole
    /// buffer; otherwise another holder has appended past this one's view
    /// (the logs diverged), so this holder first moves its own prefix to a
    /// fresh buffer — no other holder's view ever changes.
    pub fn push(&mut self, entry: Entry) {
        if self.buf.borrow().len() != self.len {
            let prefix = self.entries().to_vec();
            self.buf = Rc::new(RefCell::new(prefix));
        }
        self.buf.borrow_mut().push(entry);
        self.len += 1;
    }

    /// Length of the prefix `self` and `other` provably share: both views
    /// of one buffer agree up to the shorter one. Logs on different
    /// buffers share nothing provable, even when their entries are equal.
    pub fn shared_prefix(&self, other: &Log) -> usize {
        if Rc::ptr_eq(&self.buf, &other.buf) {
            self.len.min(other.len)
        } else {
            0
        }
    }
}

impl From<Vec<Entry>> for Log {
    fn from(entries: Vec<Entry>) -> Self {
        Self {
            len: entries.len(),
            buf: Rc::new(RefCell::new(entries)),
        }
    }
}

/// Prints the visible entries as a list — byte-identical to the
/// `Vec<Entry>` the log replaced, so traces and fingerprints are too.
impl fmt::Debug for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.entries().iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::EntryOp;

    fn entry(i: u64) -> Entry {
        Entry {
            term: 1,
            ts: i,
            key: format!("k{i}"),
            op: EntryOp::Put(i),
        }
    }

    fn log_of(n: u64) -> Log {
        let mut log = Log::new();
        for i in 0..n {
            log.push(entry(i));
        }
        log
    }

    #[test]
    fn clones_share_the_buffer_and_push_in_place_at_the_tip() {
        let mut a = log_of(3);
        let snapshot = a.clone();
        a.push(entry(3));
        assert!(Rc::ptr_eq(&a.buf, &snapshot.buf), "tip push must not copy");
        assert_eq!(snapshot.len(), 3, "a snapshot never grows");
        assert_eq!(a.shared_prefix(&snapshot), 3);
    }

    #[test]
    fn push_after_divergence_copies_and_keeps_every_view() {
        let mut a = log_of(3);
        let mut b = a.clone();
        a.push(entry(10));
        let a_view = a.clone();
        b.push(entry(20));
        assert!(!Rc::ptr_eq(&a.buf, &b.buf), "divergent push must copy");
        assert_eq!(a_view.entries().to_vec(), a.entries().to_vec());
        assert_eq!(a.entries()[3], entry(10), "a's tail is untouched");
        assert_eq!(b.entries()[3], entry(20));
        assert_eq!(a.entries()[..3], b.entries()[..3]);
        // The shorter holder pushes past a longer one on the same buffer.
        let mut short = log_of(2);
        let long = {
            let mut l = short.clone();
            l.push(entry(30));
            l
        };
        short.push(entry(40));
        assert_eq!(
            long.entries()[2],
            entry(30),
            "the longer view never changes"
        );
        assert_eq!(short.entries()[2], entry(40));
    }

    #[test]
    fn shared_prefix_is_zero_across_buffers() {
        let a = log_of(4);
        let b = Log::from(a.entries().to_vec());
        assert_eq!(a.entries().to_vec(), b.entries().to_vec());
        assert_eq!(a.shared_prefix(&b), 0);
        assert_eq!(a.shared_prefix(&a.clone()), 4);
    }

    #[test]
    fn debug_matches_the_vec_it_replaced() {
        let vec: Vec<Entry> = (0..3).map(entry).collect();
        let log = Log::from(vec.clone());
        assert_eq!(format!("{log:?}"), format!("{vec:?}"));
        assert_eq!(format!("{log:#?}"), format!("{vec:#?}"));
        let mut longer = log.clone();
        longer.push(entry(3));
        assert_eq!(
            format!("{log:?}"),
            format!("{vec:?}"),
            "only the visible prefix prints"
        );
        assert_eq!(
            format!("{:?}", Log::new()),
            format!("{:?}", Vec::<Entry>::new())
        );
    }
}
