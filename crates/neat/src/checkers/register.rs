//! Register (key-value) checker: dirty reads, stale reads, data loss,
//! reappearance of deleted data.
//!
//! Semantics (per key; all comparisons use real-time precedence, where `a`
//! precedes `b` iff `a.end <= b.start`, so concurrent operations constrain
//! nothing):
//!
//! - **Dirty read** — a read returned the value of a write whose outcome was
//!   an acknowledged *failure*. Failed writes must never become visible
//!   (Table 2, e.g., VoltDB ENG-10389).
//! - **Stale read** — only under [`RegisterSemantics::Strong`]: a read
//!   returned a value strictly older than the latest write known complete
//!   before the read began.
//! - **Data loss** — the final value (observed after healing) is not
//!   *explainable*: every acknowledged write that no later acknowledged
//!   write/delete superseded must still be a possible final value.
//! - **Reappearance of deleted data** — the final value was successfully
//!   deleted and never rewritten afterwards.
//! - **Data corruption** — the final value was never written by anyone.
//!
//! Timed-out operations have unknown effect, so they both *may* explain a
//! final value and *may not* be required to survive.
//!
//! # Cost
//!
//! [`check_register`] is O(n log n) in the history length: one stable sort
//! groups the records by key, then each key is indexed once (its
//! acknowledged mutations sorted by completion time, and one summary per
//! written value) so that every read costs O(log m) in the key's `m`
//! mutations. Only the rarely taken classification of an unexplainable
//! final value scans the key's mutations again, once per key.
//!
//! The latest acknowledged mutation preceding a read is the one with the
//! greatest `end` among those with `end <= read.start` (inclusive, like
//! [`OpRecord::precedes`]); of several with that same `end`, the one
//! recorded last in the history wins.

use std::collections::BTreeMap;

use simnet::Time;

use crate::history::{History, Op, OpRecord, Outcome};

use super::{Violation, ViolationKind};

/// Consistency contract the system under test promises for reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterSemantics {
    /// Strong (sequential) consistency: stale reads are violations.
    Strong,
    /// Eventual consistency: stale reads are tolerated (the paper only
    /// counts stale reads as failures for strongly consistent systems).
    Eventual,
}

/// A write-like event on a key: either a write of `Some(v)` or a delete.
#[derive(Clone, Copy)]
struct Mutation<'a> {
    rec: &'a OpRecord,
    /// `Some(v)` for writes, `None` for deletes.
    val: Option<u64>,
}

/// What the checks need to know about every mutation of one value.
#[derive(Clone, Copy)]
struct ValueSummary {
    /// Whether every mutation that wrote this value (`None`: deletes)
    /// was an acknowledged failure.
    all_failed: bool,
    /// Whether any of them timed out.
    timed_out: bool,
    /// The latest `end` among them.
    max_end: Time,
}

/// One key's mutations, indexed for the read and final-state checks. The
/// buffers are reused from key to key.
#[derive(Default)]
struct KeyIndex<'a> {
    /// Writes and deletes, in history order.
    muts: Vec<Mutation<'a>>,
    /// Acknowledged mutations beside their `end`, sorted by `(end, history
    /// position)`; the binary search reads `end` without a pointer chase.
    acked: Vec<(Time, Mutation<'a>)>,
    /// One summary per value, sorted by value.
    values: Vec<(Option<u64>, ValueSummary)>,
    /// The latest `start` of any acknowledged mutation.
    max_ok_start: Option<Time>,
}

impl<'a> KeyIndex<'a> {
    fn rebuild(&mut self, recs: &[(&str, &'a OpRecord)]) {
        self.muts.clear();
        self.muts
            .extend(recs.iter().filter_map(|&(_, rec)| match &rec.op {
                Op::Write { val, .. } => Some(Mutation {
                    rec,
                    val: Some(*val),
                }),
                Op::Delete { .. } => Some(Mutation { rec, val: None }),
                _ => None,
            }));

        self.acked.clear();
        self.acked.extend(
            self.muts
                .iter()
                .filter(|m| m.rec.outcome.is_ok())
                .map(|&m| (m.rec.end, m)),
        );
        // Stable: equal ends stay in history order.
        self.acked.sort_by_key(|&(end, _)| end);
        self.max_ok_start = self.acked.iter().map(|(_, m)| m.rec.start).max();

        self.values.clear();
        self.values.extend(self.muts.iter().map(|m| {
            let summary = ValueSummary {
                all_failed: m.rec.outcome == Outcome::Fail,
                timed_out: m.rec.outcome == Outcome::Timeout,
                max_end: m.rec.end,
            };
            (m.val, summary)
        }));
        self.values.sort_unstable_by_key(|&(val, _)| val);
        self.values.dedup_by(|(val, next), (kept_val, kept)| {
            if val != kept_val {
                return false;
            }
            kept.all_failed &= next.all_failed;
            kept.timed_out |= next.timed_out;
            kept.max_end = kept.max_end.max(next.max_end);
            true
        });
    }

    /// The summary of every mutation that wrote `val`, if any did.
    fn value(&self, val: Option<u64>) -> Option<&ValueSummary> {
        self.values
            .binary_search_by_key(&val, |&(v, _)| v)
            .ok()
            .map(|i| &self.values[i].1)
    }

    /// The latest acknowledged mutation fully completed before `read` began.
    fn latest_before(&self, read: &OpRecord) -> Option<Mutation<'a>> {
        let n = self.acked.partition_point(|&(end, _)| end <= read.start);
        n.checked_sub(1).map(|i| self.acked[i].1)
    }

    /// Acknowledged mutations that no later acknowledged mutation
    /// superseded, in history order.
    fn ok_candidates(&self) -> impl Iterator<Item = &Mutation<'a>> {
        let superseded = |m: &Mutation<'_>| self.max_ok_start.is_some_and(|s| m.rec.end <= s);
        self.muts
            .iter()
            .filter(move |m| m.rec.outcome.is_ok() && !superseded(m))
    }
}

/// Checks the register history against the final state.
///
/// `final_state` maps each key to the value observed after every partition
/// healed and the system quiesced (`None` = key absent). Keys absent from
/// the map are not checked for loss/reappearance (useful when the final
/// read itself was unavailable).
pub fn check_register(
    hist: &History,
    semantics: RegisterSemantics,
    final_state: &BTreeMap<String, Option<u64>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    // Each record beside its key, so the sort compares without matching
    // on the op. Stable: each key's records stay in history order.
    let mut recs: Vec<(&str, &OpRecord)> = hist.records().iter().map(|r| (r.op.key(), r)).collect();
    recs.sort_by_key(|&(key, _)| key);
    let mut index = KeyIndex::default();
    for group in recs.chunk_by(|a, b| a.0 == b.0) {
        let key = group[0].0;
        index.rebuild(group);
        check_reads(key, group, &index, semantics, &mut out);
        if let Some(final_val) = final_state.get(key) {
            check_final(key, &index, *final_val, &mut out);
        }
    }
    out
}

fn check_reads(
    key: &str,
    recs: &[(&str, &OpRecord)],
    index: &KeyIndex<'_>,
    semantics: RegisterSemantics,
    out: &mut Vec<Violation>,
) {
    for &(_, read) in recs {
        if !matches!(read.op, Op::Read { .. }) {
            continue;
        }
        let Outcome::Ok(ret) = read.outcome else {
            continue;
        };
        // Dirty read: the returned value only exists as a failed write.
        if let Some(v) = ret {
            if index.value(ret).is_some_and(|s| s.all_failed) {
                out.push(Violation::new(
                    ViolationKind::DirtyRead,
                    format!("read of {key:?} returned {v}, written only by a FAILED write"),
                ));
                continue;
            }
        }
        if semantics == RegisterSemantics::Strong {
            check_stale(key, index, read, ret, out);
        }
    }
}

fn check_stale(
    key: &str,
    index: &KeyIndex<'_>,
    read: &OpRecord,
    ret: Option<u64>,
    out: &mut Vec<Violation>,
) {
    let Some(latest) = index.latest_before(read) else {
        return;
    };
    if ret == latest.val {
        return;
    }
    // The read returned something else. That is only stale if what it
    // returned is strictly *older* than `latest`: every mutation of it
    // completed before `latest` began. Returning a concurrent or newer
    // (possibly timed-out) mutation is legal.
    let older = |s: &ValueSummary| s.max_end <= latest.rec.start;
    let stale = match (ret, index.value(ret)) {
        // A timed-out mutation's effect may land arbitrarily late, so it
        // never counts as strictly older than `latest`.
        (Some(_), Some(s)) => !s.timed_out && older(s),
        // A value never written at all is corruption, reported via
        // final-state checking; only flag staleness for values we can date.
        (Some(_), None) => false,
        // `None` (missing) is older unless some delete is concurrent with or
        // after `latest`.
        (None, s) => s.is_none_or(older),
    };
    if stale {
        out.push(Violation::new(
            ViolationKind::StaleRead,
            format!(
                "read of {key:?} at t={} returned {ret:?} although write of {:?} completed at t={}",
                read.start, latest.val, latest.rec.end
            ),
        ));
    }
}

fn check_final(key: &str, index: &KeyIndex<'_>, final_val: Option<u64>, out: &mut Vec<Violation>) {
    // Candidate final values: acknowledged mutations not superseded by a
    // later acknowledged mutation, plus every timed-out mutation (unknown
    // effect), plus `None` if the key might never have been created.
    let explainable = index.ok_candidates().any(|m| m.val == final_val)
        || index.value(final_val).is_some_and(|s| s.timed_out)
        || (final_val.is_none() && index.ok_candidates().next().is_none());
    if explainable {
        return;
    }

    // Unexplainable final state: classify it.
    if let Some(v) = final_val {
        let Some(writers) = index.value(final_val) else {
            out.push(Violation::new(
                ViolationKind::DataCorruption,
                format!("final value {v} of {key:?} was never written"),
            ));
            return;
        };
        if writers.all_failed {
            out.push(Violation::new(
                ViolationKind::DataCorruption,
                format!("key {key:?} durably holds {v}, which was only written by a FAILED write"),
            ));
            return;
        }
        // An acknowledged delete that began after every write of `v` ended.
        let deleted_after = index
            .muts
            .iter()
            .any(|d| d.val.is_none() && d.rec.outcome.is_ok() && writers.max_end <= d.rec.start);
        if deleted_after {
            out.push(Violation::new(
                ViolationKind::ReappearanceOfDeletedData,
                format!("final value {v} of {key:?} had been successfully deleted"),
            ));
            return;
        }
    }
    let lost: Vec<String> = index
        .ok_candidates()
        .filter(|m| m.val != final_val)
        .map(|m| format!("{:?}", m.val))
        .collect();
    out.push(Violation::new(
        ViolationKind::DataLoss,
        format!(
            "key {key:?} ended as {final_val:?}; acknowledged surviving mutation(s) {} lost",
            lost.join(", ")
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn w(key: &str, val: u64, outcome: Outcome, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Write {
                key: key.into(),
                val,
            },
            outcome,
            start,
            end,
        }
    }
    fn r(key: &str, ret: Option<u64>, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(1),
            op: Op::Read { key: key.into() },
            outcome: Outcome::Ok(ret),
            start,
            end,
        }
    }
    fn d(key: &str, outcome: Outcome, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Delete { key: key.into() },
            outcome,
            start,
            end,
        }
    }

    fn hist(recs: Vec<OpRecord>) -> History {
        let mut h = History::new();
        for rec in recs {
            h.push(rec);
        }
        h
    }

    fn final_of(key: &str, v: Option<u64>) -> BTreeMap<String, Option<u64>> {
        let mut m = BTreeMap::new();
        m.insert(key.to_string(), v);
        m
    }

    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn clean_history_has_no_violations() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            r("k", Some(1), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(1)));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dirty_read_detected() {
        // The Figure 2 scenario: the write FAILS, yet a read returns it.
        let h = hist(vec![
            w("k", 7, Outcome::Fail, 0, 5),
            r("k", Some(7), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&v), vec![ViolationKind::DirtyRead]);
    }

    #[test]
    fn timeout_write_visible_is_not_dirty() {
        let h = hist(vec![
            w("k", 7, Outcome::Timeout, 0, 5),
            r("k", Some(7), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_read_detected_under_strong_only() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 15),
            r("k", Some(1), 20, 22),
        ]);
        let strong = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&strong), vec![ViolationKind::StaleRead]);
        let eventual = check_register(&h, RegisterSemantics::Eventual, &BTreeMap::new());
        assert!(eventual.is_empty(), "eventual systems tolerate staleness");
    }

    #[test]
    fn concurrent_read_is_not_stale() {
        // The read overlaps the second write; either value is legal.
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 20),
            r("k", Some(1), 15, 18),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn read_of_missing_after_acked_write_is_stale() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            r("k", None, 20, 22),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&v), vec![ViolationKind::StaleRead]);
    }

    #[test]
    fn data_loss_when_final_misses_acked_write() {
        // Listing 1: the write succeeded during the partition, then the
        // healed cluster truncated it away.
        let h = hist(vec![w("obj2", 2, Outcome::Ok(None), 10, 15)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("obj2", None));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn overwritten_value_is_not_loss() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 15),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(2)));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn concurrent_acked_writes_either_may_survive() {
        // Two Ok writes on opposite sides of a partition are concurrent;
        // conflict resolution keeping either one is not data loss.
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 50),
            w("k", 2, Outcome::Ok(None), 10, 40),
        ]);
        for surv in [Some(1), Some(2)] {
            let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", surv));
            assert!(v.is_empty(), "{surv:?}: {v:?}");
        }
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", None));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn timeout_write_explains_final_value() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Timeout, 10, 15),
        ]);
        for surv in [Some(1), Some(2)] {
            let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", surv));
            assert!(v.is_empty(), "{surv:?}: {v:?}");
        }
    }

    #[test]
    fn reappearance_of_deleted_data() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            d("k", Outcome::Ok(None), 10, 15),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(1)));
        assert_eq!(kinds(&v), vec![ViolationKind::ReappearanceOfDeletedData]);
    }

    #[test]
    fn never_written_final_value_is_corruption() {
        let h = hist(vec![w("k", 1, Outcome::Ok(None), 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(99)));
        assert_eq!(kinds(&v), vec![ViolationKind::DataCorruption]);
    }

    #[test]
    fn failed_write_missing_from_final_is_fine() {
        let h = hist(vec![w("k", 1, Outcome::Fail, 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", None));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unchecked_key_skips_final_analysis() {
        let h = hist(vec![w("k", 1, Outcome::Ok(None), 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty());
    }
}
