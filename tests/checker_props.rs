//! Property tests for the NEAT checkers: soundness (legal executions are
//! never flagged) and sensitivity (injected corruptions are flagged).

use std::collections::BTreeMap;

use neat_repro::neat::{
    checkers::{
        check_counter, check_linearizable_register, check_mutex, check_queue, check_register,
        QueueExpectation, RegisterSemantics,
    },
    History, Op, OpRecord, Outcome,
};
use proptest::prelude::*;
use simnet::NodeId;

/// A reference single-copy register that executes a random op sequence
/// sequentially and produces a (by construction legal) history.
fn legal_register_history(ops: &[(u8, u64)]) -> (History, BTreeMap<String, Option<u64>>) {
    let mut h = History::new();
    let mut state: Option<u64> = None;
    let mut t = 0u64;
    for (i, &(kind, val)) in ops.iter().enumerate() {
        let start = t;
        t += 2;
        let end = t;
        t += 1;
        let client = NodeId(i % 2);
        match kind % 3 {
            0 => {
                // Unique values so reads identify their writer.
                let v = (i as u64) << 16 | (val & 0xffff);
                state = Some(v);
                h.push(OpRecord {
                    client,
                    op: Op::Write { key: "k".into(), val: v },
                    outcome: Outcome::Ok(None),
                    start,
                    end,
                });
            }
            1 => {
                h.push(OpRecord {
                    client,
                    op: Op::Read { key: "k".into() },
                    outcome: Outcome::Ok(state),
                    start,
                    end,
                });
            }
            _ => {
                state = None;
                h.push(OpRecord {
                    client,
                    op: Op::Delete { key: "k".into() },
                    outcome: Outcome::Ok(None),
                    start,
                    end,
                });
            }
        }
    }
    let mut fin = BTreeMap::new();
    fin.insert("k".to_string(), state);
    (h, fin)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential single-copy executions never trigger the register checker
    /// nor the linearizability checker.
    #[test]
    fn register_checker_sound(ops in proptest::collection::vec((0u8..3, 0u64..100), 0..14)) {
        let (h, fin) = legal_register_history(&ops);
        let v = check_register(&h, RegisterSemantics::Strong, &fin);
        prop_assert!(v.is_empty(), "{v:?}\n{}", h.render());
        let lin = check_linearizable_register(&h, "k", None);
        prop_assert!(lin.is_empty(), "{lin:?}\n{}", h.render());
    }

    /// Dropping an acknowledged final write from the final state is always
    /// detected as data loss (or reappearance when the drop exposes a
    /// deleted value).
    #[test]
    fn register_checker_detects_lost_final_write(
        ops in proptest::collection::vec((0u8..3, 0u64..100), 0..10),
        val in 0u64..100,
    ) {
        let (mut h, _) = legal_register_history(&ops);
        let t0 = 1000;
        h.push(OpRecord {
            client: NodeId(0),
            op: Op::Write { key: "k".into(), val: 1 << 40 | val },
            outcome: Outcome::Ok(None),
            start: t0,
            end: t0 + 1,
        });
        // Final state pretends that write never happened.
        let mut fin = BTreeMap::new();
        fin.insert("k".to_string(), None::<u64>);
        let v = check_register(&h, RegisterSemantics::Strong, &fin);
        prop_assert!(!v.is_empty(), "loss not detected:\n{}", h.render());
    }

    /// A legal mutex history (holders never overlap) passes; adding an
    /// overlapping acquisition is flagged.
    #[test]
    fn mutex_checker_sound_and_sensitive(n in 1usize..8) {
        let mut h = History::new();
        let mut t = 0;
        for i in 0..n {
            h.push(OpRecord {
                client: NodeId(i % 3),
                op: Op::Acquire { key: "l".into() },
                outcome: Outcome::Ok(None),
                start: t,
                end: t + 1,
            });
            h.push(OpRecord {
                client: NodeId(i % 3),
                op: Op::Release { key: "l".into() },
                outcome: Outcome::Ok(None),
                start: t + 2,
                end: t + 3,
            });
            t += 10;
        }
        prop_assert!(check_mutex(&h, "l").is_empty());
        // Inject a second holder inside the first hold window.
        h.push(OpRecord {
            client: NodeId(7),
            op: Op::Acquire { key: "l".into() },
            outcome: Outcome::Ok(None),
            start: 1,
            end: 2,
        });
        h.push(OpRecord {
            client: NodeId(7),
            op: Op::Release { key: "l".into() },
            outcome: Outcome::Ok(None),
            start: 2,
            end: 3,
        });
        prop_assert!(!check_mutex(&h, "l").is_empty());
    }

    /// FIFO queue executions pass; a duplicated consumption is flagged.
    #[test]
    fn queue_checker_sound_and_sensitive(vals in proptest::collection::vec(0u64..1000, 1..12)) {
        let mut uniq = vals.clone();
        uniq.sort();
        uniq.dedup();
        let mut h = History::new();
        let mut t = 0;
        for v in &uniq {
            h.push(OpRecord {
                client: NodeId(0),
                op: Op::Enqueue { key: "q".into(), val: *v },
                outcome: Outcome::Ok(None),
                start: t,
                end: t + 1,
            });
            t += 2;
        }
        let consumed: Vec<u64> = uniq.clone();
        let exp = [QueueExpectation { key: "q".into(), drained: Some(consumed) }];
        prop_assert!(check_queue(&h, &exp).is_empty());

        let mut dup = uniq.clone();
        dup.push(uniq[0]);
        let exp = [QueueExpectation { key: "q".into(), drained: Some(dup) }];
        prop_assert!(!check_queue(&h, &exp).is_empty());
    }

    /// Counter checker: the exact sum passes; off-by-anything fails in the
    /// right direction.
    #[test]
    fn counter_checker_exactness(incrs in proptest::collection::vec(1u64..50, 0..10)) {
        let mut h = History::new();
        let mut t = 0;
        for by in &incrs {
            h.push(OpRecord {
                client: NodeId(0),
                op: Op::Incr { key: "c".into(), by: *by },
                outcome: Outcome::Ok(None),
                start: t,
                end: t + 1,
            });
            t += 2;
        }
        let sum: u64 = incrs.iter().sum();
        prop_assert!(check_counter(&h, "c", 0, sum).is_empty());
        if sum > 0 {
            prop_assert!(!check_counter(&h, "c", 0, sum - 1).is_empty());
        }
        prop_assert!(!check_counter(&h, "c", 0, sum + 1).is_empty());
    }
}

/// Builds an arbitrary (possibly broken) single-key history from raw parts.
fn arbitrary_history(parts: &[(u8, u8, u64, u64)]) -> History {
    let mut h = History::new();
    let mut t = 0u64;
    for &(kind, outcome, a, b) in parts {
        let start = t;
        t += 1 + (a % 4);
        let end = t;
        t += 1;
        let op = match kind % 2 {
            0 => Op::Write {
                key: "k".into(),
                val: b % 5,
            },
            _ => Op::Read { key: "k".into() },
        };
        let outcome = match (kind % 2, outcome % 3) {
            (0, 0) => Outcome::Ok(None),
            (0, 1) => Outcome::Fail,
            (0, _) => Outcome::Timeout,
            (1, 0) => Outcome::Ok(if b % 6 == 5 { None } else { Some(b % 5) }),
            (1, _) => Outcome::Timeout,
            _ => unreachable!(),
        };
        h.push(OpRecord {
            client: NodeId((a % 2) as usize),
            op,
            outcome,
            start,
            end,
        });
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential soundness: on single-key write/read histories, a dirty
    /// or stale read reported by the register checker implies the history
    /// is NOT linearizable. (The register checker is the fast, targeted
    /// classifier; the linearizability checker is the ground truth.)
    ///
    /// Note: values repeat here (unlike NEAT's unique-value histories), so
    /// the register checker may legally *miss* violations; it must never
    /// flag a linearizable history.
    #[test]
    fn register_read_violations_imply_non_linearizable(
        parts in proptest::collection::vec((0u8..2, 0u8..3, 0u64..8, 0u64..8), 0..9),
    ) {
        let h = arbitrary_history(&parts);
        // Values are not unique in arbitrary histories, which the dirty-read
        // rule assumes; restrict the implication to histories where every
        // written value is distinct.
        let mut vals: Vec<u64> = h
            .records()
            .iter()
            .filter_map(|r| match &r.op {
                Op::Write { val, .. } => Some(*val),
                _ => None,
            })
            .collect();
        let n = vals.len();
        vals.sort();
        vals.dedup();
        if vals.len() != n {
            return Ok(());
        }
        let violations = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        let read_violations = violations
            .iter()
            .any(|v| v.details.contains("read"));
        if read_violations {
            let lin = check_linearizable_register(&h, "k", None);
            prop_assert!(
                !lin.is_empty(),
                "register checker flagged a linearizable history:\n{}\n{violations:?}",
                h.render()
            );
        }
    }
}

/// The quadratic register checker as it stood before indexing, kept here
/// as the executable specification that `check_register` must match byte
/// for byte. It rescans the key's mutations for every read.
mod reference {
    use std::collections::BTreeMap;

    use neat_repro::neat::{
        checkers::{RegisterSemantics, Violation, ViolationKind},
        History, Op, OpRecord, Outcome,
    };

    /// Distinct keys appearing in the history, sorted.
    fn keys(hist: &History) -> Vec<String> {
        let mut ks: Vec<String> = hist.records().iter().map(|r| r.op.key().to_string()).collect();
        ks.sort();
        ks.dedup();
        ks
    }

    /// A write-like event on a key: either a write of `Some(v)` or a delete.
    struct Mutation<'a> {
        rec: &'a OpRecord,
        /// `Some(v)` for writes, `None` for deletes.
        val: Option<u64>,
    }

    fn mutations<'a>(hist: &'a History, key: &'a str) -> Vec<Mutation<'a>> {
        hist.for_key(key)
            .filter_map(|r| match &r.op {
                Op::Write { val, .. } => Some(Mutation {
                    rec: r,
                    val: Some(*val),
                }),
                Op::Delete { .. } => Some(Mutation { rec: r, val: None }),
                _ => None,
            })
            .collect()
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
        for key in keys(hist) {
            let muts = mutations(hist, &key);
            check_reads(hist, &key, &muts, semantics, &mut out);
            if let Some(final_val) = final_state.get(&key) {
                check_final(&key, &muts, *final_val, &mut out);
            }
        }
        out
    }

    fn check_reads(
        hist: &History,
        key: &str,
        muts: &[Mutation<'_>],
        semantics: RegisterSemantics,
        out: &mut Vec<Violation>,
    ) {
        for read in hist.for_key(key) {
            if !matches!(read.op, Op::Read { .. }) {
                continue;
            }
            let Outcome::Ok(ret) = read.outcome else {
                continue;
            };
            // Dirty read: the returned value only exists as a failed write.
            if let Some(v) = ret {
                let writers: Vec<&Mutation<'_>> =
                    muts.iter().filter(|m| m.val == Some(v)).collect();
                if !writers.is_empty() && writers.iter().all(|m| m.rec.outcome == Outcome::Fail) {
                    out.push(Violation::new(
                        ViolationKind::DirtyRead,
                        format!("read of {key:?} returned {v}, written only by a FAILED write"),
                    ));
                    continue;
                }
            }
            if semantics == RegisterSemantics::Strong {
                check_stale(key, muts, read, ret, out);
            }
        }
    }

    fn check_stale(
        key: &str,
        muts: &[Mutation<'_>],
        read: &OpRecord,
        ret: Option<u64>,
        out: &mut Vec<Violation>,
    ) {
        // The latest acknowledged mutation fully completed before the read began.
        let Some(latest) = muts
            .iter()
            .filter(|m| m.rec.outcome.is_ok() && m.rec.precedes(read))
            .max_by_key(|m| m.rec.end)
        else {
            return;
        };
        if ret == latest.val {
            return;
        }
        // The read returned something else. That is only stale if what it
        // returned is strictly *older* than `latest`; returning a concurrent or
        // newer (possibly timed-out) mutation is legal.
        // A timed-out mutation's effect may land arbitrarily late, so it never
        // counts as strictly older than `latest`.
        let ret_is_older = match ret {
            Some(v) => muts
                .iter()
                .filter(|m| m.val == Some(v))
                .all(|m| m.rec.outcome != Outcome::Timeout && m.rec.precedes(latest.rec)),
            // `None` (missing) is older unless some delete is concurrent with or
            // after `latest`.
            None => !muts
                .iter()
                .any(|m| m.val.is_none() && !m.rec.precedes(latest.rec)),
        };
        // A value never written at all is corruption, reported via final-state
        // checking; only flag staleness for values we can date.
        let known = match ret {
            Some(v) => muts.iter().any(|m| m.val == Some(v)),
            None => true,
        };
        if known && ret_is_older {
            out.push(Violation::new(
                ViolationKind::StaleRead,
                format!(
                    "read of {key:?} at t={} returned {ret:?} although write of {:?} completed at t={}",
                    read.start, latest.val, latest.rec.end
                ),
            ));
        }
    }

    fn check_final(
        key: &str,
        muts: &[Mutation<'_>],
        final_val: Option<u64>,
        out: &mut Vec<Violation>,
    ) {
        // Candidate final values: acknowledged mutations not superseded by a
        // later acknowledged mutation, plus every timed-out mutation (unknown
        // effect), plus `None` if the key might never have been created.
        let superseded = |m: &Mutation<'_>| {
            muts.iter()
                .any(|n| n.rec.outcome.is_ok() && m.rec.precedes(n.rec))
        };
        let ok_candidates: Vec<&Mutation<'_>> = muts
            .iter()
            .filter(|m| m.rec.outcome.is_ok() && !superseded(m))
            .collect();
        let unknown_candidates: Vec<&Mutation<'_>> = muts
            .iter()
            .filter(|m| m.rec.outcome == Outcome::Timeout)
            .collect();

        let explainable = |v: Option<u64>| {
            ok_candidates.iter().any(|m| m.val == v)
                || unknown_candidates.iter().any(|m| m.val == v)
                || (v.is_none() && ok_candidates.is_empty())
        };

        if explainable(final_val) {
            return;
        }

        // Unexplainable final state: classify it.
        if let Some(v) = final_val {
            let ever_written = muts.iter().any(|m| m.val == Some(v));
            if !ever_written {
                out.push(Violation::new(
                    ViolationKind::DataCorruption,
                    format!("final value {v} of {key:?} was never written"),
                ));
                return;
            }
            let only_failed_writers = muts
                .iter()
                .filter(|m| m.val == Some(v))
                .all(|m| m.rec.outcome == Outcome::Fail);
            if only_failed_writers {
                out.push(Violation::new(
                    ViolationKind::DataCorruption,
                    format!("key {key:?} durably holds {v}, which was only written by a FAILED write"),
                ));
                return;
            }
            let deleted_after = muts.iter().any(|d| {
                d.val.is_none()
                    && d.rec.outcome.is_ok()
                    && muts
                        .iter()
                        .filter(|w| w.val == Some(v))
                        .all(|w| w.rec.precedes(d.rec))
            });
            if deleted_after {
                out.push(Violation::new(
                    ViolationKind::ReappearanceOfDeletedData,
                    format!("final value {v} of {key:?} had been successfully deleted"),
                ));
                return;
            }
        }
        let lost: Vec<String> = ok_candidates
            .iter()
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
}

/// Builds a random multi-key register history: writes, reads and deletes
/// with every outcome, values that repeat, reads of values never written,
/// touching intervals (`end == start`) and equal `end` times.
fn random_register_history(parts: &[(u8, u8, u8, u8, u8, u8)]) -> History {
    const KEYS: [&str; 3] = ["a", "b", "c"];
    let mut h = History::new();
    let mut t = 0u64;
    for &(key, kind, outcome, val, gap, len) in parts {
        let key = KEYS[usize::from(key) % KEYS.len()].to_string();
        // Starts never decrease; gaps and lengths of 0 make intervals touch
        // and completion times coincide.
        t += u64::from(gap % 3);
        let (start, end) = (t, t + u64::from(len % 4));
        // Writes use values 0..4; reads may return 0..6, so 4 and 5 are
        // never written.
        let val = u64::from(val);
        let (op, outcome) = match kind % 3 {
            0 => {
                let op = Op::Write { key, val: val % 4 };
                (op, mutation_outcome(outcome))
            }
            1 => {
                let ret = (val % 7 != 6).then_some(val % 7);
                let outcome = match outcome % 4 {
                    0 | 1 => Outcome::Ok(ret),
                    2 => Outcome::Fail,
                    _ => Outcome::Timeout,
                };
                (Op::Read { key }, outcome)
            }
            _ => (Op::Delete { key }, mutation_outcome(outcome)),
        };
        h.push(OpRecord {
            client: NodeId(usize::from(gap % 2)),
            op,
            outcome,
            start,
            end,
        });
    }
    h
}

fn mutation_outcome(outcome: u8) -> Outcome {
    match outcome % 4 {
        0 | 1 => Outcome::Ok(None),
        2 => Outcome::Fail,
        _ => Outcome::Timeout,
    }
}

/// A final state over keys `a`..`d` (`d` never appears in the history):
/// each key is absent (unchecked), `None`, or a value in 0..6.
fn random_final_state(picks: &[u8]) -> BTreeMap<String, Option<u64>> {
    let mut fin = BTreeMap::new();
    for (key, &pick) in ["a", "b", "c", "d"].iter().zip(picks) {
        match pick % 8 {
            0 => {}
            1 => {
                fin.insert(key.to_string(), None);
            }
            v => {
                fin.insert(key.to_string(), Some(u64::from(v - 2)));
            }
        }
    }
    fin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed register checker reports exactly what the quadratic
    /// reference reports: the same violations, in the same order, with the
    /// same text, under both semantics.
    #[test]
    fn register_checker_matches_reference(
        parts in proptest::collection::vec((0u8..3, 0u8..3, 0u8..4, 0u8..7, 0u8..3, 0u8..4), 0..64),
        picks in proptest::collection::vec(0u8..8, 4..5),
    ) {
        let h = random_register_history(&parts);
        let fin = random_final_state(&picks);
        for semantics in [RegisterSemantics::Strong, RegisterSemantics::Eventual] {
            let got = check_register(&h, semantics, &fin);
            let want = reference::check_register(&h, semantics, &fin);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{:?}\n{}\nfinal: {:?}",
                semantics,
                h.render(),
                fin
            );
        }
    }
}
