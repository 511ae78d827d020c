//! Gossip termination detection (the paper's Algorithm 3, Section 2.2).
//!
//! When a node locally believes it has found the optimum (e.g. its
//! sampled basis has no violators among its own elements), it *injects*
//! an entry `(t, B, 1)`: round stamp, candidate basis, validity bit.
//! Entries spread epidemically — every node pushes one copy of each
//! stored entry per round — while being continuously *audited*: any node
//! holding an element that violates `B` clears the bit to `(t, B, 0)`.
//! Per round stamp `t`, only the entry with the largest `f(B)` survives
//! merging (ties broken by the canonical basis order, mirroring the
//! paper's assumption that `f(B') = f(B)` iff `B' = B`), and the validity
//! bit merges by minimum. After `maturity` rounds an entry is *mature*:
//! it is removed, and if its bit is still 1 the node outputs `f(B)` and
//! halts.
//!
//! With `maturity = c·log n` for a large enough constant `c`, Lemma 12
//! shows that (w.h.p.) every node outputs the same optimal value within
//! `O(log n)` rounds of the first genuine detection, and that no node
//! ever outputs a non-optimal value: an invalid entry needs `Θ(log n)`
//! rounds to spread, by which time the `(t, B, 0)` version — spreading
//! equally fast from the auditing nodes — has overwritten it everywhere.
//!
//! # The audit watermark
//!
//! Each live entry remembers `audited`: the length of the prefix of the
//! node's holdings already found free of violators of its basis. A new
//! entry starts at 0; a `Greater` merge replaces the basis and resets the
//! watermark to 0; an `Equal` merge keeps it (same basis, same audit).
//! [`TermState::step`] hands each valid entry's watermark to the audit
//! closure as `from` and then advances it to the current holding count.
//! A protocol whose holdings are *append-only* (High-Load: nothing is
//! ever deleted) may scan only `held[from..]`; one whose holdings can
//! shrink or be replaced (Low-Load's filtering) must ignore `from` and
//! scan everything. The state itself never skips the closure, since an
//! unchanged count does not mean unchanged holdings.

use lpt::{cmp_basis, BasisOf, LpType};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One termination entry `(t, B, x)`.
///
/// The basis payload is behind an [`Arc`]: every node re-pushes each
/// live entry every round, so sharing one allocation per circulating
/// basis turns the dominant per-round clone of the termination protocol
/// into a reference-count bump.
#[derive(Debug)]
pub struct TermEntry<P: LpType> {
    /// Round stamp of the injection.
    pub t: u64,
    /// Candidate optimal basis (shared, immutable).
    pub basis: Arc<BasisOf<P>>,
    /// Validity bit: `true` until some node finds a violator.
    pub valid: bool,
}

impl<P: LpType> Clone for TermEntry<P> {
    fn clone(&self) -> Self {
        TermEntry {
            t: self.t,
            basis: Arc::clone(&self.basis),
            valid: self.valid,
        }
    }
}

/// Outcome of one termination step at one node.
#[derive(Debug, Default)]
pub struct TermStep<P: LpType> {
    /// Entries to push out this round (one copy per stored entry).
    pub pushes: Vec<TermEntry<P>>,
    /// If set, the node outputs this basis and halts.
    pub output: Option<BasisOf<P>>,
}

/// A live entry as stored at one node.
#[derive(Debug)]
struct Live<P: LpType> {
    basis: Arc<BasisOf<P>>,
    valid: bool,
    /// Length of the held prefix already found free of violators of
    /// `basis` (see the module docs).
    audited: usize,
}

impl<P: LpType> Clone for Live<P> {
    fn clone(&self) -> Self {
        Live {
            basis: Arc::clone(&self.basis),
            ..*self
        }
    }
}

/// Per-node state of the termination protocol.
#[derive(Debug)]
pub struct TermState<P: LpType> {
    /// Live entries keyed by round stamp.
    entries: BTreeMap<u64, Live<P>>,
    /// Entries received this round, merged at the next step.
    pending: Vec<TermEntry<P>>,
    /// Maturity window (`c·log n`).
    maturity: u64,
    /// The largest basis (by `cmp_basis`) this node has ever seen in any
    /// entry. Since every circulating basis is the basis of a subset of
    /// `H`, monotonicity gives `f(B) ≤ f(H)` for all of them — so a
    /// mature entry whose value is *below* `best_seen` is provably not
    /// optimal and must not be output, even if its audit bit survived.
    /// This is a safety net on top of the paper's audit: it turns "the
    /// invalidation spread in time, w.h.p." into "… or the node has seen
    /// any better candidate", which in practice removes the rare
    /// premature outputs at moderate maturity windows.
    best_seen: Option<Arc<BasisOf<P>>>,
}

impl<P: LpType> Clone for TermState<P> {
    fn clone(&self) -> Self {
        TermState {
            entries: self.entries.clone(),
            pending: self.pending.clone(),
            maturity: self.maturity,
            best_seen: self.best_seen.clone(),
        }
    }
}

impl<P: LpType> TermState<P> {
    /// Creates a state with the given maturity window (rounds an entry
    /// must survive unchallenged before it is believed).
    pub fn new(maturity: u64) -> Self {
        TermState {
            entries: BTreeMap::new(),
            pending: Vec::new(),
            maturity: maturity.max(1),
            best_seen: None,
        }
    }

    /// The maturity window.
    pub fn maturity(&self) -> u64 {
        self.maturity
    }

    /// Number of live entries (bounded by the maturity window).
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    /// Buffers an entry received from the network.
    pub fn receive(&mut self, entry: TermEntry<P>) {
        self.pending.push(entry);
    }

    /// Injects a locally detected candidate (validity bit 1). Takes a
    /// shared handle so callers that also broadcast or store the same
    /// basis reuse one allocation.
    pub fn inject(&mut self, problem: &P, t: u64, basis: Arc<BasisOf<P>>) {
        self.merge(
            problem,
            TermEntry {
                t,
                basis,
                valid: true,
            },
        );
    }

    fn merge(&mut self, problem: &P, e: TermEntry<P>) {
        let improves = match &self.best_seen {
            None => true,
            Some(best) => cmp_basis(problem, &e.basis, best) == Ordering::Greater,
        };
        if improves {
            self.best_seen = Some(Arc::clone(&e.basis));
        }
        let fresh = Live {
            basis: e.basis,
            valid: e.valid,
            audited: 0,
        };
        match self.entries.get_mut(&e.t) {
            None => {
                self.entries.insert(e.t, fresh);
            }
            Some(live) => match cmp_basis(problem, &fresh.basis, &live.basis) {
                Ordering::Greater => *live = fresh,
                Ordering::Equal => live.valid &= fresh.valid,
                Ordering::Less => {}
            },
        }
    }

    /// One round of Algorithm 3 at this node.
    ///
    /// `now` is the current round and `held` the number of elements this
    /// node currently holds. `has_violator(B, from)` must return whether
    /// any held element violates `B` (the audit `f(B) < f(B ∪ H(v_i))`);
    /// it is called once per valid entry, and may skip the first `from`
    /// held elements only if the holdings are append-only (see the
    /// module docs).
    pub fn step(
        &mut self,
        problem: &P,
        now: u64,
        held: usize,
        mut has_violator: impl FnMut(&BasisOf<P>, usize) -> bool,
    ) -> TermStep<P> {
        // Merge everything received since the last step.
        let pending = std::mem::take(&mut self.pending);
        for e in pending {
            self.merge(problem, e);
        }

        let mut out = TermStep {
            pushes: Vec::new(),
            output: None,
        };
        let mut mature: Vec<u64> = Vec::new();
        for (&t, live) in self.entries.iter_mut() {
            if live.valid {
                live.valid = !has_violator(&live.basis, live.audited);
                live.audited = held;
            }
            if now.saturating_sub(t) >= self.maturity {
                mature.push(t);
            } else {
                // An Arc bump per re-push: the basis allocation is
                // shared by every copy of this entry in the network.
                out.pushes.push(TermEntry {
                    t,
                    basis: Arc::clone(&live.basis),
                    valid: live.valid,
                });
            }
        }
        for t in mature {
            let Live { basis, valid, .. } = self.entries.remove(&t).expect("collected above");
            let not_dominated = match &self.best_seen {
                None => true,
                Some(best) => cmp_basis(problem, &basis, best) != Ordering::Less,
            };
            if valid && not_dominated && out.output.is_none() {
                out.output = Some(Arc::try_unwrap(basis).unwrap_or_else(|a| (*a).clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpt::exhaustive::test_problems::Interval;
    use lpt::Basis;

    fn basis(lo: i64, hi: i64) -> BasisOf<Interval> {
        Basis::new(vec![lo, hi], hi - lo)
    }

    #[test]
    fn valid_entry_matures_into_output() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(3);
        st.inject(&p, 0, Arc::new(basis(0, 10)));
        for now in 0..3 {
            let step = st.step(&p, now, 0, |_, _| false);
            assert!(step.output.is_none(), "round {now}");
            assert_eq!(step.pushes.len(), 1);
        }
        let step = st.step(&p, 3, 0, |_, _| false);
        assert_eq!(step.output.unwrap().value, 10);
        assert!(step.pushes.is_empty());
        assert_eq!(st.live_entries(), 0);
    }

    #[test]
    fn audited_entry_is_suppressed() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(2);
        st.inject(&p, 0, Arc::new(basis(0, 10)));
        // A node holding the element 99 (outside [0,10]) audits it away.
        let step = st.step(&p, 0, 1, |b, _| Interval.violates(b, &99));
        assert_eq!(step.pushes.len(), 1);
        assert!(!step.pushes[0].valid);
        let step = st.step(&p, 2, 0, |_, _| false);
        assert!(step.output.is_none(), "invalidated entry must not output");
    }

    #[test]
    fn merge_keeps_larger_value() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        st.inject(&p, 1, Arc::new(basis(0, 5)));
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(0, 10)),
            valid: true,
        });
        let step = st.step(&p, 1, 0, |_, _| false);
        assert_eq!(step.pushes.len(), 1);
        assert_eq!(step.pushes[0].basis.value, 10, "larger f(B) wins the slot");
    }

    #[test]
    fn merge_equal_basis_ands_validity() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(0, 10)),
            valid: false,
        });
        let step = st.step(&p, 1, 0, |_, _| false);
        assert!(!step.pushes[0].valid, "x merges by minimum");
    }

    #[test]
    fn smaller_value_is_discarded() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(2, 7)),
            valid: false,
        });
        let step = st.step(&p, 1, 0, |_, _| false);
        assert_eq!(step.pushes[0].basis.value, 10);
        assert!(
            step.pushes[0].valid,
            "discarded entry must not poison validity"
        );
    }

    #[test]
    fn entries_with_distinct_stamps_coexist() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(10);
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        st.inject(&p, 2, Arc::new(basis(0, 12)));
        let step = st.step(&p, 2, 0, |_, _| false);
        assert_eq!(step.pushes.len(), 2);
        assert_eq!(st.live_entries(), 2);
    }

    #[test]
    fn dominated_entry_defers_to_best_seen() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(1);
        st.receive(TermEntry {
            t: 0,
            basis: Arc::new(basis(0, 10)),
            valid: true,
        });
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(0, 12)),
            valid: true,
        });
        // At now = 5 both are long mature; the t = 0 entry is dominated
        // by the best basis ever seen (value 12 > 10) and by
        // monotonicity cannot be optimal, so the better one is output.
        let step = st.step(&p, 5, 0, |_, _| false);
        assert_eq!(
            step.output.unwrap().value,
            12,
            "dominated entries never output"
        );
    }

    #[test]
    fn dominated_then_better_arrives_later() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(3);
        st.inject(&p, 0, Arc::new(basis(0, 10)));
        // Before the weak entry matures, a strictly better candidate is
        // observed; the weak entry must be suppressed at maturity.
        st.receive(TermEntry {
            t: 2,
            basis: Arc::new(basis(0, 15)),
            valid: true,
        });
        let step = st.step(&p, 3, 0, |_, _| false);
        assert!(step.output.is_none(), "weak entry suppressed");
        // The better entry matures (and equals best_seen): output.
        let step = st.step(&p, 5, 0, |_, _| false);
        assert_eq!(step.output.unwrap().value, 15);
    }

    /// The High-Load audit: scans only the holdings past the watermark,
    /// recording every `from` it is handed.
    fn append_only_audit<'a>(
        held: &'a [i64],
        froms: &'a mut Vec<usize>,
    ) -> impl FnMut(&BasisOf<Interval>, usize) -> bool + 'a {
        move |b, from| {
            froms.push(from);
            held[from..].iter().any(|x| Interval.violates(b, x))
        }
    }

    #[test]
    fn greater_merge_reaudits_from_zero() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        let held = [5];
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        let mut froms = Vec::new();
        let step = st.step(&p, 1, held.len(), append_only_audit(&held, &mut froms));
        assert!(step.pushes[0].valid);
        // 5 was cleared for [0, 10] but violates the better [6, 20].
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(6, 20)),
            valid: true,
        });
        let step = st.step(&p, 2, held.len(), append_only_audit(&held, &mut froms));
        assert_eq!(froms, [0, 0], "the replacing basis is audited from 0");
        assert_eq!(step.pushes[0].basis.value, 14);
        assert!(!step.pushes[0].valid, "the cleared prefix is re-audited");
    }

    #[test]
    fn equal_merge_keeps_the_watermark() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        let held = [1, 2, 3];
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        let mut froms = Vec::new();
        st.step(&p, 1, held.len(), append_only_audit(&held, &mut froms));
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(0, 10)),
            valid: true,
        });
        let step = st.step(&p, 2, held.len(), append_only_audit(&held, &mut froms));
        assert_eq!(froms, [0, 3], "the second audit starts at `held`");
        assert!(step.pushes[0].valid);
        // Growing holdings are audited from the old watermark only.
        let grown = [1, 2, 3, 99];
        let step = st.step(&p, 3, grown.len(), append_only_audit(&grown, &mut froms));
        assert_eq!(froms, [0, 3, 3]);
        assert!(!step.pushes[0].valid, "the appended 99 is found");
    }

    #[test]
    fn invalid_entry_is_never_audited_again() {
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        let mut calls = 0;
        let step = st.step(&p, 1, 1, |_, _| {
            calls += 1;
            true
        });
        assert!(!step.pushes[0].valid);
        // An Equal merge with a valid copy must not revive it either.
        st.receive(TermEntry {
            t: 1,
            basis: Arc::new(basis(0, 10)),
            valid: true,
        });
        for now in 2..5 {
            let step = st.step(&p, now, 1, |_, _| {
                calls += 1;
                false
            });
            assert!(!step.pushes[0].valid);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn replaced_holdings_of_equal_size_are_reaudited() {
        // Low-Load's holdings are not append-only: its closure ignores
        // `from`, and the state must still call it on a length match.
        let p = Interval;
        let mut st: TermState<Interval> = TermState::new(5);
        st.inject(&p, 1, Arc::new(basis(0, 10)));
        let scan_all = |held: &[i64]| {
            let held = held.to_vec();
            move |b: &BasisOf<Interval>, _from: usize| held.iter().any(|x| Interval.violates(b, x))
        };
        let step = st.step(&p, 1, 2, scan_all(&[1, 2]));
        assert!(step.pushes[0].valid);
        let step = st.step(&p, 2, 2, scan_all(&[1, 99]));
        assert!(!step.pushes[0].valid, "same count, different elements");
    }
}
