//! The Low-Load Clarkson Algorithm (paper, Section 2: Algorithms 2–4).
//!
//! For `|H| = O(n log n)`, finds an optimal basis in `O(d log n)` rounds
//! with maximum work `O(d² + log n)` per node per round, w.h.p.
//! (Theorem 3). Per round, every node:
//!
//! 1. samples a random multiset `R_i` of size `6d²` from the global
//!    element multiset `H(V)` via `c(6d² + log n)` pulls (Section 2.1);
//! 2. computes the violators `W_i = {h ∈ H(v_i) : f(R_i) < f(R_i∪{h})}`
//!    among its *locally held* elements and pushes each to a uniformly
//!    random node — the distributed form of Clarkson's multiplicity
//!    doubling;
//! 3. absorbs pushed elements into its local collection;
//! 4. *filters*: keeps each non-original element independently with
//!    probability `1/(1 + 1/(2d))`, which caps `|H(V)| = O(|H₀|)`
//!    (Lemma 9) without ever deleting an original element (so no element
//!    is washed out and correctness is preserved);
//! 5. when `W_i = ∅` (i.e. `f(R_i) = f(R_i ∪ H(v_i))`), injects the
//!    basis of `R_i` into the termination protocol (Algorithm 3), which
//!    audits it network-wide for `c·log n` rounds before anyone outputs.
//!
//! The pull-phase extension (Algorithm 4) handles `|H| < n`: a node that
//! starts with no elements keeps pulling until it receives one original
//! element, then re-scatters it as a new `H₀` copy, guaranteeing
//! `|H₀| ≥ n` shortly after the start.

use crate::sampling::{extract_sample_from, pull_count, SampleOutcome};
use crate::termination::{TermEntry, TermState};
use gossip_sim::{NodeControl, PhaseRng, Protocol, Response, Served};
use lpt::{BasisOf, LpType};
use rand::Rng;
use std::sync::Arc;

/// Tuning knobs for the Low-Load protocol. Defaults follow the paper.
#[derive(Clone, Debug)]
pub struct LowLoadConfig {
    /// Sample size `r`; `None` = the paper's `6·d²`.
    pub sample_size: Option<usize>,
    /// Pull-count factor `c` in `s = c(6d² + log n)`.
    pub pull_factor: f64,
    /// Fraction of successful pulls above which the small-instance
    /// sampling relaxation applies (see [`crate::sampling`]).
    pub relaxed_threshold: f64,
    /// Keep probability of the filtering step; `None` = the paper's
    /// `1/(1 + 1/(2d))`. Exposed for the filtering ablation.
    pub keep_prob: Option<f64>,
    /// Termination maturity factor `c`: entries mature after
    /// `ceil(c·log2 n)` rounds.
    pub maturity_factor: f64,
}

impl Default for LowLoadConfig {
    fn default() -> Self {
        LowLoadConfig {
            sample_size: None,
            pull_factor: 2.0,
            relaxed_threshold: 0.5,
            keep_prob: None,
            maturity_factor: 3.0,
        }
    }
}

/// Messages of the Low-Load protocol.
#[derive(Debug)]
pub enum LowLoadMsg<P: LpType> {
    /// A duplicated element (joins the receiver's filterable pool).
    Elem(P::Element),
    /// A re-scattered original element (joins the receiver's `H₀`;
    /// only sent during the pull phase, Algorithm 4).
    Elem0(P::Element),
    /// A termination entry (Algorithm 3).
    Term(TermEntry<P>),
}

impl<P: LpType> Clone for LowLoadMsg<P> {
    fn clone(&self) -> Self {
        match self {
            LowLoadMsg::Elem(e) => LowLoadMsg::Elem(e.clone()),
            LowLoadMsg::Elem0(e) => LowLoadMsg::Elem0(e.clone()),
            LowLoadMsg::Term(t) => LowLoadMsg::Term(t.clone()),
        }
    }
}

/// Pull queries of the Low-Load protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LowLoadQuery {
    /// "Send me a uniformly random element copy of your `H(v)`."
    Sample,
    /// "Send me a uniformly random element of your `H₀(v)`" (pull phase).
    PullH0,
}

/// Per-node state.
#[derive(Debug)]
pub struct LowLoadState<P: LpType> {
    /// Original elements (never deleted).
    pub h0: Vec<P::Element>,
    /// Filterable element copies.
    pub extra: Vec<P::Element>,
    /// Whether the node is still in its pull phase (Algorithm 4).
    pub pull_phase: bool,
    /// Termination-protocol state.
    pub term: TermState<P>,
    /// The node's final output, once decided.
    pub output: Option<BasisOf<P>>,
    /// Most recent sampled basis that had no local violators — the
    /// node's current candidate for `f(H)` (used by experiment stop
    /// predicates; the protocol itself only trusts the audited output).
    /// Shared with the termination entry it was injected as.
    pub candidate: Option<Arc<BasisOf<P>>>,
    /// Round at which `candidate` was first set.
    pub candidate_round: Option<u64>,
    /// Local round counter (advances once per `compute`).
    pub round: u64,
    /// Number of rounds in which sampling failed.
    pub sampling_failures: u64,
}

impl<P: LpType> LowLoadState<P> {
    /// Creates the state for a node that initially holds `h0`.
    ///
    /// Nodes starting empty enter the pull phase (Algorithm 4).
    pub fn new(h0: Vec<P::Element>, maturity: u64) -> Self {
        let pull_phase = h0.is_empty();
        LowLoadState {
            h0,
            extra: Vec::new(),
            pull_phase,
            term: TermState::new(maturity),
            output: None,
            candidate: None,
            candidate_round: None,
            round: 0,
            sampling_failures: 0,
        }
    }

    /// Number of element copies currently held.
    pub fn held(&self) -> usize {
        self.h0.len() + self.extra.len()
    }

    fn element_at(&self, idx: usize) -> &P::Element {
        if idx < self.h0.len() {
            &self.h0[idx]
        } else {
            &self.extra[idx - self.h0.len()]
        }
    }
}

/// The Low-Load Clarkson protocol (Algorithm 2 + pull phase of
/// Algorithm 4 + termination of Algorithm 3).
#[derive(Clone, Debug)]
pub struct LowLoadClarkson<P: LpType> {
    problem: P,
    r: usize,
    s: usize,
    keep_prob: f64,
    relaxed_threshold: f64,
    maturity: u64,
}

impl<P: LpType> LowLoadClarkson<P> {
    /// Builds the protocol for a network of `n` nodes.
    pub fn new(problem: P, n: usize, cfg: &LowLoadConfig) -> Self {
        let d = problem.dim().max(1);
        let r = cfg.sample_size.unwrap_or(6 * d * d).max(1);
        let s = pull_count(d, n, cfg.pull_factor).max(r);
        let keep_prob = cfg
            .keep_prob
            .unwrap_or(1.0 / (1.0 + 1.0 / (2.0 * d as f64)));
        assert!((0.0..=1.0).contains(&keep_prob), "keep_prob out of range");
        let log2n = (n.max(2) as f64).log2();
        // Floor of 10 rounds: at tiny n the ceil(c*log2 n) window is too
        // short for the audit to make even one network traversal, and the
        // w.h.p. guarantees of Lemma 12 are asymptotic. The floor is
        // invisible for n >= 2^5 under the default factor.
        let maturity = ((cfg.maturity_factor * log2n).ceil().max(1.0) as u64).max(10);
        LowLoadClarkson {
            problem,
            r,
            s,
            keep_prob,
            relaxed_threshold: cfg.relaxed_threshold,
            maturity,
        }
    }

    /// The termination maturity window in rounds.
    pub fn maturity(&self) -> u64 {
        self.maturity
    }

    /// The per-round pull count `s`.
    pub fn pull_count(&self) -> usize {
        self.s
    }

    /// The sample size `r`.
    pub fn sample_size(&self) -> usize {
        self.r
    }

    /// The problem being solved.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Builds the initial per-node state for this protocol.
    pub fn initial_state(&self, h0: Vec<P::Element>) -> LowLoadState<P> {
        LowLoadState::new(h0, self.maturity)
    }
}

impl<P: LpType + Sync> Protocol for LowLoadClarkson<P> {
    type State = LowLoadState<P>;
    type Msg = LowLoadMsg<P>;
    type Query = LowLoadQuery;

    fn pulls(
        &self,
        _id: u32,
        state: &LowLoadState<P>,
        _rng: &mut PhaseRng,
        out: &mut Vec<LowLoadQuery>,
    ) {
        if state.pull_phase {
            out.push(LowLoadQuery::PullH0);
        } else {
            out.extend(std::iter::repeat_n(LowLoadQuery::Sample, self.s));
        }
    }

    fn serve(
        &self,
        _id: u32,
        state: &LowLoadState<P>,
        query: &LowLoadQuery,
        rng: &mut PhaseRng,
    ) -> Option<Served<LowLoadMsg<P>>> {
        match query {
            LowLoadQuery::Sample => {
                let held = state.held();
                if held == 0 {
                    return None;
                }
                let idx = rng.gen_range(0..held);
                Some(Served {
                    msg: LowLoadMsg::Elem(state.element_at(idx).clone()),
                    slot: idx as u64,
                })
            }
            LowLoadQuery::PullH0 => {
                if state.h0.is_empty() {
                    return None;
                }
                let idx = rng.gen_range(0..state.h0.len());
                Some(Served {
                    msg: LowLoadMsg::Elem(state.h0[idx].clone()),
                    slot: idx as u64,
                })
            }
        }
    }

    fn compute(
        &self,
        _id: u32,
        state: &mut LowLoadState<P>,
        responses: &mut Vec<Option<Response<LowLoadMsg<P>>>>,
        rng: &mut PhaseRng,
        pushes: &mut Vec<LowLoadMsg<P>>,
    ) -> NodeControl {
        let now = state.round;
        state.round += 1;

        // --- Termination protocol (beginning of the iteration). --------
        // Filtering shrinks `extra`, so the holdings are not append-only:
        // every audit scans all of them and ignores the watermark.
        let (h0, extra) = (&state.h0, &state.extra);
        let held = h0.len() + extra.len();
        let step = state.term.step(&self.problem, now, held, |basis, _from| {
            h0.iter()
                .chain(extra.iter())
                .any(|h| self.problem.violates(basis, h))
        });
        for entry in step.pushes {
            pushes.push(LowLoadMsg::Term(entry));
        }
        if let Some(basis) = step.output {
            state.output = Some(basis);
            return NodeControl::Halt;
        }

        if state.pull_phase {
            // Algorithm 4: keep pulling until one original element
            // arrives, then re-scatter it.
            if let Some(resp) = responses.drain(..).flatten().next() {
                if let LowLoadMsg::Elem(h) = resp.msg {
                    pushes.push(LowLoadMsg::Elem0(h));
                    state.pull_phase = false;
                }
            }
        } else {
            // --- Main Clarkson iteration (Algorithm 2). -----------------
            // Sampling reads the engine's response buffer in place;
            // pulls only ever return element payloads (never term
            // entries), so the projection is total on real responses.
            let sampled = extract_sample_from(
                responses,
                self.r,
                self.relaxed_threshold,
                rng,
                |m: &LowLoadMsg<P>| match m {
                    LowLoadMsg::Elem(e) | LowLoadMsg::Elem0(e) => Some(e),
                    LowLoadMsg::Term(_) => None,
                },
            );
            match sampled {
                SampleOutcome::Sample(sample) => {
                    let mut basis = self.problem.basis_of(&sample);
                    self.problem.canonicalize(&mut basis);
                    let mut any_violator = false;
                    for h in state.h0.iter().chain(state.extra.iter()) {
                        if self.problem.violates(&basis, h) {
                            any_violator = true;
                            pushes.push(LowLoadMsg::Elem(h.clone()));
                        }
                    }
                    if !any_violator {
                        // f(R_i) = f(R_i ∪ H(v_i)): candidate detected.
                        // One Arc serves the audit entry and the local
                        // candidate slot.
                        let basis = Arc::new(basis);
                        state.term.inject(&self.problem, now, Arc::clone(&basis));
                        if state.candidate_round.is_none() {
                            state.candidate_round = Some(now);
                        }
                        state.candidate = Some(basis);
                    }
                }
                SampleOutcome::Failed => {
                    state.sampling_failures += 1;
                }
            }
        }

        // --- Filtering (never touches H₀). ------------------------------
        let keep = self.keep_prob;
        state.extra.retain(|_| rng.gen_bool(keep));

        NodeControl::Continue
    }

    fn absorb(
        &self,
        _id: u32,
        state: &mut LowLoadState<P>,
        delivered: &mut Vec<LowLoadMsg<P>>,
        _rng: &mut PhaseRng,
    ) -> NodeControl {
        for msg in delivered.drain(..) {
            match msg {
                LowLoadMsg::Elem(h) => state.extra.push(h),
                LowLoadMsg::Elem0(h) => state.h0.push(h),
                LowLoadMsg::Term(e) => state.term.receive(e),
            }
        }
        NodeControl::Continue
    }

    fn msg_words(&self, msg: &LowLoadMsg<P>) -> usize {
        match msg {
            LowLoadMsg::Elem(_) | LowLoadMsg::Elem0(_) => 1,
            LowLoadMsg::Term(e) => e.basis.len() + 2,
        }
    }

    fn load(&self, state: &LowLoadState<P>) -> usize {
        state.held()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::{Network, NetworkConfig};
    use lpt::exhaustive::test_problems::Interval;
    use rand_chacha::ChaCha8Rng;

    fn scatter(elements: &[i64], n: usize, seed: u64) -> Vec<Vec<i64>> {
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![Vec::new(); n];
        for &e in elements {
            out[rng.gen_range(0..n)].push(e);
        }
        out
    }

    fn run_interval(n: usize, elements: &[i64], seed: u64) -> Vec<Option<BasisOf<Interval>>> {
        let proto = LowLoadClarkson::new(Interval, n, &LowLoadConfig::default());
        let states: Vec<_> = scatter(elements, n, seed)
            .into_iter()
            .map(|h0| proto.initial_state(h0))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(seed));
        let outcome = net.run(2000);
        assert!(outcome.all_halted(), "did not terminate: {outcome:?}");
        net.states().iter().map(|s| s.output.clone()).collect()
    }

    #[test]
    fn interval_consensus_small() {
        let elements: Vec<i64> = (0..64).map(|i| (i * 37) % 101 - 50).collect();
        let lo = *elements.iter().min().unwrap();
        let hi = *elements.iter().max().unwrap();
        let outputs = run_interval(64, &elements, 11);
        for (i, out) in outputs.iter().enumerate() {
            let b = out.as_ref().expect("node output");
            assert_eq!(b.value, hi - lo, "node {i}");
        }
    }

    #[test]
    fn interval_consensus_more_elements_than_nodes() {
        let elements: Vec<i64> = (0..1000)
            .map(|i| (i * 2654435761_i64) % 777 - 388)
            .collect();
        let lo = *elements.iter().min().unwrap();
        let hi = *elements.iter().max().unwrap();
        let outputs = run_interval(128, &elements, 12);
        for out in &outputs {
            assert_eq!(out.as_ref().unwrap().value, hi - lo);
        }
    }

    #[test]
    fn pull_phase_handles_fewer_elements_than_nodes() {
        // |H| = 5 << n = 128: Algorithm 4's pull phase must bootstrap H0.
        let elements: Vec<i64> = vec![3, -7, 42, 0, 13];
        let outputs = run_interval(128, &elements, 13);
        for out in &outputs {
            assert_eq!(out.as_ref().unwrap().value, 49);
        }
    }

    #[test]
    fn single_node_network() {
        let elements: Vec<i64> = (0..40).collect();
        let outputs = run_interval(1, &elements, 14);
        assert_eq!(outputs[0].as_ref().unwrap().value, 39);
    }

    #[test]
    fn work_bound_holds() {
        let n = 512;
        let elements: Vec<i64> = (0..n as i64).map(|i| (i * 97) % 501).collect();
        let proto = LowLoadClarkson::new(Interval, n, &LowLoadConfig::default());
        let s = proto.pull_count();
        let states: Vec<_> = scatter(&elements, n, 15)
            .into_iter()
            .map(|h0| proto.initial_state(h0))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(15));
        let outcome = net.run(2000);
        assert!(outcome.all_halted());
        // Work per round: s pulls + |W_i| + termination pushes. Theorem 3
        // says O(d² + log n); assert a generous concrete multiple.
        let bound = (s as u64) + 30 * (n as f64).log2() as u64;
        assert!(
            net.metrics().max_node_work() <= bound,
            "max work {} > bound {bound}",
            net.metrics().max_node_work()
        );
    }

    #[test]
    fn load_stays_linear_in_h0() {
        // Lemma 9: |H(V)| = O(|H0|) thanks to filtering.
        let n = 256;
        let elements: Vec<i64> = (0..n as i64 * 2).map(|i| (i * 31) % 997).collect();
        let proto = LowLoadClarkson::new(Interval, n, &LowLoadConfig::default());
        let states: Vec<_> = scatter(&elements, n, 16)
            .into_iter()
            .map(|h0| proto.initial_state(h0))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(16));
        net.run(2000);
        let max_total_load = net
            .metrics()
            .rounds
            .iter()
            .map(|r| r.total_load)
            .max()
            .unwrap();
        assert!(
            max_total_load <= 6 * elements.len() as u64 + 6 * n as u64,
            "total load {max_total_load} blew past the Lemma 9 bound"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let elements: Vec<i64> = (0..200).map(|i| (i * 53) % 301).collect();
        let a = run_interval(64, &elements, 99);
        let b = run_interval(64, &elements, 99);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap().value, y.as_ref().unwrap().value);
        }
    }
}
