//! The High-Load Clarkson Algorithm (paper, Section 3: Algorithm 5) and
//! its accelerated variant (Section 3.1).
//!
//! For `|H| = ω(n log n)` the Low-Load algorithm's per-round work
//! `Θ(m/(dn))` becomes super-logarithmic, so the High-Load algorithm
//! inverts the flow: instead of every node sampling the network, every
//! node *pushes its local optimal basis* `B_i = basis(H(v_i))` to `C`
//! random nodes per round; receivers reply by pushing each of their
//! local violators of the received bases to random nodes. Since
//! `H(v_i)` is a uniformly random `1/n` fraction of `H(V)`, the local
//! basis plays the role of the basis of a random sample of size
//! `≈ m/n`, and a Chernoff-style bound on the number of violators that
//! holds for **all** LP-type problems — including the degenerate
//! instances that Clarkson-style duplication creates, where the
//! Gärtner–Welzl bound does not apply — gives `|W_i| = O(d log n)`
//! w.h.p. (Lemmas 14–15). No filtering is needed: `|H(V)|` grows by at
//! most `O(C·d·n log n)` per round, while a basis element's multiplicity
//! grows by a `(C+1)` factor every `d` rounds (Lemmas 16–17), forcing
//! termination in `O(d log n)` rounds for `C = 1` and
//! `O(d log n / log log n)` for `C = logᵉ n` (Theorem 4).
//!
//! # Append-only holdings
//!
//! A node's pool `H(v_i)` (`HighLoadState::h`) only grows, in `absorb`;
//! nothing is ever deleted or reordered. Two per-round shortcuts rest on
//! that, and both leave every result byte-identical:
//!
//! * the local basis is recomputed only when `h.len()` changed since the
//!   last `basis_of` (which is a pure function of its input);
//! * the termination audit scans only `h[from..]`, where `from` is the
//!   entry's watermark: the prefix already found free of violators of
//!   that entry's basis (see [`crate::termination`]).

use crate::termination::{TermEntry, TermState};
use gossip_sim::{NodeControl, PhaseRng, Protocol, Response, Served};
use lpt::{BasisOf, LpType};
use std::sync::Arc;

/// Tuning knobs for the High-Load protocol.
#[derive(Clone, Debug)]
pub struct HighLoadConfig {
    /// How many copies of the local basis each node pushes per round
    /// (the acceleration parameter `C` of Section 3.1).
    pub push_count: usize,
    /// Termination maturity factor (as in [`crate::low_load`]).
    pub maturity_factor: f64,
}

impl Default for HighLoadConfig {
    fn default() -> Self {
        HighLoadConfig {
            push_count: 1,
            maturity_factor: 2.0,
        }
    }
}

impl HighLoadConfig {
    /// The accelerated configuration of Section 3.1: `C = ⌈log2(n)^ε⌉`,
    /// giving `O(d log n / log log n)` rounds with `O(d log^{1+ε} n)`
    /// work.
    pub fn accelerated(n: usize, epsilon: f64) -> Self {
        let log2n = (n.max(2) as f64).log2();
        HighLoadConfig {
            push_count: log2n.powf(epsilon).ceil().max(1.0) as usize,
            maturity_factor: 3.0,
        }
    }
}

/// Messages of the High-Load protocol.
#[derive(Debug)]
pub enum HighLoadMsg<P: LpType> {
    /// A duplicated element.
    Elem(P::Element),
    /// A node's local optimal basis. Shared behind an [`Arc`]: the
    /// accelerated variant fans the same basis out `C` times per round,
    /// and with interned payloads every copy after the first costs a
    /// reference-count bump instead of a deep clone of the basis.
    Basis(Arc<BasisOf<P>>),
    /// A termination entry (its basis is Arc-shared too).
    Term(TermEntry<P>),
}

impl<P: LpType> Clone for HighLoadMsg<P> {
    fn clone(&self) -> Self {
        match self {
            HighLoadMsg::Elem(e) => HighLoadMsg::Elem(e.clone()),
            HighLoadMsg::Basis(b) => HighLoadMsg::Basis(Arc::clone(b)),
            HighLoadMsg::Term(t) => HighLoadMsg::Term(t.clone()),
        }
    }
}

/// Per-node state.
#[derive(Debug)]
pub struct HighLoadState<P: LpType> {
    /// All element copies currently held (`H(v_i)`; nothing is deleted).
    pub h: Vec<P::Element>,
    /// Bases received last round, processed this round (shared with
    /// the sender and every other recipient of the same broadcast).
    pub pending_bases: Vec<Arc<BasisOf<P>>>,
    /// Termination-protocol state.
    pub term: TermState<P>,
    /// The node's final output, once decided.
    pub output: Option<BasisOf<P>>,
    /// The node's current local basis (experiment stop predicates read
    /// this; the protocol itself only trusts the audited output).
    pub local_basis: Option<Arc<BasisOf<P>>>,
    /// The length of `h` when `local_basis` was computed.
    basis_len: usize,
    /// Local round counter.
    pub round: u64,
}

impl<P: LpType> HighLoadState<P> {
    /// Creates the state for a node initially holding `h`.
    pub fn new(h: Vec<P::Element>, maturity: u64) -> Self {
        HighLoadState {
            h,
            pending_bases: Vec::new(),
            term: TermState::new(maturity),
            output: None,
            local_basis: None,
            basis_len: 0,
            round: 0,
        }
    }
}

/// The High-Load Clarkson protocol (Algorithm 5 + termination of
/// Algorithm 3; `push_count > 1` gives the accelerated variant).
#[derive(Clone, Debug)]
pub struct HighLoadClarkson<P: LpType> {
    problem: P,
    push_count: usize,
    maturity: u64,
}

impl<P: LpType> HighLoadClarkson<P> {
    /// Builds the protocol for a network of `n` nodes.
    pub fn new(problem: P, n: usize, cfg: &HighLoadConfig) -> Self {
        let log2n = (n.max(2) as f64).log2();
        // Floor of 10 rounds: at tiny n the ceil(c*log2 n) window is too
        // short for the audit to make even one network traversal, and the
        // w.h.p. guarantees of Lemma 12 are asymptotic. The floor is
        // invisible for n >= 2^5 under the default factor.
        let maturity = ((cfg.maturity_factor * log2n).ceil().max(1.0) as u64).max(10);
        HighLoadClarkson {
            problem,
            push_count: cfg.push_count.max(1),
            maturity,
        }
    }

    /// The termination maturity window in rounds.
    pub fn maturity(&self) -> u64 {
        self.maturity
    }

    /// The acceleration parameter `C`.
    pub fn push_count(&self) -> usize {
        self.push_count
    }

    /// The problem being solved.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Builds the initial per-node state for this protocol.
    pub fn initial_state(&self, h: Vec<P::Element>) -> HighLoadState<P> {
        HighLoadState::new(h, self.maturity)
    }
}

impl<P: LpType + Sync> Protocol for HighLoadClarkson<P> {
    type State = HighLoadState<P>;
    type Msg = HighLoadMsg<P>;
    type Query = (); // the High-Load algorithm is push-only

    fn pulls(&self, _id: u32, _state: &HighLoadState<P>, _rng: &mut PhaseRng, _out: &mut Vec<()>) {}

    fn serve(
        &self,
        _id: u32,
        _state: &HighLoadState<P>,
        _query: &(),
        _rng: &mut PhaseRng,
    ) -> Option<Served<HighLoadMsg<P>>> {
        None
    }

    fn compute(
        &self,
        _id: u32,
        state: &mut HighLoadState<P>,
        _responses: &mut Vec<Option<Response<HighLoadMsg<P>>>>,
        _rng: &mut PhaseRng,
        pushes: &mut Vec<HighLoadMsg<P>>,
    ) -> NodeControl {
        let now = state.round;
        state.round += 1;

        // --- Termination protocol. --------------------------------------
        // `h` is append-only, so `h[..from]` was already found free of
        // violators of the entry's basis.
        let h = &state.h;
        let step = state.term.step(&self.problem, now, h.len(), |basis, from| {
            h[from..].iter().any(|x| self.problem.violates(basis, x))
        });
        for entry in step.pushes {
            pushes.push(HighLoadMsg::Term(entry));
        }
        if let Some(basis) = step.output {
            state.output = Some(basis);
            return NodeControl::Halt;
        }

        if state.h.is_empty() {
            // A node that never received an element just relays
            // termination traffic.
            state.pending_bases.clear();
            return NodeControl::Continue;
        }

        // --- Compute and broadcast the local basis. ---------------------
        // `basis_of` is pure and `h` only grows, so an unchanged length
        // means an unchanged local basis.
        let basis = match &state.local_basis {
            Some(basis) if state.basis_len == state.h.len() => Arc::clone(basis),
            _ => {
                let mut basis = self.problem.basis_of(&state.h);
                self.problem.canonicalize(&mut basis);
                state.basis_len = state.h.len();
                Arc::new(basis)
            }
        };
        // A basis with no local violators is (locally) optimal: inject it
        // for the network-wide audit. Our own basis trivially qualifies.
        // One Arc serves the audit entry, the C pushes, and local_basis.
        state.term.inject(&self.problem, now, Arc::clone(&basis));
        for _ in 0..self.push_count {
            pushes.push(HighLoadMsg::Basis(Arc::clone(&basis)));
        }
        state.local_basis = Some(basis);

        // --- Answer received bases with violators. ----------------------
        for bj in &state.pending_bases {
            for x in &state.h {
                if self.problem.violates(bj, x) {
                    pushes.push(HighLoadMsg::Elem(x.clone()));
                }
            }
        }
        state.pending_bases.clear();

        NodeControl::Continue
    }

    fn absorb(
        &self,
        _id: u32,
        state: &mut HighLoadState<P>,
        delivered: &mut Vec<HighLoadMsg<P>>,
        _rng: &mut PhaseRng,
    ) -> NodeControl {
        for msg in delivered.drain(..) {
            match msg {
                HighLoadMsg::Elem(e) => state.h.push(e),
                HighLoadMsg::Basis(b) => state.pending_bases.push(b),
                HighLoadMsg::Term(t) => state.term.receive(t),
            }
        }
        NodeControl::Continue
    }

    fn msg_words(&self, msg: &HighLoadMsg<P>) -> usize {
        match msg {
            HighLoadMsg::Elem(_) => 1,
            HighLoadMsg::Basis(b) => b.len() + 1,
            HighLoadMsg::Term(e) => e.basis.len() + 2,
        }
    }

    fn load(&self, state: &HighLoadState<P>) -> usize {
        state.h.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::{Network, NetworkConfig};
    use lpt::exhaustive::test_problems::Interval;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn scatter(elements: &[i64], n: usize, seed: u64) -> Vec<Vec<i64>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = vec![Vec::new(); n];
        for &e in elements {
            out[rng.gen_range(0..n)].push(e);
        }
        out
    }

    fn run_interval(
        n: usize,
        elements: &[i64],
        cfg: &HighLoadConfig,
        seed: u64,
    ) -> (Vec<Option<BasisOf<Interval>>>, u64) {
        let proto = HighLoadClarkson::new(Interval, n, cfg);
        let states: Vec<_> = scatter(elements, n, seed)
            .into_iter()
            .map(|h| proto.initial_state(h))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(seed));
        let outcome = net.run(2000);
        assert!(outcome.all_halted(), "did not terminate: {outcome:?}");
        (
            net.states().iter().map(|s| s.output.clone()).collect(),
            outcome.rounds(),
        )
    }

    #[test]
    fn interval_consensus() {
        let elements: Vec<i64> = (0..2000).map(|i| (i * 48271) % 1511 - 755).collect();
        let lo = *elements.iter().min().unwrap();
        let hi = *elements.iter().max().unwrap();
        let (outputs, _) = run_interval(128, &elements, &HighLoadConfig::default(), 21);
        for out in &outputs {
            assert_eq!(out.as_ref().unwrap().value, hi - lo);
        }
    }

    #[test]
    fn heavy_load_per_node() {
        // |H| = 64·n: the high-load regime the algorithm is designed for.
        let n = 64;
        let elements: Vec<i64> = (0..(64 * n) as i64).map(|i| (i * 137) % 4099).collect();
        let (outputs, rounds) = run_interval(n, &elements, &HighLoadConfig::default(), 22);
        let hi = *elements.iter().max().unwrap();
        let lo = *elements.iter().min().unwrap();
        for out in &outputs {
            assert_eq!(out.as_ref().unwrap().value, hi - lo);
        }
        assert!(rounds < 200, "rounds {rounds}");
    }

    #[test]
    fn accelerated_converges_faster_or_equal() {
        let n = 256;
        let elements: Vec<i64> = (0..4 * n as i64).map(|i| (i * 911) % 7919).collect();
        // Compare first-candidate rounds rather than full termination
        // (termination adds the same maturity window to both).
        let run_candidate_rounds = |cfg: &HighLoadConfig, seed: u64| -> u64 {
            let proto = HighLoadClarkson::new(Interval, n, cfg);
            let states: Vec<_> = scatter(&elements, n, seed)
                .into_iter()
                .map(|h| proto.initial_state(h))
                .collect();
            let hi = *elements.iter().max().unwrap();
            let lo = *elements.iter().min().unwrap();
            let mut net = Network::new(proto, states, NetworkConfig::with_seed(seed));
            let outcome = net.run_until(2000, |net| {
                net.states()
                    .iter()
                    .any(|s| s.local_basis.as_ref().is_some_and(|b| b.value == hi - lo))
            });
            outcome.rounds()
        };
        let mut plain_sum = 0;
        let mut accel_sum = 0;
        for seed in 0..5 {
            plain_sum += run_candidate_rounds(&HighLoadConfig::default(), 300 + seed);
            accel_sum += run_candidate_rounds(
                &HighLoadConfig {
                    push_count: 8,
                    ..Default::default()
                },
                300 + seed,
            );
        }
        assert!(
            accel_sum <= plain_sum,
            "accelerated ({accel_sum}) should not be slower than plain ({plain_sum}) on average"
        );
    }

    #[test]
    fn accelerated_config_formula() {
        let cfg = HighLoadConfig::accelerated(1 << 16, 1.0);
        assert_eq!(cfg.push_count, 16);
        let cfg = HighLoadConfig::accelerated(1 << 16, 0.5);
        assert_eq!(cfg.push_count, 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let elements: Vec<i64> = (0..500).map(|i| (i * 17) % 997).collect();
        let (a, ra) = run_interval(64, &elements, &HighLoadConfig::default(), 23);
        let (b, rb) = run_interval(64, &elements, &HighLoadConfig::default(), 23);
        assert_eq!(ra, rb);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_ref().unwrap().value, y.as_ref().unwrap().value);
        }
    }

    #[test]
    fn empty_nodes_are_harmless() {
        // More nodes than elements: some nodes start empty and just relay.
        let elements: Vec<i64> = (0..20).collect();
        let (outputs, _) = run_interval(128, &elements, &HighLoadConfig::default(), 24);
        for out in &outputs {
            assert_eq!(out.as_ref().unwrap().value, 19);
        }
    }

    /// After every round, each live node's memoized `local_basis` equals
    /// a freshly canonicalized `basis_of` of the pool it computed from
    /// (the pool before that round's absorb, a prefix of the pool now).
    fn assert_memo_fresh(cfg: &HighLoadConfig, seed: u64) {
        use lpt_problems::Med;
        let n = 64;
        let points = lpt_workloads::med::triple_disk(4 * n, seed);
        let proto = HighLoadClarkson::new(Med, n, cfg);
        let states: Vec<_> = crate::driver::scatter(&points, n, seed)
            .expect("n > 0")
            .into_iter()
            .map(|h| proto.initial_state(h))
            .collect();
        let mut net = Network::new(proto, states, NetworkConfig::with_seed(seed));
        let mut before: Vec<_> = net.states().iter().map(|s| s.h.clone()).collect();
        let mut rounds = 0;
        while net.halted_count() < n as u64 {
            assert!(rounds < 2000, "did not terminate");
            net.round();
            rounds += 1;
            for (i, (state, prev)) in net.states().iter().zip(&before).enumerate() {
                assert_eq!(
                    &state.h[..prev.len()],
                    &prev[..],
                    "node {i}: h is append-only"
                );
                if net.is_halted(i) || prev.is_empty() {
                    continue;
                }
                let mut fresh = Med.basis_of(prev);
                Med.canonicalize(&mut fresh);
                let memo = state.local_basis.as_deref().expect("computed this round");
                assert_eq!(memo, &fresh, "node {i}, round {rounds}: stale local basis");
            }
            before = net.states().iter().map(|s| s.h.clone()).collect();
        }
    }

    #[test]
    fn memoized_local_basis_stays_fresh() {
        assert_memo_fresh(&HighLoadConfig::default(), 31);
        let accelerated = HighLoadConfig {
            push_count: 8,
            ..Default::default()
        };
        assert_memo_fresh(&accelerated, 32);
    }
}
