//! Benchmark-side wrappers that time a layer from outside by
//! delegating to its public trait: [`Counted`] wraps an [`LpType`]
//! problem (the `basis_of` / `violates` primitives), [`Timed`] wraps a
//! gossip [`Protocol`] (the four per-node phases). Both forward every
//! call unchanged, so a wrapped run follows the same trajectory as the
//! bare one; the runners assert that.
//!
//! Counters are atomics only because the traits require `Sync`; traced
//! runs are single-threaded, so summed durations are wall time.

use gossip_sim::{NodeControl, NodeId, PhaseRng, Protocol, Response, Served};
use lpt::{Basis, LpType};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cost of one `Instant::now()` pair on this machine, in ns: the
/// median of many empty intervals, measured once per process and
/// subtracted from every timed call.
fn timer_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut d: Vec<u64> = (0..10_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        d.sort_unstable();
        d[d.len() / 2]
    })
}

/// Call counter plus a sampled timer: every `every`-th call is timed,
/// and [`Meter::ms`] scales the sampled time up to all calls. Cheap
/// primitives (`violates`, `serve`) are sampled so that the clock does
/// not dominate what it measures.
pub struct Meter {
    every: u64,
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl Meter {
    pub fn new(every: u64) -> Self {
        timer_floor_ns();
        Meter {
            every: every.max(1),
            calls: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            sampled_ns: AtomicU64::new(0),
        }
    }

    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.calls.fetch_add(1, Relaxed).is_multiple_of(self.every) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(timer_floor_ns());
        self.sampled.fetch_add(1, Relaxed);
        self.sampled_ns.fetch_add(ns, Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Estimated total time of all calls, in ms.
    pub fn ms(&self) -> f64 {
        let sampled = self.sampled.load(Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        self.sampled_ns.load(Relaxed) as f64 * self.calls() as f64 / sampled as f64 / 1e6
    }
}

/// What a [`Counted`] problem saw.
pub struct LpCounters {
    pub basis_of: Meter,
    pub basis_input: AtomicU64,
    pub violates: Meter,
    pub violations: AtomicU64,
}

/// An [`LpType`] problem whose primitives are counted and timed.
/// Clones share one set of counters.
#[derive(Clone)]
pub struct Counted<P> {
    inner: P,
    pub counters: Arc<LpCounters>,
}

impl<P> Counted<P> {
    pub fn new(inner: P) -> Self {
        Counted {
            inner,
            counters: Arc::new(LpCounters {
                basis_of: Meter::new(1),
                basis_input: AtomicU64::new(0),
                violates: Meter::new(32),
                violations: AtomicU64::new(0),
            }),
        }
    }
}

impl<P: LpType> LpType for Counted<P> {
    type Element = P::Element;
    type Value = P::Value;

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn basis_of(&self, elems: &[P::Element]) -> Basis<P::Element, P::Value> {
        self.counters
            .basis_input
            .fetch_add(elems.len() as u64, Relaxed);
        self.counters.basis_of.time(|| self.inner.basis_of(elems))
    }

    fn violates(&self, basis: &Basis<P::Element, P::Value>, h: &P::Element) -> bool {
        let v = self
            .counters
            .violates
            .time(|| self.inner.violates(basis, h));
        if v {
            self.counters.violations.fetch_add(1, Relaxed);
        }
        v
    }

    fn cmp_value(&self, a: &P::Value, b: &P::Value) -> Ordering {
        self.inner.cmp_value(a, b)
    }

    fn cmp_element(&self, a: &P::Element, b: &P::Element) -> Ordering {
        self.inner.cmp_element(a, b)
    }

    fn values_close(&self, a: &P::Value, b: &P::Value) -> bool {
        self.inner.values_close(a, b)
    }

    fn canonicalize(&self, basis: &mut Basis<P::Element, P::Value>) {
        self.inner.canonicalize(basis)
    }
}

/// What a [`Timed`] protocol saw.
pub struct PhaseCounters {
    pub pulls: Meter,
    pub serve: Meter,
    pub serve_failed: AtomicU64,
    pub compute: Meter,
    pub absorb: Meter,
}

/// A [`Protocol`] whose phases are counted and timed.
pub struct Timed<P> {
    inner: P,
    pub counters: PhaseCounters,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            counters: PhaseCounters {
                pulls: Meter::new(1),
                serve: Meter::new(8),
                serve_failed: AtomicU64::new(0),
                compute: Meter::new(1),
                absorb: Meter::new(1),
            },
        }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type State = P::State;
    type Msg = P::Msg;
    type Query = P::Query;

    fn pulls(&self, id: NodeId, state: &P::State, rng: &mut PhaseRng, out: &mut Vec<P::Query>) {
        self.counters
            .pulls
            .time(|| self.inner.pulls(id, state, rng, out))
    }

    fn serve(
        &self,
        id: NodeId,
        state: &P::State,
        query: &P::Query,
        rng: &mut PhaseRng,
    ) -> Option<Served<P::Msg>> {
        let r = self
            .counters
            .serve
            .time(|| self.inner.serve(id, state, query, rng));
        if r.is_none() {
            self.counters.serve_failed.fetch_add(1, Relaxed);
        }
        r
    }

    fn compute(
        &self,
        id: NodeId,
        state: &mut P::State,
        responses: &mut Vec<Option<Response<P::Msg>>>,
        rng: &mut PhaseRng,
        pushes: &mut Vec<P::Msg>,
    ) -> NodeControl {
        self.counters
            .compute
            .time(|| self.inner.compute(id, state, responses, rng, pushes))
    }

    fn absorb(
        &self,
        id: NodeId,
        state: &mut P::State,
        delivered: &mut Vec<P::Msg>,
        rng: &mut PhaseRng,
    ) -> NodeControl {
        self.counters
            .absorb
            .time(|| self.inner.absorb(id, state, delivered, rng))
    }

    fn msg_words(&self, msg: &P::Msg) -> usize {
        self.inner.msg_words(msg)
    }

    fn load(&self, state: &P::State) -> usize {
        self.inner.load(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_every_call_and_scales_samples() {
        let m = Meter::new(4);
        for _ in 0..10 {
            m.time(|| std::hint::black_box(1 + 1));
        }
        assert_eq!(m.calls(), 10);
        assert_eq!(m.sampled.load(Relaxed), 3);
        assert!(m.ms() >= 0.0);
    }
}
