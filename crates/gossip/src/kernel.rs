//! The per-node gossip step, written once for both schedulers.
//!
//! A round of the paper's algorithms is one step per node: emit pulls,
//! have them served by uniformly drawn nodes, compute and emit pushes,
//! deliver the pushes, absorb them. The round engine ([`crate::net`])
//! sweeps each phase over all nodes; the event engine
//! ([`crate::event`]) runs the same phases as per-node events on a
//! heap. Both call the functions here for every semantic — the
//! availability scan, destination draws, serving a pull, the fate of a
//! push, compute, absorb, and the per-round accounting — so every
//! fault hook has one call site and the engines cannot drift apart.
//!
//! Two clocks meet in a step. Fault hooks and availability are asked
//! at the scheduler's wall coordinate, [`Kernel::now`] (the round index,
//! or the event engine's tick). RNG streams are keyed by the node's own
//! round, [`At::round`] (equal to `now` under the round engine and, for
//! live nodes, under unit-latency links). That is why the event engine
//! with [`crate::event::LinkPlan::unit`] replays the round engine byte
//! for byte.

use crate::fault::FaultModel;
use crate::metrics::{Metrics, RoundMetrics};
use crate::obs::Recorder;
use crate::protocol::{NodeControl, Protocol, Response};
use crate::rng::{derive_rng, phase, BatchedSampler, BatchedUniform, PhaseRng, RngSchedule};
use crate::scratch::{BitSet, RoundScratch};
use crate::topology::Adjacency;
use crate::NodeId;
use rand::Rng;
use rayon::prelude::*;

/// Node `node` at its own round `round`: the coordinates its RNG
/// streams are keyed by.
#[derive(Clone, Copy)]
pub(crate) struct At {
    pub node: usize,
    pub round: u64,
}

/// Query `k` of `puller`, addressed to `target`.
#[derive(Clone, Copy)]
pub(crate) struct Pull {
    pub puller: usize,
    pub k: usize,
    pub target: usize,
}

/// One round's (or tick's) accounting. The engines add to it as they
/// step; [`Kernel::close`] turns it into the round's only
/// [`RoundMetrics`] row. Every field is a sum or a maximum, so per-node
/// accumulators merged in any order give the same totals.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundAcc {
    pulls: u64,
    pushes: u64,
    max_work: u64,
    /// Responses served, counted as sent (later losses included).
    served: u64,
    /// Words of every response served and every push emitted, as sent.
    words: u64,
    /// Losses other than severed links: dropped and corrupted
    /// responses, dropped pushes, offline destinations, crashed
    /// senders, and (event engine) lossy links.
    pub dropped: u64,
    /// Severed pulls and pushes (also reported as dropped).
    cut: u64,
    byzantine: u64,
    pub delayed: u64,
}

impl RoundAcc {
    /// Folds a per-node accumulator into this one.
    pub fn merge(&mut self, o: &RoundAcc) {
        self.pulls += o.pulls;
        self.pushes += o.pushes;
        self.max_work = self.max_work.max(o.max_work);
        self.served += o.served;
        self.words += o.words;
        self.dropped += o.dropped;
        self.cut += o.cut;
        self.byzantine += o.byzantine;
        self.delayed += o.delayed;
    }

    /// Records one node's communication work: `pulls` issued and
    /// `pushes` emitted this round.
    #[inline]
    pub fn work(&mut self, pulls: u64, pushes: usize) {
        self.max_work = self.max_work.max(pulls + pushes as u64);
        self.pushes += pushes as u64;
    }
}

/// The one availability scan of a round: bit `i` of `offline` is set
/// iff the fault model has node `i` offline at `now`. Every phase reads
/// this answer, so the hook runs `n` times per round. Filled one 64-node
/// word per task, so the parallel path races on nothing.
pub(crate) fn scan_offline(
    fault: &dyn FaultModel,
    seed: u64,
    now: u64,
    offline: &mut BitSet,
    par: bool,
) {
    if fault.is_perfect() {
        offline.clear();
        return;
    }
    let n = offline.len();
    let fill = |(w, word): (usize, &mut u64)| {
        let base = w * 64;
        let mut bits = 0u64;
        for b in 0..64.min(n - base) {
            if fault.offline(seed, now, (base + b) as NodeId) {
                bits |= 1 << b;
            }
        }
        *word = bits;
    };
    let words = offline.words_mut();
    if par {
        words.par_iter_mut().enumerate().for_each(fill);
    } else {
        words.iter_mut().enumerate().for_each(fill);
    }
}

/// A round's shared V2 destination stream, consumed in call order
/// (node order under both engines, by the event engine's
/// insertion-order induction).
pub(crate) enum Batch {
    /// Complete graph: node ids straight from a fixed-bound sampler.
    Uniform(BatchedUniform),
    /// Overlay: neighbor-list indices, bounded by each node's degree.
    Overlay(BatchedSampler),
}

/// The network's mutable per-node state, lent to a scheduler for one
/// round.
pub(crate) struct Rows<'a, P: Protocol> {
    pub states: &'a mut [P::State],
    pub halted: &'a mut [bool],
    pub scratch: &'a mut RoundScratch<P>,
    /// Observational only: nothing recorded is read back.
    pub recorder: &'a mut dyn Recorder,
}

/// Everything a per-node step reads that is fixed for one round (or
/// tick).
pub(crate) struct Kernel<'a, P: Protocol> {
    pub protocol: &'a P,
    pub fault: &'a dyn FaultModel,
    /// [`FaultModel::is_perfect`], asked once: the perfect network
    /// skips every hook but `offline` (whose scan it also skips).
    pub perfect: bool,
    pub seed: u64,
    /// The wall coordinate fault hooks are asked at (see module docs).
    pub now: u64,
    /// This round's [`scan_offline`] answer (its length is `n`).
    pub offline: &'a BitSet,
    pub schedule: RngSchedule,
    /// The topology's arena (`None` under the complete graph).
    pub adj: Option<&'a Adjacency>,
}

impl<P: Protocol> Kernel<'_, P> {
    /// Halted and offline nodes take no step.
    #[inline]
    fn idle(&self, node: usize, halted: bool) -> bool {
        halted || self.offline.get(node)
    }

    /// Phase 1: node `at` emits its pull requests into `out` and
    /// returns how many.
    #[inline]
    pub fn pull_node(
        &self,
        at: At,
        halted: bool,
        state: &P::State,
        out: &mut Vec<P::Query>,
        acc: &mut RoundAcc,
    ) -> u64 {
        out.clear();
        if self.idle(at.node, halted) {
            return 0;
        }
        let mut rng = PhaseRng::new(self.seed, at.round, at.node as u64, phase::PULL);
        self.protocol.pulls(at.node as NodeId, state, &mut rng, out);
        acc.pulls += out.len() as u64;
        out.len() as u64
    }

    /// Refills `row` with node `at`'s `count` uniform destinations for
    /// `phase` (`PULL_TARGET` or `PUSH_DEST`), as final node ids. Under
    /// [`RngSchedule::V1Compat`] they come from the node's own stream;
    /// under [`RngSchedule::V2Batched`] from `batch`, the round's shared
    /// stream, created on first use. On an overlay each draw is a
    /// neighbor-list index resolved through the node's adjacency row,
    /// so the message stream is fixed whatever the fault model later
    /// decides about each message.
    #[inline]
    pub fn dests(
        &self,
        at: At,
        phase: u64,
        count: usize,
        batch: &mut Option<Batch>,
        row: &mut Vec<u32>,
    ) {
        row.clear();
        if count == 0 {
            return;
        }
        let (seed, round, n) = (self.seed, at.round, self.offline.len());
        let nbrs = self.adj.map(|a| a.row(at.node));
        if self.schedule == RngSchedule::V1Compat {
            let mut rng = derive_rng(seed, round, at.node as u64, phase);
            for _ in 0..count {
                row.push(match nbrs {
                    None => rng.gen_range(0..n) as u32,
                    Some(nbrs) => nbrs[rng.gen_range(0..nbrs.len())],
                });
            }
            return;
        }
        let batch = batch.get_or_insert_with(|| match nbrs {
            None => Batch::Uniform(BatchedUniform::new(seed, round, phase, n)),
            Some(_) => Batch::Overlay(BatchedSampler::new(seed, round, phase)),
        });
        for _ in 0..count {
            row.push(match (&mut *batch, nbrs) {
                (Batch::Uniform(s), _) => s.next_index() as u32,
                (Batch::Overlay(s), Some(nbrs)) => nbrs[s.next_in(nbrs.len())],
                (Batch::Overlay(_), None) => unreachable!("overlay batches draw through a row"),
            });
        }
    }

    /// Phase 2: serves one pull against `states`, returning the response
    /// the puller receives (`None`: a failed pull). An offline target
    /// fails the pull; a severed link kills the request before the
    /// target does any work. A served response costs the server work
    /// and words even when the puller then discards it as corrupted or
    /// the fault model loses it in transit.
    #[inline]
    pub fn serve_pull(
        &self,
        states: &[P::State],
        pull: Pull,
        query: &P::Query,
        rng: &mut PhaseRng,
        acc: &mut RoundAcc,
    ) -> Option<Response<P::Msg>> {
        let Pull { puller, k, target } = pull;
        if self.offline.get(target) {
            return None;
        }
        let (seed, now, k) = (self.seed, self.now, k as u64);
        let (puller, from) = (puller as NodeId, target as NodeId);
        if !self.perfect && self.fault.cuts_pull(seed, now, puller, from, k) {
            acc.cut += 1;
            return None;
        }
        let served = self.protocol.serve(from, &states[target], query, rng)?;
        acc.served += 1;
        acc.words += self.protocol.msg_words(&served.msg) as u64;
        if !self.perfect {
            if self.fault.corrupts_response(seed, now, from, puller, k) {
                acc.byzantine += 1;
                acc.dropped += 1;
                return None;
            }
            if self.fault.drops_response(seed, now, puller, k) {
                acc.dropped += 1;
                return None;
            }
        }
        Some(Response {
            msg: served.msg,
            from,
            slot: served.slot,
        })
    }

    /// Phase 3: node `at` processes its responses (clearing them) and
    /// emits pushes into `out`; returns whether it halts.
    #[inline]
    pub fn compute_node(
        &self,
        at: At,
        halted: bool,
        state: &mut P::State,
        responses: &mut Vec<Option<Response<P::Msg>>>,
        out: &mut Vec<P::Msg>,
    ) -> bool {
        out.clear();
        let halt = !self.idle(at.node, halted) && {
            let mut rng = PhaseRng::new(self.seed, at.round, at.node as u64, phase::COMPUTE);
            self.protocol
                .compute(at.node as NodeId, state, responses, &mut rng, out)
                == NodeControl::Halt
        };
        responses.clear();
        halt
    }

    /// The fate of push `k` from `sender` to `dest`: `None` if it is
    /// lost at the sender (severed link, dropped), else the extra
    /// rounds the fault model delays it by. Severing is decided against
    /// the resolved destination, before the i.i.d. loss and delay draws.
    #[inline]
    pub fn push_fate(
        &self,
        sender: usize,
        k: usize,
        dest: usize,
        msg: &P::Msg,
        acc: &mut RoundAcc,
    ) -> Option<u64> {
        acc.words += self.protocol.msg_words(msg) as u64;
        if self.perfect {
            return Some(0);
        }
        let (seed, now, from, k) = (self.seed, self.now, sender as NodeId, k as u64);
        if self.fault.cuts_push(seed, now, from, dest as NodeId, k) {
            acc.cut += 1;
            return None;
        }
        if self.fault.drops_push(seed, now, from, k) {
            acc.dropped += 1;
            return None;
        }
        Some(self.fault.push_delay(seed, now, from, k))
    }

    /// Whether a message from `sender` arriving at `dest` now is lost:
    /// an offline destination loses it, and a `late` message (sent in
    /// an earlier round) whose sender fail-stopped meanwhile dies in
    /// transit — a crash silences the node's outstanding traffic.
    /// Transiently offline senders' messages still arrive
    /// ([`FaultModel::crashed`] is `true` only for permanent crashes).
    #[inline]
    pub fn lost_on_arrival(
        &self,
        dest: usize,
        sender: NodeId,
        late: bool,
        acc: &mut RoundAcc,
    ) -> bool {
        let lost = !self.perfect
            && (self.offline.get(dest) || late && self.fault.crashed(self.seed, self.now, sender));
        acc.dropped += u64::from(lost);
        lost
    }

    /// Phase 4: node `at` absorbs its inbox (clearing it); returns
    /// whether it halts.
    #[inline]
    pub fn absorb_node(
        &self,
        at: At,
        halted: bool,
        state: &mut P::State,
        inbox: &mut Vec<P::Msg>,
    ) -> bool {
        let halt = !self.idle(at.node, halted) && {
            let mut rng = PhaseRng::new(self.seed, at.round, at.node as u64, phase::ABSORB);
            self.protocol
                .absorb(at.node as NodeId, state, inbox, &mut rng)
                == NodeControl::Halt
        };
        inbox.clear();
        halt
    }

    /// Closes a round: scans loads and the halted set, books the
    /// structured-failure tallies, and appends the round's metrics row
    /// (index `row`) to `metrics`.
    pub fn close(
        &self,
        acc: RoundAcc,
        states: &[P::State],
        halted: &[bool],
        row: u64,
        metrics: &mut Metrics,
    ) -> RoundMetrics {
        let (mut total_load, mut max_load) = (0u64, 0u64);
        for s in states {
            let l = self.protocol.load(s) as u64;
            total_load += l;
            max_load = max_load.max(l);
        }
        // All zero (one branch) under `Perfect` and the i.i.d. models,
        // whose hooks answer the defaults.
        if !self.perfect {
            let deg = &mut metrics.degradation;
            deg.link_cuts += acc.cut;
            deg.byzantine_exposures += acc.byzantine;
            let active = self.fault.partition_active(self.seed, self.now);
            deg.partitioned_rounds += u64::from(active);
            // Tracks the *final* round's state: healed runs clear it.
            deg.unhealed_partition = active;
        }
        let rm = RoundMetrics {
            round: row,
            vtime: self.now,
            pulls: acc.pulls,
            pushes: acc.pushes,
            max_node_work: acc.max_work,
            served: acc.served,
            msg_words: acc.words,
            total_load,
            max_load,
            halted: halted.iter().filter(|&&h| h).count() as u64,
            offline: self.offline.count_ones(),
            dropped: acc.dropped + acc.cut,
            delayed: acc.delayed,
        };
        metrics.rounds.push(rm);
        rm
    }
}
