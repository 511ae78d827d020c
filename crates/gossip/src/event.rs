//! Discrete-event asynchronous scheduler with typed links.
//!
//! One phase kernel (`kernel.rs`), two schedulers. The round
//! engine in [`crate::net`] sweeps every phase over all nodes in
//! lockstep: one round = one iteration of the paper's repeat loop, with
//! a fixed one-round message latency. Real gossip deployments are not
//! synchronous — links have heterogeneous latency and loss. This module
//! schedules the *same* per-node steps as events on a heap instead,
//! keeping the determinism contract intact:
//!
//! * **Event queue.** A time-ordered binary heap ([`EventQueue`]) with a
//!   *total* tie-break order: events compare by `(time, seq)`, where
//!   `seq` is a monotonically increasing insertion counter. Two runs of
//!   the same spec therefore pop events in exactly the same order —
//!   identical specs replay byte-identically, with no dependence on
//!   hash ordering or thread scheduling.
//! * **Typed links.** A [`LinkPlan`] assigns every ordered node pair a
//!   latency and a per-message loss rate, drawn from a dedicated seed
//!   space ([`LINK_SEED_MIX`], beside the fault subsystem's
//!   `FAULT_SEED_MIX`), so installing a link plan cannot perturb the
//!   protocol or fault RNG streams.
//! * **Node steps addressed by id.** Every event targets a node (or an
//!   ordered edge between two nodes) and runs one kernel step for it:
//!   emit pulls, serve one pull, compute, deliver one push, absorb. The
//!   scheduler owns only the heap, the link plan, each node's *local*
//!   round (the coordinate its RNG streams are keyed by), and the
//!   end-of-tick restart scan.
//!
//! ## The unit-latency degeneracy
//!
//! The round-synchronous engine is the degenerate schedule of this one:
//! under [`LinkPlan::unit`] (every link has latency 1 and no loss) the
//! event engine reproduces the round engine byte-for-byte — same
//! states, same metrics, same pinned trajectories. The semantics cannot
//! drift apart: both engines call the same kernel for the availability
//! scan, every fault hook, the destination draws, and the per-round
//! close-out. What remains is ordering. The virtual clock is
//! partitioned into *ticks*; within a tick, events execute in
//! phase-class order (start-round, serve, response delivery, compute,
//! push delivery, absorb), and within a class in insertion order, which
//! under unit latency is exactly the node order of the round engine's
//! sweeps. Fault hooks are asked at the tick and RNG streams at the
//! local round, which coincide with the round index under unit latency.
//! The parity grid in `par_determinism.rs` and the pinned-trajectory
//! battery in `tests/event_engine.rs` check the ordering argument.
//!
//! Select the engine via [`crate::NetworkConfig::engine`] (or
//! `Driver::engine` in `lpt-gossip`):
//!
//! ```
//! use gossip_sim::event::{Engine, LinkPlan};
//! use gossip_sim::NetworkConfig;
//!
//! // Degenerate schedule: byte-identical to the round engine.
//! let cfg = NetworkConfig::with_seed(7).engine(Engine::EventDriven(LinkPlan::unit()));
//! // Heterogeneous WAN-ish latencies: genuinely asynchronous rounds.
//! let cfg = NetworkConfig::with_seed(7).engine(Engine::EventDriven(LinkPlan::uniform(1, 4)));
//! # let _ = cfg;
//! ```

use crate::kernel::{At, Batch, Kernel, Pull, RoundAcc, Rows};
use crate::obs::{Counter, Gauge, Phase};
use crate::protocol::{Protocol, Response};
use crate::rng::{derive_rng, phase, PhaseRng};
use crate::NodeId;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/// Which execution engine a [`crate::Network`] steps its rounds with.
///
/// The default [`Engine::RoundSync`] is the paper's synchronous model —
/// the historical engine, unchanged. [`Engine::EventDriven`] runs the
/// discrete-event scheduler of this module under a [`LinkPlan`]; with
/// [`LinkPlan::unit`] it is byte-identical to `RoundSync` (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The round-synchronous engine (default; the paper's model).
    #[default]
    RoundSync,
    /// The discrete-event engine under the given link plan.
    EventDriven(LinkPlan),
}

impl Engine {
    /// Canonical name, a spec-grammar *name token* (lowercase ASCII,
    /// digits, hyphens): `round-sync`, `event-unit`,
    /// `event-const-<L>[-loss-<PPM>]`,
    /// `event-uniform-<MIN>-<MAX>[-loss-<PPM>]`.
    pub fn name(&self) -> String {
        match self {
            Engine::RoundSync => "round-sync".to_string(),
            Engine::EventDriven(plan) => plan.name(),
        }
    }

    /// Parses a canonical engine name (the inverse of [`Engine::name`]).
    /// Returns `None` for unknown names or out-of-range parameters.
    pub fn parse(s: &str) -> Option<Engine> {
        if s == "round-sync" {
            return Some(Engine::RoundSync);
        }
        LinkPlan::parse(s).map(Engine::EventDriven)
    }

    /// Whether this is the default round-synchronous engine.
    pub fn is_default(&self) -> bool {
        matches!(self, Engine::RoundSync)
    }
}

// ---------------------------------------------------------------------------
// Links
// ---------------------------------------------------------------------------

/// Seed-mixing constant for the link stream space (ASCII `"links"`),
/// mirroring the fault subsystem's `FAULT_SEED_MIX` (`"faults"`): link
/// latency and loss draws run on `seed ^ LINK_SEED_MIX`, so they can
/// never collide with (or perturb) protocol or fault streams derived
/// from the raw seed.
pub const LINK_SEED_MIX: u64 = 0x0000_006C_696E_6B73;

/// Loss probabilities are integer parts-per-million, so link plans stay
/// `Eq + Hash` (they participate in the server's exact spec cache key).
pub const LOSS_PPM_SCALE: u32 = 1_000_000;

/// How per-edge link latency and loss are assigned.
///
/// Plans are pure functions of `(seed, from, to)` — the same ordered
/// pair always resolves to the same latency within a run, and the draw
/// space is disjoint from protocol and fault streams (see
/// [`LINK_SEED_MIX`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum LinkPlan {
    /// Every link has latency 1 and no loss: the degenerate schedule
    /// under which the event engine is byte-identical to the round
    /// engine.
    Unit,
    /// Every link has the same fixed latency and loss.
    Const {
        /// Latency in ticks (≥ 1).
        latency: u32,
        /// Loss in parts per million.
        loss_ppm: u32,
    },
    /// Per-edge latency drawn uniformly from `min..=max` (each ordered
    /// edge's latency is fixed for the whole run), with i.i.d.
    /// per-message loss.
    Uniform {
        /// Smallest latency (≥ 1).
        min: u32,
        /// Largest latency (≥ `min`).
        max: u32,
        /// Loss in parts per million.
        loss_ppm: u32,
    },
}

impl LinkPlan {
    /// The unit-latency plan (see [`LinkPlan::Unit`]).
    pub fn unit() -> LinkPlan {
        LinkPlan::Unit
    }

    /// A lossless constant-latency plan.
    pub fn constant(latency: u32) -> LinkPlan {
        LinkPlan::Const {
            latency: latency.max(1),
            loss_ppm: 0,
        }
    }

    /// A lossless plan with per-edge latency uniform in `min..=max`.
    pub fn uniform(min: u32, max: u32) -> LinkPlan {
        let min = min.max(1);
        LinkPlan::Uniform {
            min,
            max: max.max(min),
            loss_ppm: 0,
        }
    }

    /// Whether this is the unit plan (including `Const`/`Uniform`
    /// parameterizations that degenerate to it).
    pub fn is_unit(&self) -> bool {
        match *self {
            LinkPlan::Unit => true,
            LinkPlan::Const { latency, loss_ppm } => latency == 1 && loss_ppm == 0,
            LinkPlan::Uniform { min, max, loss_ppm } => min == 1 && max == 1 && loss_ppm == 0,
        }
    }

    fn loss_ppm(&self) -> u32 {
        match *self {
            LinkPlan::Unit => 0,
            LinkPlan::Const { loss_ppm, .. } | LinkPlan::Uniform { loss_ppm, .. } => loss_ppm,
        }
    }

    /// The latency in ticks (≥ 1) of the ordered edge `(from, to)`: a
    /// pure function of `(seed, from, to)` over the [`LINK_SEED_MIX`]
    /// stream space. Latency 1 is the round engine's implicit link (send
    /// in round `i`, absorb in round `i`'s absorb phase — the paper's
    /// "arrives at the beginning of round `i + 1`" accounting).
    pub fn latency(&self, seed: u64, from: NodeId, to: NodeId) -> u32 {
        match *self {
            LinkPlan::Unit => 1,
            LinkPlan::Const { latency, .. } => latency.max(1),
            LinkPlan::Uniform { min, max, .. } => {
                let mut rng = derive_rng(seed ^ LINK_SEED_MIX, u64::from(from), u64::from(to), 0);
                rng.gen_range(min.max(1)..=max.max(min.max(1)))
            }
        }
    }

    /// Whether a message on leg `leg` (0 = pull request, 1 = pull
    /// response, 2 = push) of message index `k`, sent by `node` at
    /// `tick`, is lost to link noise. Deterministic in its coordinates;
    /// always `false` on lossless plans (no RNG is consumed, so
    /// lossless plans cannot perturb anything).
    pub fn lossy(&self, seed: u64, tick: u64, node: NodeId, leg: u64, k: u64) -> bool {
        let ppm = self.loss_ppm();
        if ppm == 0 {
            return false;
        }
        // Phase coordinate ≡ leg + 1 (mod 4) is never 0, so loss draws
        // cannot collide with the latency draws at phase 0.
        let mut rng = derive_rng(
            seed ^ LINK_SEED_MIX,
            tick,
            u64::from(node),
            (k << 2) | (leg + 1),
        );
        rng.gen_range(0..LOSS_PPM_SCALE) < ppm
    }

    /// Canonical name (see [`Engine::name`]).
    pub fn name(&self) -> String {
        fn loss_suffix(ppm: u32) -> String {
            if ppm == 0 {
                String::new()
            } else {
                format!("-loss-{ppm}")
            }
        }
        match *self {
            LinkPlan::Unit => "event-unit".to_string(),
            LinkPlan::Const { latency, loss_ppm } => {
                format!("event-const-{latency}{}", loss_suffix(loss_ppm))
            }
            LinkPlan::Uniform { min, max, loss_ppm } => {
                format!("event-uniform-{min}-{max}{}", loss_suffix(loss_ppm))
            }
        }
    }

    /// Parses a canonical plan name (the inverse of [`LinkPlan::name`]).
    pub fn parse(s: &str) -> Option<LinkPlan> {
        fn split_loss(s: &str) -> Option<(&str, u32)> {
            match s.split_once("-loss-") {
                None => Some((s, 0)),
                Some((head, ppm)) => {
                    let ppm: u32 = ppm.parse().ok()?;
                    (ppm <= LOSS_PPM_SCALE).then_some((head, ppm))
                }
            }
        }
        if s == "event-unit" {
            return Some(LinkPlan::Unit);
        }
        if let Some(rest) = s.strip_prefix("event-const-") {
            let (latency, loss_ppm) = split_loss(rest)?;
            let latency: u32 = latency.parse().ok()?;
            return (latency >= 1).then_some(LinkPlan::Const { latency, loss_ppm });
        }
        if let Some(rest) = s.strip_prefix("event-uniform-") {
            let (range, loss_ppm) = split_loss(rest)?;
            let (min, max) = range.split_once('-')?;
            let min: u32 = min.parse().ok()?;
            let max: u32 = max.parse().ok()?;
            return (1 <= min && min <= max).then_some(LinkPlan::Uniform { min, max, loss_ppm });
        }
        None
    }
}

// ---------------------------------------------------------------------------
// The event queue
// ---------------------------------------------------------------------------

/// A heap entry: the payload rides along but only `(time, seq)`
/// participate in the order, which makes the order *total* — no two
/// entries ever compare equal, so `BinaryHeap`'s lack of stability
/// cannot surface.
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    /// Reversed comparison so the std max-heap pops smallest
    /// `(time, seq)` first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic time-ordered event queue.
///
/// Pops strictly in `(time, seq)` order: earliest time first, and among
/// equal-time events, insertion order. The sequence number is assigned
/// at push time, so replaying the same pushes yields the same pops —
/// the property the event engine's byte-identity rests on (and that the
/// property tests in `tests/event_queue.rs` pin down).
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`; returns the sequence number it
    /// was assigned (monotonically increasing across the queue's life).
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
        seq
    }

    /// Pops the earliest event (ties broken by insertion order).
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterates over pending payloads in arbitrary order (inspection
    /// only — e.g. counting in-flight messages).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|e| &e.payload)
    }
}

// ---------------------------------------------------------------------------
// The event core
// ---------------------------------------------------------------------------

/// Within a tick, events execute in phase-class order; the class is
/// encoded into the low bits of the event time, so the heap's
/// `(time, seq)` order alone realizes "classes in order, insertion
/// order within a class".
const CLASS_BITS: u64 = 3;
const CLASS_START: u64 = 0; // per-node round start: emit pulls
const CLASS_SERVE: u64 = 1; // a pull request reaches its target
const CLASS_RESP: u64 = 2; // a pull response reaches its puller
const CLASS_COMPUTE: u64 = 3; // all responses in: compute + emit pushes
const CLASS_PUSH: u64 = 4; // a pushed message reaches its destination
const CLASS_ABSORB: u64 = 5; // deliveries in: absorb + maybe halt

fn enc(tick: u64, class: u64) -> u64 {
    (tick << CLASS_BITS) | class
}

fn tick_of(time: u64) -> u64 {
    time >> CLASS_BITS
}

/// One scheduled event. Message payloads are moved through the queue —
/// a pushed message lives in exactly one place at any time, preserving
/// the round engine's move-only memory model across the heap.
enum Event<P: Protocol> {
    /// Node `node` begins its next local round: emits pulls, schedules
    /// serves and its own compute.
    StartRound { node: u32 },
    /// `puller`'s query `k` arrives at `target`, which serves it
    /// against its current state.
    ServePull {
        puller: u32,
        k: u32,
        target: u32,
        /// Extra ticks the response spends on the return leg.
        resp_delay: u32,
    },
    /// A served response arrives back at `puller`, slot `k`.
    DeliverResponse {
        puller: u32,
        k: u32,
        resp: Response<P::Msg>,
    },
    /// All of `node`'s responses (or their losses) are in: compute.
    Compute { node: u32 },
    /// A pushed message arrives at `dest`.
    DeliverPush {
        dest: u32,
        sender: u32,
        send_tick: u64,
        msg: P::Msg,
    },
    /// Node `node` absorbs this round's deliveries and may halt.
    Absorb { node: u32 },
}

/// The discrete-event scheduler state for one network: the heap, the
/// link plan, each node's local round, and the restart scan. Every
/// per-node step it dispatches is a [`crate::kernel`] call.
pub(crate) struct EventCore<P: Protocol> {
    plan: LinkPlan,
    queue: EventQueue<Event<P>>,
    /// Each node's local round counter — the coordinate its protocol
    /// and engine RNG streams are keyed by. Under unit latency every
    /// live node's local round equals the tick.
    local_round: Vec<u64>,
    /// Each puller's SERVE-phase stream for its current round, shared
    /// across its queries in arrival order (== query order, since all
    /// of a node's serves precede its compute).
    serve_rng: Vec<Option<PhaseRng>>,
    /// V2 batched PULL_TARGET streams, keyed by local round.
    pull_batches: BTreeMap<u64, Option<Batch>>,
    /// V2 batched PUSH_DEST streams, keyed by local round.
    push_batches: BTreeMap<u64, Option<Batch>>,
    /// Nodes whose next `StartRound` is due at the next tick, flagged
    /// during dispatch and scheduled by a single end-of-tick scan in
    /// node-id order. Scheduling them inline would hand a node that
    /// went offline (flagged at its class-0 `StartRound`) an earlier
    /// sequence number than its live peers (flagged at class-5
    /// `Absorb`), letting it jump ahead of lower-numbered nodes at the
    /// next tick and reorder deliveries relative to the round engine.
    restart: Vec<bool>,
    /// Messages scheduled for delivery at a later tick.
    in_flight: usize,
    /// The next tick to synthesize when the queue is drained (all nodes
    /// halted): keeps `round()` total, like the round engine's no-op
    /// rounds.
    next_tick: u64,
}

impl<P: Protocol> EventCore<P> {
    pub(crate) fn new(n: usize, plan: LinkPlan) -> Self {
        let mut queue = EventQueue::new();
        // Initial StartRound events in node order: the induction that
        // keeps same-tick same-class events in node order begins here.
        for i in 0..n {
            queue.push(enc(0, CLASS_START), Event::StartRound { node: i as u32 });
        }
        EventCore {
            plan,
            queue,
            local_round: vec![0; n],
            serve_rng: (0..n).map(|_| None).collect(),
            pull_batches: BTreeMap::new(),
            push_batches: BTreeMap::new(),
            restart: vec![false; n],
            in_flight: 0,
            next_tick: 0,
        }
    }

    /// Messages scheduled for a later tick (the event-engine analogue
    /// of the round engine's delay queue).
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The tick the next `round()` executes: the earliest tick holding
    /// events, or a synthesized empty tick when none do.
    pub(crate) fn begin_tick(&mut self) -> u64 {
        let tick = self.queue.peek_time().map_or(self.next_tick, tick_of);
        self.next_tick = tick + 1;
        tick
    }

    /// Executes every event of tick `k.now` (see
    /// [`EventCore::begin_tick`]), then schedules the next round starts;
    /// returns the tick's accounting.
    pub(crate) fn tick(&mut self, k: &Kernel<'_, P>, mut rows: Rows<'_, P>) -> RoundAcc {
        let tick = k.now;
        let mut acc = RoundAcc::default();
        // Heap depth is sampled at tick start (its per-run high water is
        // the queue's memory footprint); the pop count below is both a
        // running total and a per-tick high-water gauge.
        rows.recorder
            .high_water(Gauge::HeapDepth, self.queue.len() as u64);
        rows.recorder.span_start(Phase::Tick);
        let mut pops: u64 = 0;
        while self.queue.peek_time().is_some_and(|t| tick_of(t) == tick) {
            let (_, ev) = self.queue.pop().expect("peeked event");
            pops += 1;
            self.dispatch(k, ev, &mut rows, &mut acc);
        }
        rows.recorder.add(Counter::EventPops, pops);
        rows.recorder.high_water(Gauge::PopsPerTick, pops);

        // Schedule next-round starts in node-id order (see `restart`):
        // the induction that keeps same-tick same-class dispatch in
        // node order — and with it, delivery order — round after round.
        for (i, restart) in self.restart.iter_mut().enumerate() {
            if std::mem::take(restart) {
                self.queue.push(
                    enc(tick + 1, CLASS_START),
                    Event::StartRound { node: i as u32 },
                );
            }
        }

        // Batch streams for rounds every live node has moved past can
        // never be drawn from again.
        let min_live_round = (0..rows.halted.len())
            .filter(|&i| !rows.halted[i])
            .map(|i| self.local_round[i])
            .min()
            .unwrap_or(u64::MAX);
        self.pull_batches.retain(|&r, _| r >= min_live_round);
        self.push_batches.retain(|&r, _| r >= min_live_round);
        rows.recorder.span_end(Phase::Tick);
        acc
    }

    /// Node `i` at its current local round.
    fn at(&self, i: usize) -> At {
        At {
            node: i,
            round: self.local_round[i],
        }
    }

    /// A node's round ends without halting: its next round starts at
    /// the next tick.
    fn next_round(&mut self, i: usize) {
        self.local_round[i] += 1;
        self.restart[i] = true;
    }

    fn dispatch(
        &mut self,
        k: &Kernel<'_, P>,
        ev: Event<P>,
        rows: &mut Rows<'_, P>,
        acc: &mut RoundAcc,
    ) {
        let (seed, tick) = (k.seed, k.now);
        let s = &mut *rows.scratch;
        match ev {
            Event::StartRound { node } => {
                let i = node as usize;
                if k.offline.get(i) {
                    // An offline beat still consumes a round number (so
                    // under unit latency local rounds track ticks
                    // exactly, like the round engine's global round),
                    // emits nothing, and computes nothing — deliveries
                    // addressed to it this tick are dropped on arrival.
                    s.inboxes[i].clear();
                    self.next_round(i);
                    return;
                }
                let at = self.at(i);
                let count = k.pull_node(at, false, &rows.states[i], &mut s.queries[i], acc);
                s.pull_counts[i] = count;
                s.responses[i].clear();
                s.responses[i].resize_with(count as usize, || None);
                self.serve_rng[i] = Some(PhaseRng::new(seed, at.round, i as u64, phase::SERVE));
                let batch = self.pull_batches.entry(at.round).or_default();
                k.dests(
                    at,
                    phase::PULL_TARGET,
                    count as usize,
                    batch,
                    &mut s.pull_targets[i],
                );
                let mut max_rtt: u64 = 0;
                for (q, &target) in s.pull_targets[i].iter().enumerate() {
                    let out_delay = u64::from(self.plan.latency(seed, node, target) - 1);
                    let resp_delay = self.plan.latency(seed, target, node) - 1;
                    max_rtt = max_rtt.max(out_delay + u64::from(resp_delay));
                    // A request lost on the outbound leg never reaches
                    // its target: the slot stays a failed pull and no
                    // serve work is charged.
                    if self.plan.lossy(seed, tick, node, 0, q as u64) {
                        acc.dropped += 1;
                        continue;
                    }
                    self.queue.push(
                        enc(tick + out_delay, CLASS_SERVE),
                        Event::ServePull {
                            puller: node,
                            k: q as u32,
                            target,
                            resp_delay,
                        },
                    );
                }
                // Compute fires once every response had time to arrive
                // (immediately when nothing was pulled): the node's
                // synchronization barrier with itself, not with others.
                self.queue
                    .push(enc(tick + max_rtt, CLASS_COMPUTE), Event::Compute { node });
            }

            Event::ServePull {
                puller,
                k: q,
                target,
                resp_delay,
            } => {
                let i = puller as usize;
                let pull = Pull {
                    puller: i,
                    k: q as usize,
                    target: target as usize,
                };
                let rng = self.serve_rng[i]
                    .as_mut()
                    .expect("serve stream set at round start");
                let query = &s.queries[i][q as usize];
                let Some(resp) = k.serve_pull(rows.states, pull, query, rng, acc) else {
                    return; // the response slot stays None: a failed pull
                };
                if self.plan.lossy(seed, tick, puller, 1, u64::from(q)) {
                    acc.dropped += 1;
                    return;
                }
                self.queue.push(
                    enc(tick + u64::from(resp_delay), CLASS_RESP),
                    Event::DeliverResponse { puller, k: q, resp },
                );
            }

            Event::DeliverResponse { puller, k: q, resp } => {
                s.responses[puller as usize][q as usize] = Some(resp);
            }

            Event::Compute { node } => {
                let i = node as usize;
                let at = self.at(i);
                // Offline here only under heterogeneous latency (under
                // unit links compute shares the start-round tick): the
                // kernel then skips the step.
                let state = &mut rows.states[i];
                s.compute_halts[i] =
                    k.compute_node(at, false, state, &mut s.responses[i], &mut s.pushes[i]);
                let out = &mut s.pushes[i];
                acc.work(s.pull_counts[i], out.len());
                let batch = self.push_batches.entry(at.round).or_default();
                k.dests(at, phase::PUSH_DEST, out.len(), batch, &mut s.push_dests[i]);
                for (q, (msg, &dest)) in out.drain(..).zip(&s.push_dests[i]).enumerate() {
                    let Some(delay) = k.push_fate(i, q, dest as usize, &msg, acc) else {
                        continue;
                    };
                    if self.plan.lossy(seed, tick, node, 2, q as u64) {
                        acc.dropped += 1;
                        continue;
                    }
                    let deliver = tick + u64::from(self.plan.latency(seed, node, dest) - 1) + delay;
                    if deliver > tick {
                        acc.delayed += 1;
                        self.in_flight += 1;
                    }
                    // Same-tick deliveries also ride the heap: the
                    // class-4 pop order is then "older (delayed)
                    // messages first, current ones in (sender, message)
                    // order" — exactly the round engine's inbox fill
                    // order.
                    self.queue.push(
                        enc(deliver, CLASS_PUSH),
                        Event::DeliverPush {
                            dest,
                            sender: node,
                            send_tick: tick,
                            msg,
                        },
                    );
                }
                self.queue
                    .push(enc(tick, CLASS_ABSORB), Event::Absorb { node });
            }

            Event::DeliverPush {
                dest,
                sender,
                send_tick,
                msg,
            } => {
                let d = dest as usize;
                let late = tick > send_tick;
                if late {
                    self.in_flight -= 1;
                }
                // A halted node has no absorb left to clear its inbox:
                // discard at delivery — not a drop, as in the round
                // engine, whose halted nodes clear their inbox unread.
                if !k.lost_on_arrival(d, sender, late, acc) && !rows.halted[d] {
                    s.inboxes[d].push(msg);
                }
            }

            Event::Absorb { node } => {
                let i = node as usize;
                let at = self.at(i);
                let absorbed_halt =
                    k.absorb_node(at, false, &mut rows.states[i], &mut s.inboxes[i]);
                self.serve_rng[i] = None;
                if s.compute_halts[i] || absorbed_halt {
                    rows.halted[i] = true;
                } else {
                    self.next_round(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, "e");
        q.push(1, "a");
        q.push(3, "c1");
        q.push(3, "c2");
        q.push(0, "z");
        q.push(3, "c3");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0, "z"),
                (1, "a"),
                (3, "c1"),
                (3, "c2"),
                (3, "c3"),
                (5, "e")
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn queue_seq_is_monotone_and_total() {
        let mut q = EventQueue::new();
        let s0 = q.push(9, ());
        let s1 = q.push(9, ());
        let s2 = q.push(0, ());
        assert!(s0 < s1 && s1 < s2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(0));
    }

    #[test]
    fn engine_names_round_trip() {
        let engines = [
            Engine::RoundSync,
            Engine::EventDriven(LinkPlan::Unit),
            Engine::EventDriven(LinkPlan::constant(3)),
            Engine::EventDriven(LinkPlan::Const {
                latency: 2,
                loss_ppm: 50_000,
            }),
            Engine::EventDriven(LinkPlan::uniform(1, 4)),
            Engine::EventDriven(LinkPlan::Uniform {
                min: 2,
                max: 7,
                loss_ppm: 1_000,
            }),
        ];
        for e in engines {
            let name = e.name();
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
                "{name} is not a name token"
            );
            assert_eq!(Engine::parse(&name), Some(e), "{name}");
        }
        assert_eq!(Engine::default(), Engine::RoundSync);
        assert_eq!(Engine::parse("event-const-0"), None, "latency 0 invalid");
        assert_eq!(Engine::parse("event-uniform-3-2"), None, "min > max");
        assert_eq!(Engine::parse("event-warp"), None);
        assert_eq!(
            Engine::parse("event-const-2-loss-2000000"),
            None,
            "loss beyond certainty"
        );
    }

    #[test]
    fn links_are_deterministic_and_latencies_bounded() {
        let plan = LinkPlan::uniform(2, 5);
        for from in 0..8u32 {
            for to in 0..8u32 {
                let a = plan.latency(99, from, to);
                let b = plan.latency(99, from, to);
                assert_eq!(a, b, "latencies are pure functions of (seed, from, to)");
                assert!((2..=5).contains(&a));
            }
        }
        // Different seeds draw different edge latencies somewhere.
        let diverges = (0..64u32).any(|e| plan.latency(1, e, e + 1) != plan.latency(2, e, e + 1));
        assert!(diverges, "the seed must matter");
    }

    #[test]
    fn unit_plans_are_recognized_and_lossless() {
        assert!(LinkPlan::unit().is_unit());
        assert!(LinkPlan::constant(1).is_unit());
        assert!(LinkPlan::uniform(1, 1).is_unit());
        assert!(!LinkPlan::constant(2).is_unit());
        assert!(!LinkPlan::Const {
            latency: 1,
            loss_ppm: 1
        }
        .is_unit());
        assert!(!LinkPlan::unit().lossy(3, 0, 0, 0, 0));
        assert_eq!(LinkPlan::unit().latency(11, 4, 9), 1);
    }

    #[test]
    fn lossy_plans_lose_at_roughly_the_configured_rate() {
        let plan = LinkPlan::Const {
            latency: 1,
            loss_ppm: 250_000, // 25%
        };
        let mut lost = 0u32;
        let trials = 4_000u32;
        for k in 0..trials {
            if plan.lossy(5, 0, 0, 2, u64::from(k)) {
                lost += 1;
            }
        }
        let rate = f64::from(lost) / f64::from(trials);
        assert!((0.2..0.3).contains(&rate), "loss rate {rate}");
    }
}
