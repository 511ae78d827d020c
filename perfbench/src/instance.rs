//! One MED problem instance and the ways the benchmark runs it: through
//! the public `Driver` (the end-to-end path), and at network level
//! through `Network::new` / `Network::round` (the path the per-layer
//! subtractions need).

use crate::probes::Timed;
use gossip_sim::{Network, NetworkConfig, Protocol};
use lpt::LpType;
use lpt_gossip::driver::{scatter, Algorithm, Driver, StopCondition};
use lpt_gossip::spec::{AlgorithmSpec, RunSpecKey};
use lpt_gossip::{HighLoadClarkson, HighLoadConfig, LowLoadClarkson, LowLoadConfig};
use lpt_problems::med::{IdPoint2, MedValue};
use lpt_problems::Med;
use lpt_workloads::med::MedDataset;
use lpt_workloads::{Scenario, TopologyPreset};
use rayon::ThreadPool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A MED instance named by the same key the server would cache it
/// under, with its sequential optimum.
pub struct Instance {
    pub key: RunSpecKey,
    pub points: Vec<IdPoint2>,
    /// `Med::basis_of` over all points: the value every node must
    /// agree on.
    pub oracle: MedValue,
}

impl Instance {
    pub fn new(key: RunSpecKey) -> Instance {
        let dataset = MedDataset::parse(&key.workload).expect("instance keys name a MED dataset");
        let points = dataset.generate(key.elements as usize, key.seed);
        let oracle = Med.basis_of(&points).value;
        Instance {
            key,
            points,
            oracle,
        }
    }

    pub fn n(&self) -> usize {
        self.key.n as usize
    }

    fn net_config(&self) -> NetworkConfig {
        let scenario = Scenario::parse(&self.key.fault).expect("instance keys name a fault preset");
        let topology =
            TopologyPreset::parse(&self.key.topology).expect("instance keys name a topology");
        NetworkConfig::with_seed(self.key.seed)
            .sequential()
            .fault(scenario.fault_model())
            .topology(topology.topology())
            .rng_schedule(self.key.schedule)
            .engine(self.key.engine.clone())
    }
}

/// What one solve produced, as far as the benchmark compares it.
pub struct Solve {
    pub ms: f64,
    pub rounds: u64,
    pub max_node_work: u64,
    /// Node 0's output radius², when every node agreed.
    pub r2: Option<f64>,
    /// Messages the fault model dropped and delayed.
    pub dropped: u64,
    pub delayed: u64,
    /// Virtual ticks the run took (equal to `rounds` on round-sync).
    pub ticks: u64,
    /// Wall time between consecutive rounds, observed from the stop
    /// predicate (driver runs only).
    pub steps_ms: Vec<f64>,
}

impl Solve {
    /// Whether the run reached consensus on the sequential optimum.
    pub fn correct(&self, inst: &Instance) -> bool {
        self.r2.is_some_and(|r2| close(r2, inst.oracle.r2))
    }

    /// Whether two runs followed the same trajectory.
    pub fn same_trajectory(&self, other: &Solve) -> bool {
        self.rounds == other.rounds
            && self.ticks == other.ticks
            && self.dropped == other.dropped
            && self.max_node_work == other.max_node_work
            && self.r2.map(f64::to_bits) == other.r2.map(f64::to_bits)
    }
}

/// The tolerance `Med::values_close` applies to radii.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0)
}

fn algorithm(spec: AlgorithmSpec) -> Algorithm {
    match spec {
        AlgorithmSpec::LowLoad => Algorithm::low_load(),
        AlgorithmSpec::HighLoad => Algorithm::high_load(),
        other => panic!("the benchmark runs no MED instance under {other:?}"),
    }
}

/// Runs `inst` through `Driver::run` on `pool`, with `problem` standing
/// in for `Med` (the bare problem, or a [`crate::probes::Counted`]
/// wrapper). With `parallel`, node stepping is forced onto the pool.
///
/// The stop condition is full termination expressed as a predicate
/// that never fires: it lets the benchmark stamp each round boundary
/// from outside without changing the trajectory.
pub fn solve<P>(inst: &Instance, problem: P, pool: &ThreadPool, parallel: bool) -> Solve
where
    P: LpType<Element = IdPoint2, Value = MedValue> + Clone + Sync,
{
    let key = &inst.key;
    let stamps: Arc<Mutex<Vec<Instant>>> = Arc::new(Mutex::new(Vec::with_capacity(4096)));
    let sink = Arc::clone(&stamps);
    let stop = StopCondition::Custom(Arc::new(move |_: &lpt_gossip::driver::Progress| {
        sink.lock()
            .expect("stamp sink poisoned")
            .push(Instant::now());
        false
    }));
    let scenario = Scenario::parse(&key.fault).expect("instance keys name a fault preset");
    let topology = TopologyPreset::parse(&key.topology).expect("instance keys name a topology");
    let mut driver = Driver::new(problem)
        .nodes(inst.n())
        .seed(key.seed)
        .algorithm(algorithm(key.algorithm))
        .stop(stop)
        .max_rounds(key.max_rounds)
        .fault_model(scenario.fault_model())
        .topology(topology.topology())
        .rng_schedule(key.schedule)
        .engine(key.engine.clone())
        .parallel(parallel);
    if parallel {
        driver = driver.parallel_threshold(0);
    }
    let t = Instant::now();
    let report = pool
        .install(|| driver.run(&inst.points))
        .expect("driver runs on benchmark instances succeed");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let stamps = stamps.lock().expect("stamp sink poisoned");
    let steps_ms = stamps
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    Solve {
        ms,
        rounds: report.rounds,
        max_node_work: report.metrics.max_node_work(),
        r2: if report.all_halted {
            report.consensus_output().map(|b| b.value.r2)
        } else {
            None
        },
        dropped: report.faults.messages_dropped,
        delayed: report.faults.messages_delayed,
        ticks: ticks(&report.metrics),
        steps_ms,
    }
}

fn ticks(m: &gossip_sim::Metrics) -> u64 {
    m.rounds.last().map_or(0, |r| r.vtime + 1)
}

/// Per-phase times of a network-level run with the [`Timed`] wrapper.
#[derive(Default)]
pub struct Phases {
    pub pulls_ms: f64,
    pub serve_ms: f64,
    pub serve_calls: u64,
    pub serve_failed: u64,
    pub compute_ms: f64,
    pub absorb_ms: f64,
    /// Σ `Network::round` wall time.
    pub rounds_ms: f64,
}

impl Phases {
    pub fn protocol_ms(&self) -> f64 {
        self.pulls_ms + self.serve_ms + self.compute_ms + self.absorb_ms
    }
}

/// Runs `inst` at network level, sequentially, timing from the scatter
/// to the last round: the driver's own work minus its bookkeeping.
/// With `timed`, the protocol is wrapped in [`Timed`] and every round
/// is timed.
pub fn network_level(inst: &Instance, timed: bool) -> (Solve, Option<Phases>) {
    let n = inst.n();
    let t = Instant::now();
    let parts = scatter(&inst.points, n, inst.key.seed).expect("benchmark instances have nodes");
    match inst.key.algorithm {
        AlgorithmSpec::LowLoad => {
            let proto = LowLoadClarkson::new(Med, n, &LowLoadConfig::default());
            let states = parts.into_iter().map(|h| proto.initial_state(h)).collect();
            run_net(inst, t, proto, states, timed, |s| {
                s.output.as_ref().map(|b| b.value.r2)
            })
        }
        AlgorithmSpec::HighLoad => {
            let proto = HighLoadClarkson::new(Med, n, &HighLoadConfig::default());
            let states = parts.into_iter().map(|h| proto.initial_state(h)).collect();
            run_net(inst, t, proto, states, timed, |s| {
                s.output.as_ref().map(|b| b.value.r2)
            })
        }
        other => panic!("the benchmark runs no MED instance under {other:?}"),
    }
}

fn run_net<Pr: Protocol>(
    inst: &Instance,
    start: Instant,
    proto: Pr,
    states: Vec<Pr::State>,
    timed: bool,
    output: impl Fn(&Pr::State) -> Option<f64>,
) -> (Solve, Option<Phases>) {
    let cfg = inst.net_config();
    let max_rounds = inst.key.max_rounds;
    if !timed {
        let mut net = Network::new(proto, states, cfg);
        net.reserve_rounds(max_rounds.min(4096) as usize);
        let outcome = net.run(max_rounds);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        return (finish(&net, ms, outcome.rounds(), &output), None);
    }
    let mut net = Network::new(Timed::new(proto), states, cfg);
    net.reserve_rounds(max_rounds.min(4096) as usize);
    let n = net.n() as u64;
    let mut rounds_ms = 0.0;
    while net.round_index() < max_rounds {
        let t = Instant::now();
        net.round();
        rounds_ms += t.elapsed().as_secs_f64() * 1e3;
        if net.halted_count() == n {
            break;
        }
    }
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let c = &net.protocol().counters;
    let phases = Phases {
        pulls_ms: c.pulls.ms(),
        serve_ms: c.serve.ms(),
        serve_calls: c.serve.calls(),
        serve_failed: c.serve_failed.load(std::sync::atomic::Ordering::Relaxed),
        compute_ms: c.compute.ms(),
        absorb_ms: c.absorb.ms(),
        rounds_ms,
    };
    let rounds = net.round_index();
    (finish(&net, ms, rounds, &output), Some(phases))
}

fn finish<Pr: Protocol>(
    net: &Network<Pr>,
    ms: f64,
    rounds: u64,
    output: &impl Fn(&Pr::State) -> Option<f64>,
) -> Solve {
    let all_halted = net.halted_count() == net.n() as u64;
    let outs: Vec<Option<f64>> = net.states().iter().map(output).collect();
    let first = outs.first().copied().flatten();
    let agreed =
        all_halted && first.is_some_and(|f| outs.iter().all(|o| o.is_some_and(|v| close(v, f))));
    Solve {
        ms,
        rounds,
        max_node_work: net.metrics().max_node_work(),
        r2: if agreed { first } else { None },
        dropped: net.metrics().total_dropped(),
        delayed: net.metrics().total_delayed(),
        ticks: ticks(net.metrics()),
        steps_ms: Vec::new(),
    }
}
