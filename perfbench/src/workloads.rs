//! The four workloads and their end-to-end and traced runs.

use crate::calib::{Calibration, Kernel};
use crate::instance::{solve, Instance};
use crate::mix::{self, HOT_KEYS};
use crate::report::{nproc, peak_rss_mb, Metrics, Tally};
use crate::serve::{self, RegistryTrace, ServeLayers, Service};
use crate::stats::{median, ratio};
use crate::trace::LayerTrace;
use gossip_sim::Engine;
use lpt_gossip::spec::{AlgorithmSpec, RunSpecKey};
use lpt_problems::Med;
use lpt_server::registry;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::io;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["lowload-med", "highload-med", "event-wan", "serve-mixed"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Instances a solver workload cycles through.
const INSTANCES: u64 = 16;
/// Cache hits the serve probe of a solver workload replays.
const PROBE_HITS: usize = 20;
/// Cold `duo-disk` keys of `serve-mixed` traced in process.
const SERVE_TRACED_KEYS: usize = 6;
/// Sessions driving `serve-mixed`.
const SESSIONS: usize = 2;
/// Calibration samples taken before and after a timed window; solver
/// workloads also take one after every solve.
const CALIB_AROUND: usize = 5;

/// A solver workload: one MED instance family run through the Driver.
struct SolverWorkload {
    algorithm: AlgorithmSpec,
    n: u64,
    elements_per_node: u64,
    /// Force parallel node stepping on a `min(2, nproc)`-thread pool.
    parallel: bool,
    engine: &'static str,
    fault: &'static str,
}

fn solver(name: &str) -> Option<SolverWorkload> {
    Some(match name {
        "lowload-med" => SolverWorkload {
            algorithm: AlgorithmSpec::LowLoad,
            n: 1 << 11,
            elements_per_node: 1,
            parallel: true,
            engine: "round-sync",
            fault: "perfect",
        },
        "highload-med" => SolverWorkload {
            algorithm: AlgorithmSpec::HighLoad,
            n: 1 << 12,
            elements_per_node: 4,
            parallel: false,
            engine: "round-sync",
            fault: "perfect",
        },
        "event-wan" => SolverWorkload {
            algorithm: AlgorithmSpec::LowLoad,
            n: 1 << 9,
            elements_per_node: 1,
            parallel: false,
            engine: "event-uniform-1-4",
            fault: "wan",
        },
        _ => return None,
    })
}

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building a small rayon pool succeeds")
}

fn par_threads() -> usize {
    nproc().min(2)
}

impl SolverWorkload {
    fn key(&self, seed: u64, i: u64) -> RunSpecKey {
        let mut key = RunSpecKey::new(
            "triple-disk",
            self.n * self.elements_per_node,
            self.n,
            mix::derive(seed, 0x1257, i),
        );
        key.algorithm = self.algorithm;
        key.fault = self.fault.to_string();
        key.engine = Engine::parse(self.engine).expect("workload engines parse");
        key
    }

    fn threads(&self) -> usize {
        if self.parallel {
            par_threads()
        } else {
            1
        }
    }

    /// Generates the instances with their sequential optima and builds
    /// the pool the solves run on.
    fn setup(&self, seed: u64) -> (Vec<Instance>, ThreadPool) {
        let instances = (0..INSTANCES)
            .map(|i| Instance::new(self.key(seed, i)))
            .collect();
        (instances, pool(self.threads()))
    }

    fn end_to_end(&self, seed: u64, seconds: f64, tally: &mut Tally, m: &mut Metrics) {
        let mut cal = Calibration::new(self.threads(), Kernel::Memory);
        let (setup_s, (instances, pool)) = timed_setup(|| self.setup(seed));
        for _ in 0..CALIB_AROUND {
            cal.sample();
        }
        let mut solves = Vec::new();
        let mut solve_s = 0.0;
        while solves.is_empty() || solve_s < seconds {
            let inst = &instances[solves.len() % instances.len()];
            let s = solve(inst, Med, &pool, self.parallel);
            tally.check(s.correct(inst), || {
                format!("wrong optimum: {}", inst.key.canonical())
            });
            solve_s += s.ms / 1e3;
            solves.push((inst.n(), s));
            cal.sample();
        }
        let ms: Vec<f64> = solves.iter().map(|(_, s)| s.ms).collect();
        let rounds: Vec<f64> = solves.iter().map(|(_, s)| s.rounds as f64).collect();
        let steps: Vec<f64> = solves
            .iter()
            .flat_map(|(_, s)| s.steps_ms.iter().copied())
            .collect();
        let node_rounds: f64 = solves
            .iter()
            .map(|(n, s)| (*n as u64 * s.rounds) as f64)
            .sum();
        let work: Vec<f64> = solves.iter().map(|(_, s)| s.max_node_work as f64).collect();
        let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
        m.put_time("setup_s", setup_s, "s", &cal);
        m.put_time("solve_ms_p50", p50(&ms), "ms", &cal);
        m.put_rate(
            "node_rounds_per_s",
            ratio(node_rounds, solve_s),
            "1/s",
            &cal,
        );
        m.put("rounds_p50", p50(&rounds), "rounds");
        m.put("max_node_work", p50(&work), "count");
        m.put_time("op_ms_p50", p50(&steps), "ms", &cal);
        let rate = ratio(solves.len() as f64, solve_s);
        m.put_rate("requests_per_s", rate, "1/s", &cal);
        m.record_kernel(&cal);
        m.latency("solve_ms", &ms);
        m.latency("op_ms", &steps);
    }

    fn traced(
        &self,
        seed: u64,
        seconds: f64,
        tally: &mut Tally,
        m: &mut Metrics,
    ) -> io::Result<()> {
        let (instances, _) = self.setup(seed);
        let mut cal = Calibration::new(self.threads(), Kernel::Memory);
        for _ in 0..CALIB_AROUND {
            cal.sample();
        }
        m.record_kernel(&cal);
        let (seq, par) = (pool(1), pool(par_threads()));
        let mut layers = LayerTrace::default();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < seconds {
            layers.run(&instances[i % instances.len()], &seq, &par, tally);
            i += 1;
        }
        layers.put(m);
        let first = &instances[0];
        let mut reg = RegistryTrace::default();
        reg.run(&first.key, &seq, tally);
        reg.put(m);
        serve::probe(&first.key, PROBE_HITS, tally)?.put(m);
        Ok(())
    }
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median time in
/// seconds with the last result.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.expect("at least one set-up ran");
    (median(&times).unwrap_or(0.0), value)
}

/// `serve-mixed` set-up: bind, connect every session, warm the hot set.
/// Returns the service and the warm replies, which every later hit must
/// repeat byte for byte.
fn serve_setup(hot_keys: &[RunSpecKey]) -> io::Result<(Service, Vec<Vec<u8>>)> {
    let mut svc = Service::start(SESSIONS)?;
    let replies = hot_keys
        .iter()
        .map(|k| serve::request(&mut svc.clients[0], k).map(|(bytes, _)| bytes))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((svc, replies))
}

fn serve_mixed(
    seed: u64,
    seconds: f64,
    trace: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> io::Result<()> {
    let hot_keys: Vec<RunSpecKey> = (0..HOT_KEYS).map(|j| mix::hot_key(seed, j)).collect();
    // The reference bytes are computed in process, before any timing.
    let reference: Vec<Vec<u8>> = hot_keys
        .iter()
        .map(|k| registry::execute(k).bytes)
        .collect();
    let (setup_s, built) = timed_setup(|| serve_setup(&hot_keys));
    let (mut svc, warm) = built?;
    for (k, (w, r)) in hot_keys.iter().zip(warm.iter().zip(&reference)) {
        tally.check(w == r, || {
            format!(
                "warm reply for {} differs from registry::execute",
                k.canonical()
            )
        });
    }
    let mut cal = Calibration::new(serve::WORKERS.min(par_threads()), Kernel::Cache);
    for _ in 0..CALIB_AROUND {
        cal.sample();
    }
    let result = serve::run_loop(&mut svc, seed, &hot_keys, &warm, seconds, &mut cal, tally);
    let layers = trace.then(|| ServeLayers::read(&mut svc.clients[0]));
    drop(svc);
    for _ in 0..CALIB_AROUND {
        cal.sample();
    }
    let lp = result?;
    m.record_kernel(&cal);
    if !trace {
        m.put("setup_s", setup_s, "s");
        lp.put(m);
        return Ok(());
    }
    // Traced: the in-process layers on the first cold duo-disk keys.
    let (seq, par) = (pool(1), pool(par_threads()));
    let mut layer = LayerTrace::default();
    let mut reg = RegistryTrace::default();
    let keys = (0..)
        .map(|i| mix::pick(seed, 0, i))
        .filter(|p| matches!(p, mix::Pick::ColdDisk(_)))
        .take(SERVE_TRACED_KEYS)
        .map(mix::cold_key);
    for key in keys {
        let inst = Instance::new(key);
        layer.run(&inst, &seq, &par, tally);
        reg.run(&inst.key, &seq, tally);
    }
    layer.put(m);
    reg.put(m);
    layers
        .expect("the traced run read the serve layers")?
        .put(m);
    Ok(())
}

/// Runs workload `name`, filling `m` with its end-to-end metrics, or
/// with its per-layer metrics when `trace` is set.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tally: &mut Tally,
    m: &mut Metrics,
) -> io::Result<()> {
    if name == "serve-mixed" {
        serve_mixed(seed, seconds, trace, tally, m)?;
    } else {
        let w = solver(name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload {name}"),
            )
        })?;
        if trace {
            w.traced(seed, seconds, tally, m)?;
        } else {
            w.end_to_end(seed, seconds, tally, m);
        }
    }
    if !trace {
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(())
}
