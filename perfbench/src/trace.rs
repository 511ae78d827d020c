//! The traced run of one instance: the same solve untraced on one and
//! on several threads, with the `LpType` wrapper, and at network level
//! bare and with the `Protocol` wrapper. Every variant must follow the
//! untraced trajectory exactly, so the wrappers measure the program
//! the end-to-end run measures.

use crate::instance::{network_level, solve, Instance, Phases, Solve};
use crate::probes::Counted;
use crate::report::{Metrics, Tally};
use crate::stats::{median, ratio, self_time};
use lpt_gossip::driver::scatter;
use lpt_problems::Med;
use rayon::ThreadPool;
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Per-layer sums over the traced instances.
#[derive(Default)]
pub struct LayerTrace {
    instances: u64,
    untraced_seq_ms: Vec<f64>,
    traced_seq_ms: Vec<f64>,
    untraced_par_ms: f64,
    basis_calls: u64,
    basis_ms: f64,
    basis_input: u64,
    violates_calls: u64,
    violates_ms: f64,
    violations: u64,
    phases: Phases,
    dropped: u64,
    delayed: u64,
    ticks: Vec<f64>,
    scatter_ms: f64,
    driver_self_ms: f64,
}

impl LayerTrace {
    /// Traces one instance on the one-thread `seq` pool and the
    /// multi-thread `par` pool, recording a failure in `tally` for any
    /// wrong answer or diverging trajectory.
    pub fn run(&mut self, inst: &Instance, seq: &ThreadPool, par: &ThreadPool, tally: &mut Tally) {
        let name = || inst.key.canonical();
        let u_seq = solve(inst, Med, seq, false);
        tally.check(u_seq.correct(inst), || format!("wrong optimum: {}", name()));
        let u_par = solve(inst, Med, par, true);
        let counted = Counted::new(Med);
        let traced = solve(inst, counted.clone(), seq, false);
        let (bare, _) = network_level(inst, false);
        let (timed, phases) = network_level(inst, true);
        let phases = phases.expect("a timed network run reports its phases");
        let variants: [(&str, &Solve); 4] = [
            ("parallel", &u_par),
            ("lp-traced", &traced),
            ("network", &bare),
            ("network-traced", &timed),
        ];
        for (what, s) in variants {
            tally.check(s.same_trajectory(&u_seq), || {
                format!("{what} run diverged from the untraced one: {}", name())
            });
        }
        let t = Instant::now();
        let parts = scatter(&inst.points, inst.n(), inst.key.seed);
        let scatter_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(std::hint::black_box(parts));

        let c = &counted.counters;
        self.instances += 1;
        self.untraced_seq_ms.push(u_seq.ms);
        self.traced_seq_ms.push(traced.ms);
        self.untraced_par_ms += u_par.ms;
        self.basis_calls += c.basis_of.calls();
        self.basis_ms += c.basis_of.ms();
        self.basis_input += c.basis_input.load(Relaxed);
        self.violates_calls += c.violates.calls();
        self.violates_ms += c.violates.ms();
        self.violations += c.violations.load(Relaxed);
        let p = &mut self.phases;
        p.pulls_ms += phases.pulls_ms;
        p.serve_ms += phases.serve_ms;
        p.serve_calls += phases.serve_calls;
        p.serve_failed += phases.serve_failed;
        p.compute_ms += phases.compute_ms;
        p.absorb_ms += phases.absorb_ms;
        p.rounds_ms += phases.rounds_ms;
        self.dropped += u_seq.dropped;
        self.delayed += u_seq.delayed;
        self.ticks.push(u_seq.ticks as f64);
        self.scatter_ms += scatter_ms;
        self.driver_self_ms += self_time(u_seq.ms, bare.ms);
    }

    /// Puts the solver-side per-layer metrics. Sums are reported per
    /// solve (divided by the number of traced instances).
    pub fn put(&self, m: &mut Metrics) {
        assert!(
            self.instances > 0,
            "a traced run traces at least one instance"
        );
        let per = |x: f64| x / self.instances as f64;
        let p = &self.phases;
        m.put("med.basis_of.calls", per(self.basis_calls as f64), "count");
        m.put("med.basis_of.ms", per(self.basis_ms), "ms");
        m.put(
            "med.basis_of.input_mean",
            ratio(self.basis_input as f64, self.basis_calls as f64),
            "elements",
        );
        m.put(
            "med.violates.calls",
            per(self.violates_calls as f64),
            "count",
        );
        m.put("med.violates.ms", per(self.violates_ms), "ms");
        m.put(
            "med.violates.hit_ratio",
            ratio(self.violations as f64, self.violates_calls as f64),
            "ratio",
        );
        m.put("proto.pulls.ms", per(p.pulls_ms), "ms");
        m.put("proto.serve.ms", per(p.serve_ms), "ms");
        m.put(
            "proto.serve.fail_ratio",
            ratio(p.serve_failed as f64, p.serve_calls as f64),
            "ratio",
        );
        m.put("proto.compute.ms", per(p.compute_ms), "ms");
        m.put("proto.absorb.ms", per(p.absorb_ms), "ms");
        m.put(
            "engine.self.ms",
            per(self_time(p.rounds_ms, p.protocol_ms())),
            "ms",
        );
        m.put("fault.dropped", per(self.dropped as f64), "count");
        m.put("fault.delayed", per(self.delayed as f64), "count");
        m.put("event.ticks", median(&self.ticks).unwrap_or(0.0), "ticks");
        m.put("driver.scatter.ms", per(self.scatter_ms), "ms");
        m.put("driver.self.ms", per(self.driver_self_ms), "ms");
        m.put(
            "par.speedup",
            ratio(self.untraced_seq_ms.iter().sum(), self.untraced_par_ms),
            "x",
        );
        m.put(
            "trace.overhead_ms",
            median(&self.traced_seq_ms).unwrap_or(0.0)
                - median(&self.untraced_seq_ms).unwrap_or(0.0),
            "ms",
        );
    }
}
