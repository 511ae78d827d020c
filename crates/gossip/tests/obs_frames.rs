//! Golden-file lock on the observability wire frames.
//!
//! The `metrics` and `trace` frames are part of the lpt-server wire
//! contract: monitoring scrapes and dashboards parse them by field
//! name, so their rendering must stay byte-stable exactly like the
//! report stream pinned in `export_jsonl.rs`. This test pins one
//! representative frame of each kind against `tests/golden/obs.jsonl`
//! byte-for-byte.
//!
//! To regenerate after an *intentional* format change:
//! `UPDATE_GOLDEN=1 cargo test -p gossip-sim --test obs_frames`

use gossip_sim::export::{metrics_line, trace_line, Frame, FrameError, MetricsSnapshot};
use gossip_sim::obs::{Counter, Gauge, Phase};
use gossip_sim::{Histogram, ObsSummary};

/// A histogram with a fully determined shape: counts, percentiles, and
/// the exact max all derive from these fixed values.
fn hist(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn golden_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        requests: 9,
        hits: 4,
        misses: 3,
        runs: 3,
        errors: 1,
        open_sessions: 2,
        workers: 4,
        worker_panics: 1,
        queue_depth: 0,
        queue_depth_high_water: 3,
        cache_entries: 3,
        cache_bytes: 26_872,
        cache_evictions: 1,
        latency_cold_us: hist(&[250_000, 310_000, 470_000]),
        latency_hit_us: hist(&[5, 9, 12, 40]),
        latency_pending_us: Histogram::new(),
        latency_error_us: hist(&[1_800]),
        queue_wait_us: hist(&[120, 950, 4_100]),
        worker_busy_us: hist(&[240_000, 300_000, 460_000]),
        engine_runs: vec![
            ("round-sync".to_string(), 2),
            ("event-const-3".to_string(), 1),
        ],
    }
}

fn golden_trace() -> ObsSummary {
    let mut obs = ObsSummary::default();
    for (i, phase) in Phase::ALL.iter().enumerate() {
        // Distinct per-phase totals so a column swap cannot hide.
        obs.phase_nanos[phase.index()] = (i as u64 + 1) * 1_000_000;
        obs.phase_calls[phase.index()] = 64;
        obs.phase_max_nanos[phase.index()] = (i as u64 + 1) * 250_000;
    }
    obs.counters[Counter::EventPops.index()] = 512;
    obs.counters[Counter::RefillRows.index()] = 96;
    obs.gauges[Gauge::HeapDepth.index()] = 41;
    obs.gauges[Gauge::PopsPerTick.index()] = 8;
    obs
}

fn render() -> String {
    let mut out = String::new();
    out.push_str(&metrics_line(&golden_metrics()));
    out.push('\n');
    // A cold traced run: full phase breakdown.
    out.push_str(&trace_line("cold", 481_733, 950, Some(&golden_trace())));
    out.push('\n');
    // A traced cache hit: no run happened, so no recorder summary.
    out.push_str(&trace_line("hit", 12, 0, None));
    out.push('\n');
    out
}

#[test]
fn obs_frames_match_the_golden_file_byte_for_byte() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs.jsonl");
    let rendered = render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden file");
    }
    let golden = std::fs::read_to_string(golden_path).expect("read golden file");
    assert_eq!(
        rendered, golden,
        "observability wire format drifted from tests/golden/obs.jsonl; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Old readers must stay safe: the report-stream parser treats both
/// observability frames as *unknown tags*, never as silent misparses.
#[test]
fn obs_frames_are_unknown_to_the_report_parser() {
    for line in render().lines() {
        match Frame::parse(line) {
            Err(FrameError::UnknownFrame(tag)) => {
                assert!(tag == "metrics" || tag == "trace", "unexpected tag {tag}");
            }
            other => panic!("expected UnknownFrame, got {other:?}"),
        }
    }
}
