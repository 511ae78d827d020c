//! # lpt-server — gossip-as-a-service
//!
//! A session-oriented TCP server exposing the [`lpt_gossip`] driver
//! over a newline-delimited JSON wire protocol (the
//! [`gossip_sim::export`] frame format). Clients open a session, send
//! `solve` requests naming a workload preset, an algorithm, fault and
//! topology scenarios, and an RNG schedule, and receive the run
//! streamed back as `header · round* · summary` frames.
//!
//! The architecture leans on one fact: **runs are deterministic**.
//! A run is a pure function of its canonical [`RunSpecKey`]
//! (`lpt_gossip::spec`), so the server can cache *rendered reply
//! bytes* keyed by the spec and replay them for repeat requests —
//! byte-identical to the cold run, with no driver execution. Misses
//! are single-flight (concurrent identical requests coalesce onto one
//! run) and execution is multiplexed over a bounded worker pool whose
//! full queue pushes back on submitting sessions.
//!
//! The service is crash-safe: worker jobs run under `catch_unwind`,
//! so a panicking run answers its session with a typed
//! `worker-panicked` frame (code 212) while the worker survives and
//! the pending cache key is released. An optional per-request solve
//! deadline ([`ServerConfig::solve_timeout`], `--solve-timeout-ms`)
//! cancels overrunning runs cooperatively at a round boundary and
//! answers with a typed `solve-timeout` frame (code 213). The
//! [`Client`] pairs this with a deterministic capped-backoff
//! [`RetryPolicy`] for connects and idempotent resubmits.
//!
//! An observability plane rides alongside without perturbing any of
//! the above: the `metrics` command snapshots per-outcome latency
//! histograms, queue and cache gauges, and per-engine run counts
//! ([`ServerObs`]), and a `"trace": true` solve field appends a
//! per-request `trace` frame after the reply stream. Wall-clock
//! timing is observational only — it never enters the cache key or
//! the cached reply bytes.
//!
//! ## Quick start
//!
//! ```no_run
//! use lpt_server::{Client, RunSpecKey, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.solve(&RunSpecKey::new("duo-disk", 1024, 256, 42))?;
//! println!("{} rounds", reply.summary.unwrap().rounds);
//! client.shutdown()?;
//! server.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod request;
pub mod server;

pub use cache::{Lookup, PendingGuard, ReportCache};
pub use client::{Client, RetryPolicy, SolveReply};
pub use error::ServerError;
pub use metrics::{Outcome, ServerObs};
pub use pool::WorkerPool;
pub use registry::{execute, execute_with_options, ExecOutcome, CHAOS_PANIC_WORKLOAD, WORKLOADS};
pub use request::{parse_request, solve_request_line, Request};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats, MAX_REQUEST_LINE};

// Re-exported so client code can build specs without naming the core
// crate.
pub use lpt_gossip::spec::{AlgorithmSpec, F64Key, RunSpecKey, SpecError, StopSpec};
