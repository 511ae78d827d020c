//! The service side: a real `lpt-server` on loopback, the request mix
//! of `serve-mixed`, and the layer numbers read from outside through
//! the client (`stats` round trips, the `metrics` frame) and through an
//! in-process `registry::execute` of the same keys.

use crate::calib::Calibration;
use crate::instance::close;
use crate::mix;
use crate::report::{Metrics, Tally};
use crate::stats::{median, ratio};
use gossip_sim::export::{parse_frames, Frame, Json};
use lpt::LpType;
use lpt_gossip::spec::RunSpecKey;
use lpt_problems::med::IdPoint2;
use lpt_problems::Med;
use lpt_server::registry::{self, PLANTED_D, PLANTED_SET_SIZE};
use lpt_server::{solve_request_line, Client, Server, ServerConfig, ServerHandle};
use lpt_workloads::med::MedDataset;
use lpt_workloads::sets::planted_hitting_set;
use rayon::ThreadPool;
use std::io;
use std::time::Instant;

/// Worker threads of the server under test.
pub const WORKERS: usize = 2;

/// A running server and one connected client per session. Dropping
/// it closes the sessions first, then shuts the server down and joins
/// its threads (`ServerHandle`'s drop).
pub struct Service {
    pub clients: Vec<Client>,
    /// Held for its drop, which stops the server.
    _server: ServerHandle,
}

impl Service {
    pub fn start(sessions: usize) -> io::Result<Service> {
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let handle = Server::bind("127.0.0.1:0", config)?;
        let clients = (0..sessions)
            .map(|_| Client::connect(handle.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Service {
            clients,
            _server: handle,
        })
    }
}

/// Sends one solve request and reads the reply up to its terminal
/// frame, returning the raw bytes and the latency from send to the
/// last reply byte. Frames are parsed only after the clock stops.
pub fn request(client: &mut Client, key: &RunSpecKey) -> io::Result<(Vec<u8>, f64)> {
    let line = solve_request_line(key);
    let t = Instant::now();
    let mut reply = client.raw_line(&line)?.into_bytes();
    let mut last = 0;
    while !terminal(&reply[last..]) {
        last = reply.len();
        reply.extend_from_slice(client.raw_wait_line()?.as_bytes());
    }
    Ok((reply, t.elapsed().as_secs_f64() * 1e3))
}

fn terminal(line: &[u8]) -> bool {
    line.starts_with(b"{\"frame\":\"summary\"") || line.starts_with(b"{\"frame\":\"error\"")
}

/// The parts of a reply the benchmark checks and aggregates.
struct Reply {
    rounds: u64,
    n: u64,
    max_node_work: u64,
    consensus: String,
}

/// Parses a reply; `Err` names what is wrong with it (an error frame,
/// a malformed stream, a run that did not terminate).
fn parse_reply(bytes: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let frames = parse_frames(text).map_err(|(i, e)| format!("bad frame {i}: {e}"))?;
    let mut n = 0;
    let mut max_node_work = 0;
    for f in &frames {
        match f {
            Frame::Header(h) => n = h.n,
            Frame::Round(r) => max_node_work = max_node_work.max(r.max_node_work),
            Frame::Error(e) => {
                return Err(format!("error frame {} {}: {}", e.code, e.kind, e.detail))
            }
            Frame::Summary(s) => {
                if !s.all_halted {
                    return Err(format!("run stopped by {}", s.stop_cause));
                }
                let consensus = s.consensus.clone().ok_or("no consensus")?;
                return Ok(Reply {
                    rounds: s.rounds,
                    n,
                    max_node_work,
                    consensus,
                });
            }
        }
    }
    Err("reply has no summary".to_string())
}

/// Checks a reply's consensus against the key's sequential answer: the
/// minimum enclosing disk of the generated points, or, for
/// `planted-hs`, a hitting set within Theorem 5's size bound
/// `⌈6·d·ln(12·d·s)⌉` for `s` sets.
fn check_consensus(key: &RunSpecKey, consensus: &str) -> Result<(), String> {
    if key.workload == "planted-hs" {
        let n_elements = key.elements as usize;
        let sets = (n_elements / 2).max(4);
        let (sys, _) = planted_hitting_set(n_elements, sets, PLANTED_D, PLANTED_SET_SIZE, key.seed);
        let d = PLANTED_D as f64;
        let bound = (6.0 * d * (12.0 * d * sets as f64).ln()).ceil() as usize;
        let ids = consensus
            .strip_prefix("hs:")
            .and_then(|s| s.split_once(":["))
            .and_then(|(_, rest)| rest.strip_suffix(']'))
            .ok_or_else(|| format!("malformed hitting-set consensus {consensus}"))?;
        let ids: Vec<u32> = if ids.is_empty() {
            Vec::new()
        } else {
            ids.split(',')
                .map(|x| {
                    x.parse()
                        .map_err(|_| format!("bad element id in {consensus}"))
                })
                .collect::<Result<_, _>>()?
        };
        if ids.len() > bound || !sys.uncovered_sets(&ids).is_empty() {
            return Err(format!(
                "{consensus} is not a hitting set of size <= {bound}"
            ));
        }
        return Ok(());
    }
    let dataset = MedDataset::parse(&key.workload).ok_or("unknown MED dataset")?;
    let points: Vec<IdPoint2> = dataset.generate(key.elements as usize, key.seed);
    let want = Med.basis_of(&points).value.r2;
    let got: f64 = consensus
        .strip_prefix("med:r2=")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed MED consensus {consensus}"))?;
    if close(got, want) {
        Ok(())
    } else {
        Err(format!("consensus r2 {got} is not the optimum {want}"))
    }
}

/// Layer numbers of the wire, queue and cache, read from outside.
pub struct ServeLayers {
    metrics: Json,
    rtt_us: Vec<f64>,
}

/// `stats` round trips on an idle session: wire cost with no cache and
/// no driver behind it.
const RTT_SAMPLES: usize = 200;

impl ServeLayers {
    pub fn read(client: &mut Client) -> io::Result<ServeLayers> {
        let mut rtt_us = Vec::with_capacity(RTT_SAMPLES);
        for _ in 0..RTT_SAMPLES {
            let t = Instant::now();
            client.stats()?;
            rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let line = client.metrics_line()?;
        let metrics = Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(ServeLayers { metrics, rtt_us })
    }

    fn field(&self, name: &str) -> f64 {
        self.metrics.get(name).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// Puts the wire, queue and cache metrics. Queue-wait and busy
    /// percentiles come from the server's power-of-two histograms.
    pub fn put(&self, m: &mut Metrics) {
        m.put(
            "pool.queue_wait_us.p50",
            self.field("queue_wait_p50_us"),
            "us",
        );
        m.put(
            "pool.queue_wait_us.p99",
            self.field("queue_wait_p99_us"),
            "us",
        );
        m.put("pool.busy_ms", self.field("worker_busy_p50_us") / 1e3, "ms");
        let hits = self.field("hits_total");
        m.put(
            "cache.hit_ratio",
            ratio(hits, hits + self.field("misses_total")),
            "ratio",
        );
        m.put(
            "cache.evictions",
            self.field("cache_evictions_total"),
            "count",
        );
        m.put("cache.bytes", self.field("cache_bytes"), "bytes");
        m.put("wire.rtt_us.p50", median(&self.rtt_us).unwrap_or(0.0), "us");
    }
}

/// In-process `registry::execute` of instance keys, on a one-thread
/// pool as a server worker runs it (`engine_threads = 1`). Its render
/// step is timed from outside by re-rendering the reply's frames with
/// `Frame::to_line`, the call the registry renders with; the
/// re-rendered bytes must equal the reply.
#[derive(Default)]
pub struct RegistryTrace {
    execute_ms: Vec<f64>,
    render_ms: Vec<f64>,
}

impl RegistryTrace {
    pub fn run(&mut self, key: &RunSpecKey, seq: &ThreadPool, tally: &mut Tally) {
        let t = Instant::now();
        let out = seq.install(|| registry::execute(key));
        self.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let verdict = parse_reply(&out.bytes).and_then(|r| check_consensus(key, &r.consensus));
        tally.check(verdict.is_ok(), || {
            format!("registry reply for {}: {:?}", key.canonical(), verdict)
        });
        let text = String::from_utf8_lossy(&out.bytes);
        let frames = parse_frames(&text).unwrap_or_default();
        let t = Instant::now();
        let mut again = Vec::with_capacity(out.bytes.len());
        for f in &frames {
            again.extend_from_slice(f.to_line().as_bytes());
            again.push(b'\n');
        }
        self.render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(again == out.bytes, || {
            format!("re-rendered reply for {} differs", key.canonical())
        });
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put(
            "registry.execute.ms",
            median(&self.execute_ms).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "registry.render.ms",
            median(&self.render_ms).unwrap_or(0.0),
            "ms",
        );
    }
}

/// Serves `key` once cold and `hits` times from the cache, checking
/// every reply, then reads the layer numbers: the service path of a
/// solver workload's own instance.
pub fn probe(key: &RunSpecKey, hits: usize, tally: &mut Tally) -> io::Result<ServeLayers> {
    let mut svc = Service::start(1)?;
    let client = &mut svc.clients[0];
    let (first, _) = request(client, key)?;
    let verdict = parse_reply(&first).and_then(|r| check_consensus(key, &r.consensus));
    tally.check(verdict.is_ok(), || {
        format!("served {}: {:?}", key.canonical(), verdict)
    });
    for _ in 0..hits {
        let (again, _) = request(client, key)?;
        tally.check(again == first, || {
            format!("cache hit for {} changed bytes", key.canonical())
        });
    }
    ServeLayers::read(client)
}

/// Summary of the serve loop's requests. Times named `_ref` are at the
/// calibration kernel's reference speed.
#[derive(Default)]
pub struct Loop {
    hot_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    cold_ref_ms: Vec<f64>,
    cold_rounds: Vec<f64>,
    cold_node_rounds: f64,
    cold_max_node_work: Vec<f64>,
    requests: u64,
    window_s: f64,
    window_ref_s: f64,
}

impl Loop {
    /// Puts the end-to-end metrics. Cold latency and the rates are
    /// compute-bound and reported at reference speed; hit latency is
    /// mostly system calls and wake-ups and is reported as measured.
    pub fn put(&self, m: &mut Metrics) {
        let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
        let sum_s = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
        m.put_measured(
            "solve_ms_p50",
            p50(&self.cold_ref_ms),
            p50(&self.cold_ms),
            "ms",
        );
        m.put_measured(
            "node_rounds_per_s",
            ratio(self.cold_node_rounds, sum_s(&self.cold_ref_ms)),
            ratio(self.cold_node_rounds, sum_s(&self.cold_ms)),
            "1/s",
        );
        m.put("rounds_p50", p50(&self.cold_rounds), "rounds");
        m.put("max_node_work", p50(&self.cold_max_node_work), "count");
        m.put("op_ms_p50", p50(&self.hot_ms), "ms");
        m.put_measured(
            "requests_per_s",
            ratio(self.requests as f64, self.window_ref_s),
            ratio(self.requests as f64, self.window_s),
            "1/s",
        );
        m.latency("solve_ms", &self.cold_ms);
        m.latency("op_ms", &self.hot_ms);
    }
}

/// One request as a session recorded it.
struct Sent {
    pick: mix::Pick,
    key: RunSpecKey,
    ms: f64,
    bytes: Vec<u8>,
}

/// Length of one slice of the closed loop, in seconds. Between slices
/// every session has its reply and the server is idle, and the
/// calibration kernel is sampled; a cold request's latency is scaled by
/// the kernel samples taken just before and just after its slice.
const SLICE_S: f64 = 1.0;
/// Kernel samples taken at each pause between slices.
const SLICE_SAMPLES: usize = 3;

/// Runs the closed loop: every session sends its next request only
/// after the previous reply arrived, until `seconds` of slices have
/// passed. Hot replies must equal `hot_replies` byte for byte; cold
/// replies must be error-free and carry the sequential optimum, and the
/// first few of each family must equal an in-process
/// `registry::execute`.
pub fn run_loop(
    svc: &mut Service,
    seed: u64,
    hot_keys: &[RunSpecKey],
    hot_replies: &[Vec<u8>],
    seconds: f64,
    cal: &mut Calibration,
    tally: &mut Tally,
) -> io::Result<Loop> {
    let mut next = vec![0u64; svc.clients.len()];
    let mut sent: Vec<(usize, Sent)> = Vec::new();
    let mut pauses = vec![pause(cal)];
    let (mut window_s, mut window_ref_s) = (0.0, 0.0);
    while window_s < seconds {
        let slice = pauses.len() - 1;
        let start = Instant::now();
        let sessions = run_slice(svc, seed, hot_keys, &mut next);
        let slice_s = start.elapsed().as_secs_f64();
        for s in sessions {
            sent.extend(s?.into_iter().map(|r| (slice, r)));
        }
        pauses.push(pause(cal));
        window_s += slice_s;
        window_ref_s += cal.time_at(slice_s, kernel_ms(&pauses, slice));
    }
    let mut out = Loop {
        window_s,
        window_ref_s,
        ..Loop::default()
    };
    let mut registry_checked = [0usize; 2];
    for (slice, r) in sent {
        out.requests += 1;
        if let mix::Pick::Hot(j) = r.pick {
            tally.check(r.bytes == hot_replies[j], || {
                format!("hot key {} changed bytes", r.key.canonical())
            });
            out.hot_ms.push(r.ms);
            continue;
        }
        let verdict = parse_reply(&r.bytes)
            .and_then(|rep| check_consensus(&r.key, &rep.consensus).map(|()| rep));
        let family = usize::from(r.key.workload == "planted-hs");
        let registry_ok = if verdict.is_ok() && registry_checked[family] < mix::REGISTRY_CHECKS {
            registry_checked[family] += 1;
            registry::execute(&r.key).bytes == r.bytes
        } else {
            true
        };
        tally.check(verdict.is_ok() && registry_ok, || {
            format!(
                "cold key {}: {:?}, registry agrees: {registry_ok}",
                r.key.canonical(),
                verdict.as_ref().err()
            )
        });
        if let Ok(rep) = verdict {
            out.cold_ms.push(r.ms);
            out.cold_ref_ms
                .push(cal.time_at(r.ms, kernel_ms(&pauses, slice)));
            out.cold_rounds.push(rep.rounds as f64);
            out.cold_node_rounds += (rep.n * rep.rounds) as f64;
            out.cold_max_node_work.push(rep.max_node_work as f64);
        }
    }
    Ok(out)
}

/// Runs every session for one slice, session `s` starting at request
/// index `next[s]` and leaving it at the first index it did not send.
fn run_slice(
    svc: &mut Service,
    seed: u64,
    hot_keys: &[RunSpecKey],
    next: &mut [u64],
) -> Vec<io::Result<Vec<Sent>>> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = svc
            .clients
            .iter_mut()
            .zip(next.iter_mut())
            .enumerate()
            .map(|(s, (client, i))| {
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    while start.elapsed().as_secs_f64() < SLICE_S {
                        let pick = mix::pick(seed, s as u64, *i);
                        let key = match pick {
                            mix::Pick::Hot(j) => hot_keys[j].clone(),
                            cold => mix::cold_key(cold),
                        };
                        let (bytes, ms) = request(client, &key)?;
                        sent.push(Sent {
                            pick,
                            key,
                            ms,
                            bytes,
                        });
                        *i += 1;
                    }
                    Ok(sent)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a session thread panicked"))
            .collect()
    })
}

/// The median of [`SLICE_SAMPLES`] kernel samples, taken while the
/// service is idle.
fn pause(cal: &mut Calibration) -> f64 {
    let samples: Vec<f64> = (0..SLICE_SAMPLES).map(|_| cal.sample()).collect();
    median(&samples).expect("a pause takes samples")
}

/// The kernel time for slice `slice`: the mean of the pauses before and
/// after it.
fn kernel_ms(pauses: &[f64], slice: usize) -> f64 {
    (pauses[slice] + pauses[slice + 1]) / 2.0
}
