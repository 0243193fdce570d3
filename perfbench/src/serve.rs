//! The untraced end-to-end pass: set the server up (several times, for a
//! steady set-up figure), warm it up, then drive the measured streams
//! through `POST /query` and `POST /ingest` from closed-loop clients,
//! checking every answer against the independent checker.

use crate::checker::Expected;
use crate::config::Serving;
use crate::workloads::{Op, Workload};
use rq_analyze::Json;
use rq_engine::{CacheConfig, Engine, EngineConfig};
use rq_serve::{Client, ServeConfig, Server, TenantQuota};
use rq_storage::{StorageConfig, StorageHandle};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Expected answer per `(query text, graph state)`.
pub type ExpectedMap = HashMap<(String, usize), Expected>;

/// Set-ups timed per run; the median is reported.
pub const SETUP_REPS: usize = 31;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// One measured request.
pub struct Sample {
    pub query: bool,
    pub us: f64,
    pub ok: bool,
    /// When the answer arrived, in seconds from the start of timing.
    pub done_s: f64,
    /// The served disposition of an answered query.
    pub disposition: Option<String>,
}

pub struct HttpRun {
    /// Seconds per set-up, one entry per repetition.
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    /// From the first measured request to the last answer.
    pub wall_s: f64,
    /// Answers that disagreed with the checker (warm-up included).
    pub wrong: usize,
    /// Requests refused with 429/503.
    pub shed: usize,
    /// Requests that ran out of budget (408/422).
    pub exhausted: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

pub fn engine_config(s: &Serving, cache: CacheConfig, preflight: bool) -> EngineConfig {
    EngineConfig {
        threads: s.engine_threads,
        max_threads: s.engine_threads.max(1),
        cache,
        preflight,
        ..EngineConfig::default()
    }
}

fn serve_config(s: &Serving) -> ServeConfig {
    ServeConfig {
        workers: s.serve_workers,
        queue_capacity: s.queue_capacity,
        request_fuel: s.request_fuel,
        request_timeout: Duration::from_millis(s.request_timeout_ms),
        quota: TenantQuota {
            fuel_per_sec: s.tenant_fuel_per_sec,
            burst_fuel: s.tenant_burst_fuel,
        },
        ..ServeConfig::default()
    }
}

/// The server's accept loop polls a non-blocking listener every 2 ms; a
/// fresh connection waits up to that long, so how a set-up races it
/// would dominate the figure. The first `/healthz` is therefore sent on
/// a connection the loop has already had time to accept.
const ACCEPT_SETTLE: Duration = Duration::from_millis(5);

/// Build (or open) the graph, the engine and the server, and answer the
/// first `/healthz`. Returns the server and the set-up time: everything
/// up to the server's start, plus the `/healthz` round trip.
fn start(wl: &Workload, s: &Serving, store: Option<&Path>) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let (db, handle) = match store {
        Some(dir) => {
            let (handle, db, _) =
                StorageHandle::open(dir, StorageConfig::default()).map_err(|e| e.to_string())?;
            (db, Some(handle))
        }
        None => (wl.base_db(), None),
    };
    let engine = Engine::new(db, engine_config(s, CacheConfig::default(), true));
    let server =
        Server::start_with_store(engine, serve_config(s), handle).map_err(|e| e.to_string())?;
    let started = t0.elapsed();
    let mut client = Client::connect(&server.addr().to_string(), CLIENT_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    std::thread::sleep(ACCEPT_SETTLE);
    let t1 = Instant::now();
    let resp = client
        .request("GET", "/healthz", &[], b"")
        .map_err(|e| format!("/healthz: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/healthz answered {}", resp.status));
    }
    Ok((server, (started + t1.elapsed()).as_secs_f64()))
}

/// Check one response against the checker. `Ok` carries the disposition
/// of an answered query.
fn check(
    op: &Op,
    status: u16,
    body: &str,
    expected: &ExpectedMap,
) -> Result<Option<String>, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let json = Json::parse(body).map_err(|e| format!("bad JSON ({e:?}): {body}"))?;
    match op {
        Op::Ingest { body: delta } => match json.get("applied").and_then(Json::as_u64) {
            Some(1) => Ok(None),
            other => Err(format!("ingest {delta:?} applied {other:?}")),
        },
        Op::Query { text, state } => {
            let want = expected
                .get(&(text.clone(), *state))
                .ok_or_else(|| format!("no expected answer for {text:?}"))?;
            let pairs = json.get("pairs").and_then(Json::as_u64);
            let sample: Option<Vec<(u32, u32)>> =
                json.get("sample").and_then(Json::as_arr).map(|a| {
                    a.iter()
                        .filter_map(|p| {
                            let p = p.as_arr()?;
                            Some((p.first()?.as_u64()? as u32, p.get(1)?.as_u64()? as u32))
                        })
                        .collect()
                });
            if pairs != Some(want.pairs) || sample.as_ref() != Some(&want.sample) {
                return Err(format!(
                    "wrong answer for {text:?} (state {state}): {pairs:?} pairs, want {}",
                    want.pairs
                ));
            }
            Ok(json
                .get("disposition")
                .and_then(Json::as_str)
                .map(str::to_string))
        }
    }
}

/// Outcome tally of one client.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    wrong: usize,
    shed: usize,
    exhausted: usize,
    notes: Vec<String>,
}

impl Tally {
    fn send(&mut self, client: &mut Client, op: &Op, expected: &ExpectedMap, epoch: Instant) {
        let (path, body) = match op {
            Op::Query { text, .. } => ("/query", text.as_bytes()),
            Op::Ingest { body } => ("/ingest", body.as_bytes()),
        };
        let t0 = Instant::now();
        let resp = client.request("POST", path, &[("X-Tenant", "bench")], body);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let done_s = epoch.elapsed().as_secs_f64();
        let outcome = match resp {
            Ok(r) => {
                match r.status {
                    429 | 503 => self.shed += 1,
                    408 | 422 => self.exhausted += 1,
                    _ => {}
                }
                let verdict = check(op, r.status, &r.text(), expected);
                if r.status == 200 && verdict.is_err() {
                    self.wrong += 1;
                }
                verdict
            }
            Err(e) => {
                let _ = client.reconnect();
                Err(format!("transport: {e}"))
            }
        };
        let ok = outcome.is_ok();
        if let Err(why) = &outcome {
            if self.notes.len() < 5 {
                self.notes.push(why.clone());
            }
        }
        self.samples.push(Sample {
            query: matches!(op, Op::Query { .. }),
            us,
            ok,
            done_s,
            disposition: outcome.ok().flatten(),
        });
    }
}

/// Run the whole untraced pass. `store` is the directory of a store
/// already created from the workload's base graph.
pub fn run(
    wl: &Workload,
    s: &Serving,
    expected: &ExpectedMap,
    seconds: f64,
    store: Option<&Path>,
) -> Result<HttpRun, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (started, secs) = start(wl, s, store)?;
        setup_s.push(secs);
        if rep + 1 < SETUP_REPS {
            started.shutdown();
        } else {
            server = Some(started);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr().to_string();

    let mut warm = Tally::default();
    let mut client = Client::connect(&addr, CLIENT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let warm_start = Instant::now();
    for op in &wl.warmup {
        warm.send(&mut client, op, expected, warm_start);
    }
    drop(client);

    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = wl
            .streams
            .iter()
            .map(|stream| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr, CLIENT_TIMEOUT)
                        .map_err(|e| format!("connect: {e}"))?;
                    let mut tally = Tally::default();
                    let mut i = 0;
                    while Instant::now() < end {
                        tally.send(&mut client, &stream[i % stream.len()], expected, started);
                        i += 1;
                    }
                    Ok::<_, String>(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    server.shutdown();

    let mut run = HttpRun {
        setup_s,
        samples: Vec::new(),
        wall_s,
        // Any warm-up failure leaves the server in an unknown state.
        wrong: warm.samples.iter().filter(|s| !s.ok).count(),
        shed: 0,
        exhausted: 0,
        notes: warm.notes,
    };
    for t in tallies {
        run.samples.extend(t.samples);
        run.wrong += t.wrong;
        run.shed += t.shed;
        run.exhausted += t.exhausted;
        run.notes.extend(t.notes);
    }
    Ok(run)
}
