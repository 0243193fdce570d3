//! The traced pass: replay a workload's request sequence in process,
//! through the same public calls the serving path makes, with one
//! benchmark-side span around each call. Nothing inside the program is
//! instrumented; counts come from deltas of the counters it already
//! exports (`rq_metrics::global()`).
//!
//! Three kinds of pass run, each from the same fresh state:
//!
//! * untraced — the calls alone, for the tracing overhead;
//! * traced — the calls under spans, for per-layer time and coverage
//!   (untraced and traced alternate twice, so neither gets all the cold
//!   first pass);
//! * decompose — after each miss, the evaluation taken apart into its
//!   per-source BFS (`frontier::reachable_governed`) and its all-pairs
//!   form (`frontier::all_pairs_governed`); the difference is answer
//!   materialization.

use crate::checker::{Expected, SAMPLE_PAIRS};
use crate::config::Serving;
use crate::serve::{engine_config, ExpectedMap};
use crate::workloads::{Op, Workload};
use rq_analyze::PreflightAction;
use rq_automata::governor::{Governor, Limits};
use rq_automata::Alphabet;
use rq_core::TwoRpq;
use rq_engine::{Answer, CacheConfig, CacheStats, Engine, Lookup, SemanticCache};
use rq_graph::{frontier, Delta, NodeId};
use rq_metrics::registry::Snapshot;
use rq_metrics::Value;
use rq_storage::{StorageConfig, StorageHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark-side span. `req` is the replayed request it belongs to;
/// the request's own span (name `request`) is every layer span's parent.
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn span<T>(&mut self, req: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Untraced,
    Traced,
    Decompose,
}

/// The serving path's state, rebuilt afresh for every pass: a
/// cache-off engine (so `Engine::run` is pure evaluation), the semantic
/// cache configured as the served engine's, and the store.
struct State {
    engine: Engine,
    cache: SemanticCache,
    alphabet: Alphabet,
    probe_limits: Limits,
    store: Option<StorageHandle>,
    open_ms: Option<f64>,
}

fn fresh(wl: &Workload, s: &Serving, dir: &Path) -> Result<State, String> {
    let (db, store, open_ms) = if wl.persistent {
        let _ = std::fs::remove_dir_all(dir);
        StorageHandle::create(dir, &wl.base_db(), StorageConfig::default())
            .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (handle, db, _) =
            StorageHandle::open(dir, StorageConfig::default()).map_err(|e| e.to_string())?;
        (db, Some(handle), Some(t0.elapsed().as_secs_f64() * 1e3))
    } else {
        (wl.base_db(), None, None)
    };
    let served = CacheConfig::default();
    let probe_limits = served.probe_limits.clone();
    let cache_off = CacheConfig {
        capacity: 0,
        canonical_keys: false,
        ..CacheConfig::default()
    };
    let engine = Engine::new(db, engine_config(s, cache_off, false));
    let alphabet = engine.alphabet();
    Ok(State {
        engine,
        cache: SemanticCache::new(served),
        alphabet,
        probe_limits,
        store,
        open_ms,
    })
}

/// What one pass observed.
#[derive(Default)]
struct PassReport {
    spans: Vec<Span>,
    /// Sum of the measured requests' own durations, µs.
    wall_us: f64,
    queries: u64,
    ingests: u64,
    pairs: u64,
    rewritten: u64,
    wrong: u64,
    stats: CacheStats,
    counters: BTreeMap<String, u64>,
    open_ms: Option<f64>,
    /// Per evaluated miss: (Σ per-source BFS µs, all-pairs µs, fuel,
    /// product-state expansions).
    decomposed: Vec<(f64, f64, u64, u64)>,
    append_log_bytes: u64,
}

const COUNTERS: [&str; 4] = [
    "rq_containment_ladder_total",
    "rq_cache_probes_total",
    "rq_cache_probe_fuel_spent",
    "rq_governor_exhaustions_total",
];

/// Every counter (and histogram sum/count) of the families above, keyed
/// `family{labels}`, with histogram sums as `family_sum`.
fn counters(snap: &Snapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for m in &snap.metrics {
        if !COUNTERS.contains(&m.name.as_str()) {
            continue;
        }
        let labels: Vec<String> = m.labels.iter().map(|(_, v)| v.clone()).collect();
        let key = format!("{}{{{}}}", m.name, labels.join(","));
        match &m.value {
            Value::Counter(c) => {
                out.insert(key, *c);
            }
            Value::Histogram(h) => {
                out.insert(format!("{}_sum", m.name), h.sum);
                out.insert(format!("{}_count", m.name), h.count);
            }
            Value::Gauge(_) => {}
        }
    }
    out
}

fn counter_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

fn expansions() -> u64 {
    match rq_metrics::global()
        .snapshot()
        .get("rq_frontier_expansions_total", &[])
    {
        Some(Value::Counter(c)) => *c,
        _ => 0,
    }
}

fn summary(answer: &BTreeSet<(NodeId, NodeId)>) -> Expected {
    Expected {
        pairs: answer.len() as u64,
        sample: answer
            .iter()
            .take(SAMPLE_PAIRS)
            .map(|&(x, y)| (x.index() as u32, y.index() as u32))
            .collect(),
    }
}

/// Serve one query the way the engine does, under spans. Returns the
/// answer and, for a miss, the evaluated query.
fn query(
    st: &mut State,
    tr: &mut Tracer,
    req: u32,
    text: &str,
    rewritten: &mut u64,
) -> Result<(Answer, Option<TwoRpq>), String> {
    let q = tr
        .span(req, "parse", || st.engine.parse(text))
        .map_err(|e| e.to_string())?;
    let p = tr.span(req, "preflight", || {
        rq_analyze::preflight(&q, &st.alphabet, &st.probe_limits)
    });
    match p.action {
        PreflightAction::Empty => return Ok((Arc::new(BTreeSet::new()), None)),
        PreflightAction::Rewritten => *rewritten += 1,
        PreflightAction::Unchanged => {}
    }
    let q = p.query;
    let key = tr.span(req, "cache.key", || st.cache.key_of(&q, &st.alphabet));
    let lookup = tr.span(req, "cache.lookup", || {
        st.cache.lookup(&q, &key, &st.alphabet)
    });
    match lookup {
        Lookup::Exact(a) | Lookup::Equivalent(a) => Ok((a, None)),
        Lookup::Subsumed { superset, .. } => {
            // As the engine does: re-run the product BFS from the sources
            // of the subsuming answer only.
            let db = st.engine.db();
            let answer = tr
                .span(req, "frontier.subsumed", || {
                    let mut sources: Vec<NodeId> = superset.iter().map(|&(x, _)| x).collect();
                    sources.dedup();
                    let gov = Governor::unlimited();
                    let mut out = BTreeSet::new();
                    for x in sources {
                        for y in frontier::reachable_governed(&db, q.nfa(), x, &gov)? {
                            out.insert((x, y));
                        }
                    }
                    Ok::<_, rq_automata::Exhaustion>(Arc::new(out))
                })
                .map_err(|e| e.to_string())?;
            tr.span(req, "cache.insert", || {
                st.cache.insert(key, &q, Arc::clone(&answer))
            });
            Ok((answer, None))
        }
        Lookup::Miss => {
            let result = tr
                .span(req, "engine.eval", || st.engine.run(&q))
                .map_err(|e| e.to_string())?;
            tr.span(req, "cache.insert", || {
                st.cache.insert(key, &q, Arc::clone(&result.answer))
            });
            Ok((result.answer, Some(q)))
        }
    }
}

/// Apply one ingest the way `POST /ingest` does: durable append, then
/// the engine, then cache invalidation for the touched labels.
fn ingest(st: &mut State, tr: &mut Tracer, req: u32, body: &str) -> Result<(), String> {
    let deltas = Delta::parse_text(body).map_err(|(line, e)| format!("delta {line}: {e}"))?;
    if let Some(store) = st.store.as_mut() {
        tr.span(req, "storage.append", || store.append(&deltas))
            .map_err(|e| e.to_string())?;
    }
    let report = tr.span(req, "engine.apply_deltas", || {
        st.engine.apply_deltas(&deltas)
    });
    if report.applied > 0 || report.added_nodes {
        let touched: BTreeSet<_> = deltas
            .iter()
            .filter_map(|d| st.alphabet.get(d.label_name()))
            .collect();
        tr.span(req, "cache.invalidate", || {
            st.cache.invalidate(&touched, report.added_nodes)
        });
    }
    Ok(())
}

fn decompose(st: &State, tr: &mut Tracer, req: u32, q: &TwoRpq) -> (f64, f64, u64, u64) {
    let db = st.engine.db();
    let before = expansions();
    let gov = Governor::unlimited();
    let t0 = Instant::now();
    tr.span(req, "frontier.bfs", || {
        for x in db.nodes() {
            black_box(frontier::reachable_governed(&db, q.nfa(), x, &gov).expect("unlimited"));
        }
    });
    let bfs_us = t0.elapsed().as_secs_f64() * 1e6;
    let expanded = expansions() - before;
    let t1 = Instant::now();
    tr.span(req, "answer.all_pairs", || {
        black_box(
            frontier::all_pairs_governed(&db, q.nfa(), &Governor::unlimited()).expect("unlimited"),
        );
    });
    let all_us = t1.elapsed().as_secs_f64() * 1e6;
    (bfs_us, all_us, gov.fuel_spent(), expanded)
}

fn log_bytes(st: &State) -> u64 {
    st.store
        .as_ref()
        .and_then(|h| std::fs::metadata(h.dir().join("deltas.rqlog")).ok())
        .map_or(0, |m| m.len())
}

fn run_pass(
    wl: &Workload,
    s: &Serving,
    expected: &ExpectedMap,
    ops: &[Op],
    dir: &Path,
    pass: Pass,
) -> Result<PassReport, String> {
    let mut st = fresh(wl, s, dir)?;
    let mut warm = Tracer::new(false);
    let mut ignored = 0;
    for (i, op) in wl.warmup.iter().enumerate() {
        match op {
            Op::Query { text, .. } => {
                query(&mut st, &mut warm, i as u32, text, &mut ignored)?;
            }
            Op::Ingest { body } => ingest(&mut st, &mut warm, i as u32, body)?,
        }
    }
    let mut tr = Tracer::new(pass != Pass::Untraced);
    let mut rep = PassReport {
        open_ms: st.open_ms,
        ..PassReport::default()
    };
    let stats_before = st.cache.stats();
    let counters_before = counters(&rq_metrics::global().snapshot());
    let log_before = log_bytes(&st);
    for (i, op) in ops.iter().enumerate() {
        let req = i as u32;
        let t0 = Instant::now();
        let served = match op {
            Op::Query { text, .. } => Some(query(&mut st, &mut tr, req, text, &mut rep.rewritten)?),
            Op::Ingest { body } => {
                ingest(&mut st, &mut tr, req, body)?;
                None
            }
        };
        let elapsed = t0.elapsed();
        rep.wall_us += elapsed.as_secs_f64() * 1e6;
        if pass == Pass::Traced {
            let start_ns = tr.ns(t0);
            tr.spans.push(Span {
                req,
                name: "request",
                start_ns,
                end_ns: start_ns + elapsed.as_nanos() as u64,
            });
        }
        match (op, served) {
            (Op::Query { text, state }, Some((answer, missed))) => {
                rep.queries += 1;
                rep.pairs += answer.len() as u64;
                if expected.get(&(text.clone(), *state)) != Some(&summary(&answer)) {
                    rep.wrong += 1;
                }
                if let (Pass::Decompose, Some(q)) = (pass, missed) {
                    rep.decomposed.push(decompose(&st, &mut tr, req, &q));
                }
            }
            _ => rep.ingests += 1,
        }
    }
    let after = st.cache.stats();
    rep.stats = CacheStats {
        exact: after.exact - stats_before.exact,
        equivalent: after.equivalent - stats_before.equivalent,
        subsumed: after.subsumed - stats_before.subsumed,
        misses: after.misses - stats_before.misses,
        probes: after.probes - stats_before.probes,
        probe_exhausted: after.probe_exhausted - stats_before.probe_exhausted,
        evictions: after.evictions - stats_before.evictions,
        invalidated: after.invalidated - stats_before.invalidated,
    };
    rep.counters = counter_delta(
        &counters_before,
        &counters(&rq_metrics::global().snapshot()),
    );
    rep.append_log_bytes = log_bytes(&st) - log_before;
    rep.spans = tr.spans;
    drop(st);
    if wl.persistent {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(rep)
}

/// The layer names a query's own time is attributed to.
const QUERY_LAYERS: [&str; 7] = [
    "parse",
    "preflight",
    "cache.key",
    "cache.lookup",
    "frontier.subsumed",
    "engine.eval",
    "cache.insert",
];

/// What the traced pass hands back to the report.
pub struct Traced {
    /// Per-layer metrics by name (the `serve.*` ones come from the
    /// end-to-end pass and are added by the caller).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Mean layer time of one replayed query, µs.
    pub query_layer_us: f64,
    /// Replayed answers that disagreed with the checker.
    pub wrong: u64,
    /// The largest fuel one full evaluation spent.
    pub max_fuel: u64,
    /// Spans of the traced and the decompose passes, by pass name.
    pub spans: Vec<(&'static str, Span)>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Nearest-rank percentile of `xs` (sorted here).
pub fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

fn spans_us<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans.iter().filter(move |s| s.name == name).map(Span::us)
}

fn count(counters: &BTreeMap<String, u64>, family: &str, label: Option<&str>) -> f64 {
    counters
        .iter()
        .filter(|(k, _)| match label {
            Some(l) => **k == format!("{family}{{{l}}}"),
            None => k.starts_with(&format!("{family}{{")),
        })
        .fold(0.0, |acc, (_, v)| acc + *v as f64)
}

/// Run the untraced, traced and decompose passes over `ops` (after the
/// workload's warm-up) and derive every per-layer metric from them.
pub fn run(
    wl: &Workload,
    s: &Serving,
    expected: &ExpectedMap,
    ops: &[Op],
    dir: &Path,
) -> Result<Traced, String> {
    let u1 = run_pass(wl, s, expected, ops, dir, Pass::Untraced)?;
    let t1 = run_pass(wl, s, expected, ops, dir, Pass::Traced)?;
    let u = run_pass(wl, s, expected, ops, dir, Pass::Untraced)?;
    let t = run_pass(wl, s, expected, ops, dir, Pass::Traced)?;
    let d = run_pass(wl, s, expected, ops, dir, Pass::Decompose)?;

    let queries = t.queries as f64;
    let per_query = |name: &str| ratio(spans_us(&t.spans, name).fold(0.0, |a, x| a + x), queries);
    let st = &t.stats;
    let lookups = (st.exact + st.equivalent + st.subsumed + st.misses) as f64;
    let probes = count(&t.counters, "rq_cache_probes_total", None);
    let bfs_us = mean(d.decomposed.iter().map(|x| x.0));
    let d_eval_us = mean(spans_us(&d.spans, "engine.eval"));
    let expanded: u64 = d.decomposed.iter().map(|x| x.3).sum();
    let layer_us: f64 = t
        .spans
        .iter()
        .filter(|s| s.name != "request")
        .map(Span::us)
        .fold(0.0, |a, x| a + x);
    let query_layer_us = ratio(
        t.spans
            .iter()
            .filter(|s| QUERY_LAYERS.contains(&s.name))
            .map(Span::us)
            .fold(0.0, |a, x| a + x),
        queries,
    );
    let appends: Vec<f64> = spans_us(&t.spans, "storage.append").collect();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("parse.us", per_query("parse"));
    m.insert("preflight.us", per_query("preflight"));
    m.insert("preflight.rewritten", t.rewritten as f64);
    m.insert("cache.key_us", per_query("cache.key"));
    m.insert("cache.lookup_us", per_query("cache.lookup"));
    m.insert(
        "cache.hit_frac",
        ratio((st.exact + st.equivalent + st.subsumed) as f64, lookups),
    );
    m.insert("cache.exact", st.exact as f64);
    m.insert("cache.subsumed", st.subsumed as f64);
    m.insert("cache.miss", st.misses as f64);
    m.insert("cache.evictions", st.evictions as f64);
    m.insert(
        "cache.invalidated_per_ingest",
        ratio(st.invalidated as f64, t.ingests as f64),
    );
    m.insert("ladder.probes_per_query", ratio(probes, queries));
    m.insert(
        "ladder.useful_frac",
        ratio(
            count(&t.counters, "rq_cache_probes_total", Some("contained")),
            probes,
        ),
    );
    for (name, stage) in [
        ("ladder.decided.empty_left", "empty_left"),
        ("ladder.decided.syntactic_eq", "syntactic_eq"),
        ("ladder.decided.canonical_key", "canonical_key"),
        ("ladder.decided.simple", "simple"),
        ("ladder.decided.full_check", "full_check"),
        ("ladder.decided.exhausted", "exhausted"),
    ] {
        m.insert(
            name,
            count(&t.counters, "rq_containment_ladder_total", Some(stage)),
        );
    }
    m.insert(
        "ladder.fuel_per_probe",
        ratio(
            t.counters
                .get("rq_cache_probe_fuel_spent_sum")
                .copied()
                .unwrap_or(0) as f64,
            t.counters
                .get("rq_cache_probe_fuel_spent_count")
                .copied()
                .unwrap_or(0) as f64,
        ),
    );
    m.insert("engine.eval_us", mean(spans_us(&t.spans, "engine.eval")));
    m.insert(
        "engine.parallel_eff",
        ratio(bfs_us, s.engine_threads as f64 * d_eval_us),
    );
    m.insert(
        "engine.apply_deltas_us",
        mean(spans_us(&t.spans, "engine.apply_deltas")),
    );
    m.insert("frontier.bfs_us", bfs_us);
    m.insert(
        "frontier.expansions_per_query",
        ratio(expanded as f64, d.decomposed.len() as f64),
    );
    m.insert(
        "frontier.ns_per_expansion",
        ratio(
            d.decomposed.iter().map(|x| x.0).sum::<f64>() * 1e3,
            expanded as f64,
        ),
    );
    m.insert("answer.pairs_per_query", ratio(t.pairs as f64, queries));
    m.insert(
        "answer.materialize_us",
        mean(d.decomposed.iter().map(|x| x.1 - x.0)),
    );
    m.insert(
        "governor.fuel_per_query",
        mean(d.decomposed.iter().map(|x| x.2 as f64)),
    );
    m.insert(
        "governor.exhaustions",
        count(&t.counters, "rq_governor_exhaustions_total", None),
    );
    m.insert(
        "storage.open_ms",
        median(
            [u1.open_ms, t1.open_ms, u.open_ms, t.open_ms, d.open_ms]
                .into_iter()
                .flatten()
                .collect(),
        ),
    );
    m.insert("storage.append_us", mean(appends.iter().copied()));
    m.insert("storage.append_p99_us", percentile(appends, 99.0));
    m.insert(
        "storage.log_bytes_per_delta",
        ratio(t.append_log_bytes as f64, t.ingests as f64),
    );
    m.insert("trace.coverage", ratio(layer_us, t.wall_us));
    m.insert(
        "trace.overhead_frac",
        ratio(t1.wall_us + t.wall_us, u1.wall_us + u.wall_us) - 1.0,
    );

    let max_fuel = d.decomposed.iter().map(|x| x.2).max().unwrap_or(0);
    let spans = t
        .spans
        .into_iter()
        .map(|s| ("traced", s))
        .chain(d.spans.into_iter().map(|s| ("decompose", s)))
        .collect();
    Ok(Traced {
        metrics: m,
        query_layer_us,
        wrong: u1.wrong + t1.wrong + u.wrong + t.wrong + d.wrong,
        max_fuel,
        spans,
    })
}
