//! End-to-end serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_miss|probe_heavy|ingest_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts an in-process `rq_serve::Server` over an `rq_engine::Engine`
//! with the configuration pinned in `config.json`, drives the seeded
//! workload through `POST /query` and `POST /ingest` from closed-loop
//! clients, and checks every answer with an independent checker
//! (`checker.rs`). With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it also replays the request sequence in process under
//! benchmark-side spans and reports the per-layer metrics. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. A workload that no longer produces the
//! disposition split it exists for fails the run (exit code 3).

mod checker;
mod config;
mod replay;
mod serve;
mod workloads;

use checker::{Expected, Graph};
use config::{Config, MetricSpec, Split};
use serve::{ExpectedMap, HttpRun};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Op, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Working space beside the benchmark binary (inside the build directory),
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path, tag: &str) -> WorkDir {
        let dir = root.join(format!("perfbench-work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn expected_answers(wl: &Workload) -> Result<ExpectedMap, String> {
    let graphs: Vec<Graph> = wl.states.iter().map(|e| Graph::new(wl.nodes, e)).collect();
    let mut map = ExpectedMap::new();
    for op in wl.warmup.iter().chain(wl.streams.iter().flatten()) {
        if let Op::Query { text, state } = op {
            if let Entry::Vacant(slot) = map.entry((text.clone(), *state)) {
                let rel = graphs[*state]
                    .eval(text)
                    .map_err(|e| format!("checker cannot parse {text:?}: {e}"))?;
                slot.insert(Expected::of(&rel));
            }
        }
    }
    Ok(map)
}

fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The share of answered queries with the workload's purpose-defining
/// disposition.
fn split_share(run: &HttpRun, split: &Split) -> f64 {
    let answered: Vec<&str> = run
        .samples
        .iter()
        .filter_map(|s| s.disposition.as_deref())
        .collect();
    let hit = |d: &&&str| match split.disposition.as_str() {
        "miss" => **d == "miss",
        "probe" => matches!(**d, "subsumed" | "equivalent"),
        _ => matches!(**d, "exact" | "equivalent" | "subsumed"),
    };
    if answered.is_empty() {
        0.0
    } else {
        answered.iter().filter(hit).count() as f64 / answered.len() as f64
    }
}

/// Answered `/query` per second, as the median over the run of the rate
/// in blocks of consecutive answers, each block about one second long. A
/// burst of interference from outside the program slows a few blocks and
/// leaves the median alone, where it would drag a whole-run mean down.
fn windowed_qps(run: &HttpRun) -> f64 {
    let mut done: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| s.query && s.ok)
        .map(|s| s.done_s)
        .collect();
    done.sort_by(f64::total_cmp);
    let blocks = (run.wall_s.floor() as usize).clamp(1, done.len().max(1));
    let k = done.len() / blocks;
    if k == 0 {
        return 0.0;
    }
    let rates: Vec<f64> = (0..blocks)
        .map(|i| {
            let from = if i == 0 { 0.0 } else { done[i * k - 1] };
            k as f64 / (done[(i + 1) * k - 1] - from)
        })
        .collect();
    replay::percentile(rates, 50.0)
}

fn end_to_end(run: &HttpRun) -> BTreeMap<&'static str, f64> {
    let lat: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| s.query)
        .map(|s| s.us / 1e3)
        .collect();
    let failed = run.samples.iter().filter(|s| !s.ok).count();
    let mut m = BTreeMap::new();
    m.insert("query_p50_ms", replay::percentile(lat, 50.0));
    m.insert("query_qps", windowed_qps(run));
    m.insert(
        "ok_frac",
        1.0 - failed as f64 / run.samples.len().max(1) as f64,
    );
    m.insert("rss_peak_mb", rss_peak_mb());
    let mut setup = run.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    m.insert("setup_s", setup[setup.len() / 2]);
    m
}

fn serve_layers(run: &HttpRun, query_layer_us: f64) -> BTreeMap<&'static str, f64> {
    let queries: Vec<&serve::Sample> = run.samples.iter().filter(|s| s.query).collect();
    let exact: Vec<f64> = queries
        .iter()
        .filter(|s| s.disposition.as_deref() == Some("exact"))
        .map(|s| s.us)
        .collect();
    let mean_us = queries.iter().map(|s| s.us).sum::<f64>() / queries.len().max(1) as f64;
    let query_ms: Vec<f64> = queries.iter().map(|s| s.us / 1e3).collect();
    let ingest_ms: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| !s.query)
        .map(|s| s.us / 1e3)
        .collect();
    let mut m = BTreeMap::new();
    m.insert("serve.hit_rtt_us", replay::percentile(exact, 50.0));
    m.insert("serve.unattributed_us", mean_us - query_layer_us);
    m.insert("serve.query_p99_ms", replay::percentile(query_ms, 99.0));
    m.insert("serve.shed", run.shed as f64);
    m.insert("serve.exhausted", run.exhausted as f64);
    m.insert(
        "serve.ingest_p50_ms",
        replay::percentile(ingest_ms.clone(), 50.0),
    );
    m.insert("serve.ingest_p99_ms", replay::percentile(ingest_ms, 99.0));
    m
}

fn print_table(title: &str, specs: &[MetricSpec], values: &BTreeMap<&'static str, f64>) {
    println!("{title}");
    for spec in specs {
        let v = values.get(spec.name.as_str()).copied().unwrap_or(f64::NAN);
        if spec.moves.is_empty() {
            println!("  {:<32} {:>14.4} {:<6}", spec.name, v, spec.unit);
        } else {
            println!(
                "  {:<32} {:>14.4} {:<6} moves {} on {}",
                spec.name, v, spec.unit, spec.moves, spec.on
            );
        }
    }
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    specs: &[MetricSpec],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for spec in specs {
        let v = values
            .get(spec.name.as_str())
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", spec.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", spec.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

fn write_spans(path: &Path, spans: &[(&'static str, replay::Span)]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (pass, s) in spans {
        let parent = if s.name == "request" {
            "null".to_string()
        } else {
            format!("\"{pass}/{}/request\"", s.req)
        };
        writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let cfg = Config::load();
    let wl = workloads::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            workloads::NAMES
        )
    })?;
    let wcfg = cfg.workload(wl.name);
    assert_eq!(wcfg.clients, wl.streams.len(), "config.json client count");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} (pinned for {}) engine_threads={} \
         serve_workers={} clients={} request_fuel={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        cfg.serving.nproc,
        cfg.serving.engine_threads,
        cfg.serving.serve_workers,
        wcfg.clients,
        cfg.serving.request_fuel
    );
    let expected = expected_answers(&wl)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();

    let store = WorkDir::new(&out_dir, "serve");
    if wl.persistent {
        rq_storage::StorageHandle::create(&store.0, &wl.base_db(), Default::default())
            .map_err(|e| e.to_string())?;
    }
    let http = serve::run(
        &wl,
        &cfg.serving,
        &expected,
        args.seconds,
        wl.persistent.then_some(store.0.as_path()),
    )?;
    drop(store);
    for note in &http.notes {
        eprintln!("perfbench: failure: {note}");
    }
    let e2e = end_to_end(&http);
    let attempted = http.samples.len();
    let failed = http.samples.iter().filter(|s| !s.ok).count();
    print_table(
        &format!("end to end ({attempted} requests, untraced)"),
        &cfg.end_to_end,
        &e2e,
    );

    let share = split_share(&http, &wcfg.split);
    println!(
        "disposition split: {} share {:.4} (required {}..={})",
        wcfg.split.disposition, share, wcfg.split.min, wcfg.split.max
    );
    // Wrong answers carry no disposition; such a run is reported as
    // incorrect below rather than as drift.
    if http.wrong == 0 && !(wcfg.split.min..=wcfg.split.max).contains(&share) {
        eprintln!(
            "perfbench: WORKLOAD DRIFT: {} must produce a {} share in {}..={}, measured {share:.4}; \
             it no longer measures what it exists for",
            wl.name, wcfg.split.disposition, wcfg.split.min, wcfg.split.max
        );
        return Ok(ExitCode::from(3));
    }
    let mut correct = http.wrong == 0;
    let line = if args.trace {
        let work = WorkDir::new(&out_dir, "replay");
        let ops = wl.interleaved(wcfg.replay_ops);
        let traced = replay::run(&wl, &cfg.serving, &expected, &ops, &work.0)?;
        correct &= traced.wrong == 0;
        let needed = traced.max_fuel.saturating_mul(cfg.serving.fuel_headroom);
        let pinned = cfg
            .serving
            .request_fuel
            .min(cfg.serving.tenant_burst_fuel)
            .min(cfg.serving.tenant_fuel_per_sec);
        if needed > pinned {
            eprintln!(
                "perfbench: SERVING CONFIG DRIFT: the largest evaluation spent {} fuel; request_fuel \
                 and the tenant quota must be at least {}x that",
                traced.max_fuel, cfg.serving.fuel_headroom
            );
            return Ok(ExitCode::from(3));
        }
        let mut layers = traced.metrics;
        layers.extend(serve_layers(&http, traced.query_layer_us));
        print_table(
            &format!("per layer (traced replay of {} requests)", ops.len()),
            &cfg.per_layer,
            &layers,
        );
        let trace_file = out_dir
            .join("perfbench-trace")
            .join(format!("{}-seed{}.jsonl", wl.name, args.seed));
        write_spans(&trace_file, &traced.spans).map_err(|e| format!("writing spans: {e}"))?;
        eprintln!("perfbench: spans written to {}", trace_file.display());
        json_line(correct, attempted, failed, &cfg.per_layer, &layers)?
    } else {
        json_line(correct, attempted, failed, &cfg.end_to_end, &e2e)?
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(1)
        }
    }
}
