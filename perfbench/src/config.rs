//! The pinned benchmark configuration, read from `config.json` (compiled
//! in, so a run cannot pick up a different file than the one committed).

use rq_analyze::Json;

const TEXT: &str = include_str!("../config.json");

pub struct Serving {
    /// The machine shape the configuration was pinned for.
    pub nproc: u64,
    pub engine_threads: usize,
    pub serve_workers: usize,
    pub queue_capacity: usize,
    pub request_fuel: u64,
    pub request_timeout_ms: u64,
    pub tenant_fuel_per_sec: u64,
    pub tenant_burst_fuel: u64,
    pub fuel_headroom: u64,
}

/// The disposition share a workload must produce to serve its purpose.
pub struct Split {
    /// `miss`, `probe` (subsumed or equivalent) or `hit` (any cache hit).
    pub disposition: String,
    pub min: f64,
    pub max: f64,
}

pub struct WorkloadConfig {
    pub clients: usize,
    pub split: Split,
    pub replay_ops: usize,
}

/// A metric as `config.json` lists it. `moves` and `on` name, for a
/// layer metric, the end-to-end metric and workload it should move.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub moves: String,
    pub on: String,
}

pub struct Config {
    pub serving: Serving,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    root: Json,
}

fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(n)) => *n,
        _ => panic!("config.json: missing number {key:?}"),
    }
}

fn text(j: &Json, key: &str) -> String {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn metrics(j: &Json, key: &str) -> Vec<MetricSpec> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("config.json: missing list {key:?}"))
        .iter()
        .map(|m| MetricSpec {
            name: text(m, "name"),
            unit: text(m, "unit"),
            moves: text(m, "moves"),
            on: text(m, "on"),
        })
        .collect()
}

impl Config {
    pub fn load() -> Config {
        let root = Json::parse(TEXT).expect("config.json is valid JSON");
        let s = root.get("serving").expect("config.json: serving");
        let serving = Serving {
            nproc: num(s, "nproc") as u64,
            engine_threads: num(s, "engine_threads") as usize,
            serve_workers: num(s, "serve_workers") as usize,
            queue_capacity: num(s, "queue_capacity") as usize,
            request_fuel: num(s, "request_fuel") as u64,
            request_timeout_ms: num(s, "request_timeout_ms") as u64,
            tenant_fuel_per_sec: num(s, "tenant_fuel_per_sec") as u64,
            tenant_burst_fuel: num(s, "tenant_burst_fuel") as u64,
            fuel_headroom: num(s, "fuel_headroom") as u64,
        };
        Config {
            serving,
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
            root,
        }
    }

    pub fn workload(&self, name: &str) -> WorkloadConfig {
        let w = self
            .root
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .unwrap_or_else(|| panic!("config.json: no workload {name:?}"));
        let split = w.get("split").expect("config.json: split");
        WorkloadConfig {
            clients: num(w, "clients") as usize,
            split: Split {
                disposition: text(split, "disposition"),
                min: num(split, "min"),
                max: match split.get("max") {
                    Some(Json::Num(n)) => *n,
                    _ => 1.0,
                },
            },
            replay_ops: num(w, "replay_ops") as usize,
        }
    }
}
