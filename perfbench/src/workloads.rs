//! Seeded workload inputs: the graph, the warm-up prefix, and each
//! client's request stream. The same seed gives the same inputs; the
//! program under test only ever sees the generated texts and edges.
//!
//! Why each workload exists (which layers it stresses and which it
//! bypasses) is recorded in `config.json` beside this package.

use rq_automata::random::{random_regex, small_alphabet, RegexConfig, SplitMix64};
use rq_graph::GraphDb;
use std::collections::BTreeSet;

/// One labelled edge `(src, label, dst)` over node indices.
pub type Edge = (u32, String, u32);

/// One request a client sends.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /query` with `text`, answered against graph state `state`.
    Query { text: String, state: usize },
    /// `POST /ingest` with a one-line delta body.
    Ingest { body: String },
}

/// Everything a run needs, derived from the workload name and the seed.
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    /// Edge list of every graph state a read can see; `states[0]` is the
    /// graph the server starts from.
    pub states: Vec<Vec<Edge>>,
    /// Nodes are named `n<i>` (so `/ingest` deltas can address them) and
    /// the graph is served from a persistent store.
    pub persistent: bool,
    /// Sent by one client before timing starts; no text here recurs in
    /// the measured streams.
    pub warmup: Vec<Op>,
    /// One cyclic stream per closed-loop client.
    pub streams: Vec<Vec<Op>>,
}

impl Workload {
    /// The graph of state 0 as the program builds it.
    pub fn base_db(&self) -> GraphDb {
        let mut db = GraphDb::new();
        let ids: Vec<_> = (0..self.nodes)
            .map(|i| {
                if self.persistent {
                    db.node(&format!("n{i}"))
                } else {
                    db.add_node()
                }
            })
            .collect();
        for (s, l, d) in &self.states[0] {
            let l = db.label(l);
            db.add_edge(ids[*s as usize], l, ids[*d as usize]);
        }
        db
    }

    /// The first `count` measured requests in the order a sequential
    /// replay sends them: the clients' streams interleaved round-robin,
    /// each from its own start offset.
    pub fn interleaved(&self, count: usize) -> Vec<Op> {
        let k = self.streams.len();
        (0..count)
            .map(|i| {
                let s = &self.streams[i % k];
                s[(i / k) % s.len()].clone()
            })
            .collect()
    }
}

pub const NAMES: [&str; 3] = ["eval_miss", "probe_heavy", "ingest_mix"];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "eval_miss" => Some(eval_miss(seed)),
        "probe_heavy" => Some(probe_heavy(seed)),
        "ingest_mix" => Some(ingest_mix(seed)),
        _ => None,
    }
}

fn edges_of(db: &GraphDb) -> Vec<Edge> {
    let al = db.alphabet();
    let mut out = Vec::new();
    for label in al.labels() {
        let name = al.name(label).to_string();
        for &(s, d) in db.edges(label) {
            out.push((s.index() as u32, name.clone(), d.index() as u32));
        }
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn queries(texts: impl IntoIterator<Item = String>) -> Vec<Op> {
    texts
        .into_iter()
        .map(|text| Op::Query { text, state: 0 })
        .collect()
}

/// Chain 2RPQs `end mid^k end` of the E14 cold family. Chains of different
/// lengths are pairwise incomparable, and the two middle alternations
/// `(a|b)` / `(b|a-)` are incomparable pointwise, so no chain answers
/// another by subsumption.
fn chains(k: usize) -> Vec<String> {
    let ends = ["a", "b", "a-", "b-"];
    let mids = ["(a|b)", "(b|a-)"];
    let mut out = Vec::new();
    for m in 0..(1usize << k).min(8) {
        for prefix in ends {
            for suffix in ends {
                let mut q = String::from(prefix);
                for pos in 0..k {
                    q.push(' ');
                    q.push_str(mids[(m >> pos) & 1]);
                }
                q.push(' ');
                q.push_str(suffix);
                out.push(q);
            }
        }
    }
    out
}

/// Cache misses that pay full evaluation. The 512 cold chains (lengths
/// 5–8) outnumber the 64-entry cache, and one of four alternating
/// closures follows every 16 chains: they reach nearly every node, so
/// answer materialization weighs in. Each closure's first letter fixes
/// the direction of its first step, so no closure folds onto a chain or
/// onto another closure, and each recurs only after the cache has
/// evicted it.
fn eval_miss(seed: u64) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0xE7A1_0000);
    let db = rq_graph::generate::random_gnm(200, 600, &["a", "b"], rng.next_u64());
    let closures = ["(a b-)+", "(b a-)+", "(a- b)+", "(b- a)+"];
    let mut cold: Vec<String> = (3..=6).flat_map(chains).collect();
    shuffle(&mut cold, &mut rng);
    let mut stream = Vec::new();
    for (i, q) in cold.into_iter().enumerate() {
        stream.push(q);
        if i % 16 == 15 {
            stream.push(closures[(i / 16) % closures.len()].to_string());
        }
    }
    // Warm-up: shorter chains (length 4) outside the measured family.
    let mut warm = chains(2);
    shuffle(&mut warm, &mut rng);
    warm.truncate(24);
    Workload {
        name: "eval_miss",
        nodes: db.num_nodes(),
        states: vec![edges_of(&db)],
        persistent: false,
        warmup: queries(warm),
        streams: vec![queries(stream)],
    }
}

/// Probe-dominated lookups: on an 8-node graph evaluation costs almost
/// nothing, while random 2RPQs with stars and inverses keep the
/// canonical-key and containment-probe path busy. Two clients start half
/// a stream apart, so they contend on the engine's shared lock without
/// replaying each other's cache fills.
fn probe_heavy(seed: u64) -> Workload {
    let mut rng = SplitMix64::new(seed ^ 0x9B0B_0000);
    let db = rq_graph::generate::random_gnm(8, 24, &["a", "b"], rng.next_u64());
    let al = small_alphabet(2);
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves: 10,
        ..RegexConfig::default()
    };
    let mut texts: Vec<String> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut pool = SplitMix64::new(0x9B0B);
    // 4 000 measured texts, then 200 warm-up texts none of them repeat.
    while texts.len() < 4200 {
        let t = random_regex(&mut pool, &cfg).display(&al).to_string();
        if seen.insert(t.clone()) {
            texts.push(t);
        }
    }
    let warm = texts.split_off(4000);
    // The seed picks where in the fixed pool the first client starts.
    let start = rng.below(texts.len());
    texts.rotate_left(start);
    let stream = queries(texts);
    let half = stream.len() / 2;
    let mut second = stream[half..].to_vec();
    second.extend_from_slice(&stream[..half]);
    Workload {
        name: "probe_heavy",
        nodes: db.num_nodes(),
        states: vec![edges_of(&db)],
        persistent: false,
        warmup: queries(warm),
        streams: vec![stream, second],
    }
}

/// Writes beside reads on a persistent store. One client runs the fixed
/// cycle read, read, ingest. Reads cycle eight forward chains: the three
/// `b`-only ones stay cached across every ingest, the five that use `a`
/// or `c` are evicted by the next ingest on their label and re-evaluated.
/// Ingests toggle one absent `a` edge and one absent `c` edge in turn, so
/// the graph runs through four states and every read's expected answer
/// is known exactly. The cycle is sequential on purpose: a concurrent
/// ingest discards any answer whose evaluation overlapped it, which would
/// make the dispositions timing-dependent.
fn ingest_mix(seed: u64) -> Workload {
    const N: usize = 10_000;
    let mut rng = SplitMix64::new(seed ^ 0x1A6E_0000);
    let db = rq_graph::generate::preferential_attachment(N, 3, &["a", "b", "c"], rng.next_u64());
    let base = edges_of(&db);
    let present: BTreeSet<(u32, &str, u32)> =
        base.iter().map(|(s, l, d)| (*s, l.as_str(), *d)).collect();
    let mut absent_edge = |label: &'static str| loop {
        let (s, d) = (rng.below(N) as u32, rng.below(N) as u32);
        if s != d && !present.contains(&(s, label, d)) {
            return (s, label.to_string(), d);
        }
    };
    let ea = absent_edge("a");
    let ec = absent_edge("c");
    let ew = absent_edge("c");
    let with = |extra: &[&Edge]| -> Vec<Edge> {
        let mut v = base.clone();
        v.extend(extra.iter().map(|&e| e.clone()));
        v
    };
    // State i is the graph after i ingests of the measured cycle (mod 4);
    // state 4 holds the warm-up edge.
    let states = vec![
        base.clone(),
        with(&[&ea]),
        with(&[&ea, &ec]),
        with(&[&ec]),
        with(&[&ew]),
    ];
    let delta = |verb: &str, (s, l, d): &Edge| Op::Ingest {
        body: format!("{verb} n{s} {l} n{d}\n"),
    };
    let read = |q: &str, state: usize| Op::Query {
        text: q.to_string(),
        state,
    };
    let reads = ["b", "a", "b b", "a b", "c", "b b b", "b c", "c a"];
    let toggles = [
        delta("add", &ea),
        delta("add", &ec),
        delta("remove", &ea),
        delta("remove", &ec),
    ];
    let mut cycle = Vec::new();
    for (i, toggle) in toggles.into_iter().enumerate() {
        cycle.push(read(reads[2 * i], i));
        cycle.push(read(reads[2 * i + 1], i));
        cycle.push(toggle);
    }
    let warmup = vec![
        read("a a", 0),
        read("c c", 0),
        delta("add", &ew),
        read("b a", 4),
        delta("remove", &ew),
        read("a c", 0),
    ];
    Workload {
        name: "ingest_mix",
        nodes: N,
        states,
        persistent: true,
        warmup,
        streams: vec![cycle],
    }
}
