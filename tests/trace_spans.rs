//! End-to-end trace assertions: serving a cache-subsumed query under an
//! installed `TraceContext` must yield a span tree showing the whole
//! request anatomy — preflight verdict, cache disposition, the probe
//! ladder stage that decided the subsumption, and the superset
//! re-evaluation's frontier work — each stage annotated with its fuel
//! and duration. This is the profile `rqtool explain` and the serve
//! `explain: true` option render; the rendering itself is covered here
//! too, plus the exemplar link from the engine latency histogram back to
//! the request's trace id.

use regular_queries::core::TwoRpq;
use regular_queries::engine::{Disposition, Engine, EngineConfig};
use regular_queries::graph::generate;
use regular_queries::metrics::span::{self, FinishedTrace, SpanRecord, TraceContext};
use regular_queries::metrics::{global, Value};

fn field<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
    s.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

fn span_named<'a>(t: &'a FinishedTrace, name: &str) -> &'a SpanRecord {
    t.spans.iter().find(|s| s.name == name).unwrap_or_else(|| {
        let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
        panic!("no span named {name}; got {names:?}")
    })
}

/// Every span named `name` whose parent is `parent`.
fn spans_under<'a>(t: &'a FinishedTrace, name: &str, parent: u64) -> Vec<&'a SpanRecord> {
    t.spans
        .iter()
        .filter(|s| s.name == name && s.parent == Some(parent))
        .collect()
}

#[test]
fn subsumed_query_traces_every_stage() {
    let db = generate::random_gnm(16, 40, &["p", "q"], 7);
    let mut al = db.alphabet().clone();
    let superset = TwoRpq::parse("p*", &mut al).unwrap();
    let subset = TwoRpq::parse("p p", &mut al).unwrap();
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    // Seed the cache with the superset's answer (a miss), untraced.
    assert_eq!(
        engine.run(&superset).unwrap().disposition,
        Disposition::Miss
    );

    // Serve the subsumed query under a trace.
    let ctx = TraceContext::start();
    let result = {
        let _g = span::install(&ctx, 0);
        engine.run(&subset).unwrap()
    };
    assert_eq!(result.disposition, Disposition::Subsumed);
    let trace = ctx.finish("ok", "p p");

    // The top-level engine span carries the disposition and answer size.
    let run = span_named(&trace, "engine.run");
    assert_eq!(run.parent, None);
    assert_eq!(field(run, "disposition"), Some("subsumed"));
    assert_eq!(
        field(run, "pairs"),
        Some(result.answer.len().to_string().as_str())
    );

    // Preflight ran under it and left the query alone.
    let preflight = span_named(&trace, "analyze.preflight");
    assert_eq!(field(preflight, "action"), Some("unchanged"));

    // The cache lookup decided "subsumed" via a contained probe…
    let lookup = span_named(&trace, "cache.lookup");
    assert_eq!(field(lookup, "disposition"), Some("subsumed"));
    let contained_probe = trace
        .spans
        .iter()
        .find(|s| s.name == "cache.probe" && field(s, "verdict") == Some("contained"))
        .expect("a probe proved p p ⊑ p*");
    assert_eq!(contained_probe.parent, Some(lookup.id));
    assert!(field(contained_probe, "fuel").is_some());

    // …whose deciding ladder rung (the polynomial simple rung — both
    // `p p` and `p*` are in the SCRPQ fragment, so the probe never
    // reaches the exact 2NFA stage) is a child span annotated with
    // verdict and explored state count.
    let simple = trace
        .spans
        .iter()
        .find(|s| {
            s.name == "ladder.simple"
                && s.parent == Some(contained_probe.id)
                && field(s, "verdict") == Some("contained")
        })
        .expect("the simple rung decided the probe");
    assert!(
        field(simple, "states")
            .and_then(|f| f.parse::<u64>().ok())
            .is_some(),
        "deciding rung records its explored states"
    );
    assert!(
        !trace.spans.iter().any(|s| s.name == "ladder.full_check"),
        "a simple-fragment probe never escalates to the exact checker"
    );

    // The superset re-evaluation shows up as eval → stripe → BFS spans
    // with fuel attributed to the frontier work. Stripes finish in any
    // order, so each BFS is matched to *some* stripe of this eval.
    let eval = span_named(&trace, "engine.eval");
    assert!(field(eval, "sources").is_some());
    let stripes = spans_under(&trace, "engine.stripe", eval.id);
    assert!(!stripes.is_empty(), "the eval ran its stripes");
    assert_eq!(
        stripes.len(),
        trace
            .spans
            .iter()
            .filter(|s| s.name == "engine.stripe")
            .count(),
        "every stripe is under the eval"
    );
    let bfs_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name == "frontier.bfs")
        .collect();
    assert!(
        !bfs_spans.is_empty(),
        "superset re-evaluation ran a frontier BFS"
    );
    for bfs in bfs_spans {
        assert!(
            stripes.iter().any(|s| bfs.parent == Some(s.id)),
            "frontier.bfs {} is not under one of the eval's stripes",
            bfs.id
        );
        for key in ["sources", "expanded", "frontier_peak", "fuel"] {
            assert!(field(bfs, key).is_some(), "frontier span missing {key}");
        }
    }

    // Every span is timed and the tree renders as a per-stage profile.
    let rendered = trace.render();
    for needle in [
        "engine.run",
        "analyze.preflight",
        "disposition=subsumed",
        "cache.probe",
        "ladder.simple",
        "frontier.bfs",
        "fuel by stage:",
        "µs",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }

    // The engine latency histogram links back to this trace id.
    let snap = global().snapshot();
    let Some(Value::Histogram(h)) = snap.get("rq_engine_query_latency_us", &[]) else {
        panic!("latency histogram not registered");
    };
    assert!(
        h.exemplars
            .iter()
            .flatten()
            .any(|(id, _)| *id == trace.trace_id),
        "no exemplar links the latency histogram to the traced request"
    );
}

/// An all-pairs evaluation over a large graph records one `frontier.bfs`
/// per stripe — not one per source — so the trace stays far below the
/// per-trace span cap and drops nothing.
#[test]
fn all_pairs_records_one_bfs_span_per_stripe() {
    let db = generate::random_gnm(1200, 2400, &["p", "q"], 19);
    let nodes = db.num_nodes();
    let mut al = db.alphabet().clone();
    let q = TwoRpq::parse("p q-", &mut al).unwrap();
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        },
    );
    let ctx = TraceContext::start();
    let result = {
        let _g = span::install(&ctx, 0);
        engine.run(&q).unwrap()
    };
    assert_eq!(result.disposition, Disposition::Miss);
    let trace = ctx.finish("ok", "p q-");
    assert_eq!(trace.dropped_spans, 0);

    let eval = span_named(&trace, "engine.eval");
    assert_eq!(field(eval, "sources"), Some(nodes.to_string().as_str()));
    assert_eq!(field(eval, "stripes"), Some("2"));
    let stripes = spans_under(&trace, "engine.stripe", eval.id);
    assert_eq!(stripes.len(), 2);
    let mut sources = 0;
    for stripe in &stripes {
        let bfs = spans_under(&trace, "frontier.bfs", stripe.id);
        assert_eq!(bfs.len(), 1, "one frontier.bfs per stripe");
        sources += field(bfs[0], "sources").unwrap().parse::<usize>().unwrap();
    }
    assert_eq!(
        trace
            .spans
            .iter()
            .filter(|s| s.name == "frontier.bfs")
            .count(),
        2
    );
    assert_eq!(sources, nodes, "the stripes' BFS spans cover every source");
}

#[test]
fn untraced_requests_record_no_spans() {
    let db = generate::random_gnm(8, 16, &["p"], 3);
    let mut al = db.alphabet().clone();
    let q = TwoRpq::parse("p+", &mut al).unwrap();
    let engine = Engine::new(db, EngineConfig::default());
    // No context installed: serving works identically, nothing to finish.
    assert!(engine.run(&q).is_ok());
    assert!(span::current_trace_id().is_none());
}
