//! Differential tests: the parallel, semantically cached `rq-engine` must
//! answer exactly like the sequential `rq-core` evaluator — on cold
//! caches, on exact/equivalent hits, and on subsumption hits answered by
//! filtering a cached superset — whichever automaton the engine evaluates
//! (the cache key's minimal DFA or the query's NFA) and at any thread
//! count. The seeded query count scales with `PROPTEST_CASES`.

use regular_queries::automata::random::{random_regex, RegexConfig, SplitMix64};
use regular_queries::core::canonical::canonical_key_governed;
use regular_queries::core::TwoRpq;
use regular_queries::engine::{Disposition, Engine, EngineConfig};
use regular_queries::graph::generate;
use regular_queries::prelude::*;

/// Seeded random queries per case: `PROPTEST_CASES` or 16.
fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

fn random_queries(seed: u64, count: usize) -> Vec<TwoRpq> {
    let mut rng = SplitMix64::new(seed);
    let cfg = RegexConfig {
        num_labels: 2,
        inverse_prob: 0.3,
        leaves: 5,
        ..RegexConfig::default()
    };
    (0..count)
        .map(|_| TwoRpq::new(random_regex(&mut rng, &cfg)))
        .collect()
}

#[test]
fn cold_and_warm_answers_match_sequential() {
    for seed in [3, 17, 91] {
        let db = generate::random_gnm(24, 72, &["a", "b"], seed);
        let engine = Engine::new(
            db.clone(),
            EngineConfig {
                threads: 3,
                ..EngineConfig::default()
            },
        );
        for q in &random_queries(seed ^ 0xD1FF, 8) {
            let expect = q.evaluate(&db);
            // Cold (or incidentally warmed by an earlier query) ...
            let first = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(*first.answer, expect, "seed {seed}");
            // ... and guaranteed warm: the second run must hit.
            let second = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(second.disposition, Disposition::Exact, "seed {seed}");
            assert_eq!(*second.answer, expect, "seed {seed}");
        }
    }
}

#[test]
fn subsumption_hits_match_sequential() {
    for seed in [5, 29] {
        let db = generate::random_gnm(20, 60, &["a", "b"], seed);
        let mut al = db.alphabet().clone();
        // Σ±* subsumes every 2RPQ over {a, b}, so after seeding it every
        // nonempty query is answerable by filtering the cached superset.
        let top = TwoRpq::parse("(a|b|a-|b-)*", &mut al).unwrap();
        let engine = Engine::new(
            db.clone(),
            EngineConfig {
                threads: 2,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            engine.run(&top).expect("top query").disposition,
            Disposition::Miss
        );
        let mut subsumed_hits = 0;
        for q in &random_queries(seed.wrapping_mul(977), 8) {
            let expect = q.evaluate(&db);
            let got = engine.run(q).expect("unlimited budgets never trip");
            assert_eq!(*got.answer, expect, "seed {seed}");
            if got.disposition == Disposition::Subsumed {
                subsumed_hits += 1;
            }
        }
        assert!(
            subsumed_hits > 0,
            "the Σ±* superset was never exploited (seed {seed})"
        );
    }
}

#[test]
fn batch_answers_match_sequential() {
    let db = generate::random_gnm(22, 66, &["a", "b"], 11);
    let engine = Engine::new(
        db.clone(),
        EngineConfig {
            threads: 3,
            ..EngineConfig::default()
        },
    );
    // Duplicates included: every item must still carry a correct answer.
    let mut queries = random_queries(1234, 6);
    queries.push(queries[0].clone());
    queries.push(queries[2].clone());
    let report = engine.run_batch(&queries);
    assert_eq!(report.items.len(), queries.len());
    for item in &report.items {
        let expect = queries[item.index].evaluate(&db);
        let answer = item.outcome.as_ref().expect("unlimited budgets");
        assert_eq!(**answer, expect, "batch item {}", item.index);
    }
    assert!(
        report.stats.misses < queries.len() as u64,
        "dedup/caching must absorb the duplicates: {}",
        report.stats
    );
}

#[test]
fn engine_honors_the_deadline() {
    let db = generate::random_gnm(400, 1200, &["a", "b"], 77);
    let engine = Engine::new(
        db,
        EngineConfig {
            threads: 2,
            limits: Limits::unlimited().with_deadline(std::time::Duration::ZERO),
            ..EngineConfig::default()
        },
    );
    let mut al = engine.alphabet();
    let q = TwoRpq::parse("(a|b)*", &mut al).unwrap();
    match engine.run(&q) {
        Err(EngineError::Exhausted(e)) => assert_eq!(e.resource, Resource::Deadline),
        other => panic!("expected a deadline trip, got {other:?}"),
    }
}

/// Fixed queries covering both automaton choices: inverse letters,
/// nullable languages, and languages whose minimal DFA is larger than the
/// query's NFA (so the engine must keep the NFA).
const FIXED: [&str; 8] = [
    "(a|b)* a (a|b) (a|b)",
    "(a|b)* a (a|b) (a|b) (a|b)",
    "(a|b-)* a- (a|b) (a-|b)",
    "a (a|b) (a|b) (a|b)",
    "a b- | a- b",
    "a*",
    "(a b-)* | b?",
    "a? (b- a)* b-?",
];

fn fixed_and_random(al: &mut Alphabet, seed: u64) -> Vec<TwoRpq> {
    let mut queries: Vec<TwoRpq> = FIXED
        .iter()
        .map(|t| TwoRpq::parse(t, al).unwrap())
        .collect();
    queries.extend(random_queries(seed, cases()));
    queries
}

#[test]
fn the_fixed_queries_cover_both_automata_and_nullability() {
    let mut al = Alphabet::from_names(["a", "b"]);
    let gov = Governor::unlimited();
    let queries = fixed_and_random(&mut al, 0);
    let states = |q: &TwoRpq| {
        let (_, dfa) = canonical_key_governed(q, &al, &gov).unwrap();
        (dfa.num_states(), q.nfa().num_states())
    };
    assert!(queries.iter().any(|q| {
        let (dfa, nfa) = states(q);
        dfa > nfa
    }));
    assert!(queries.iter().any(|q| {
        let (dfa, nfa) = states(q);
        dfa < nfa
    }));
    assert!(queries.iter().any(TwoRpq::nullable));
    assert!(queries.iter().any(|q| !q.is_forward_only()));
}

#[test]
fn miss_answers_match_sequential_at_every_thread_count() {
    for seed in [7u64, 41] {
        let db = generate::random_gnm(18, 45, &["a", "b"], seed);
        let mut al = db.alphabet().clone();
        let queries = fixed_and_random(&mut al, seed ^ 0xA11);
        for threads in [1, 2, 4] {
            let engine = Engine::new(
                db.clone(),
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            );
            for (i, q) in queries.iter().enumerate() {
                engine.clear_cache();
                let got = engine.run(q).expect("unlimited budgets never trip");
                assert!(
                    matches!(got.disposition, Disposition::Miss | Disposition::Empty),
                    "a cold cache evaluates: {:?}",
                    got.disposition
                );
                assert_eq!(
                    *got.answer,
                    q.evaluate(&db),
                    "seed {seed}, threads {threads}, query {i}"
                );
            }
        }
    }
}

#[test]
fn subsumed_answers_match_sequential_at_every_thread_count() {
    for seed in [13u64, 57] {
        let db = generate::random_gnm(18, 45, &["a", "b"], seed);
        let mut al = db.alphabet().clone();
        let top = TwoRpq::parse("(a|b|a-|b-)*", &mut al).unwrap();
        let queries = fixed_and_random(&mut al, seed ^ 0x5B5);
        for threads in [1, 2, 4] {
            let engine = Engine::new(
                db.clone(),
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            );
            let mut subsumed = 0;
            for (i, q) in queries.iter().enumerate() {
                // Only the Σ±* superset is cached when `q` is looked up.
                engine.clear_cache();
                engine.run(&top).expect("top query");
                let got = engine.run(q).expect("unlimited budgets never trip");
                if got.disposition == Disposition::Subsumed {
                    subsumed += 1;
                }
                assert_eq!(
                    *got.answer,
                    q.evaluate(&db),
                    "seed {seed}, threads {threads}, query {i}"
                );
            }
            assert!(
                subsumed >= FIXED.len() - 1,
                "the superset answered only {subsumed} queries (seed {seed}, threads {threads})"
            );
        }
    }
}
