//! Model test for [`GraphDb`]: seeded random sequences of `add_edge`,
//! `remove_edge`, `apply_delta` and `align_alphabet` run against a plain
//! `BTreeSet<(NodeId, LabelId, NodeId)>`. After every operation each view
//! of the database (`edges`, `step` both ways, `has_edge`, `num_edges`,
//! `degree`) must agree with the model, and `from_columns` must rebuild
//! an equal database from the columns. The sequence count scales with
//! `PROPTEST_CASES`; a failure reproduces from its printed case number.

use regular_queries::automata::random::SplitMix64;
use regular_queries::automata::{Alphabet, LabelId, Letter};
use regular_queries::graph::{Delta, GraphDb, NodeId};
use std::collections::BTreeSet;

type Model = BTreeSet<(NodeId, LabelId, NodeId)>;

/// Per-property sample count: `PROPTEST_CASES` or 32.
fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const LABELS: [&str; 4] = ["a", "b", "c", "d"];

/// Check every view of `db` against `model`. `order` holds, per label,
/// the model's pairs in the order they were inserted: `edges` and `step`
/// must keep it, including after removals.
fn check(db: &GraphDb, model: &Model, order: &[Vec<(NodeId, NodeId)>], ctx: &str) {
    assert_eq!(db.num_edges(), model.len(), "{ctx}: num_edges");
    for l in db.alphabet().labels() {
        let pairs = order.get(l.index()).map_or(&[][..], Vec::as_slice);
        assert_eq!(db.edges(l), pairs, "{ctx}: edges({l:?})");
        for x in db.nodes() {
            let succ: Vec<NodeId> = pairs.iter().filter(|p| p.0 == x).map(|p| p.1).collect();
            let pred: Vec<NodeId> = pairs.iter().filter(|p| p.1 == x).map(|p| p.0).collect();
            assert_eq!(
                db.step(x, Letter::forward(l)),
                succ,
                "{ctx}: step {x:?} {l:?}"
            );
            assert_eq!(
                db.step(x, Letter::backward(l)),
                pred,
                "{ctx}: step {x:?} {l:?}-"
            );
            for y in db.nodes() {
                assert_eq!(
                    db.has_edge(x, l, y),
                    model.contains(&(x, l, y)),
                    "{ctx}: has_edge({x:?}, {l:?}, {y:?})"
                );
            }
        }
    }
    for x in db.nodes() {
        let deg =
            model.iter().filter(|e| e.0 == x).count() + model.iter().filter(|e| e.2 == x).count();
        assert_eq!(db.degree(x), deg, "{ctx}: degree({x:?})");
    }

    let names = db
        .nodes()
        .map(|n| db.node_name(n).map(str::to_owned))
        .collect();
    let columns = db
        .alphabet()
        .labels()
        .map(|l| db.edges(l).to_vec())
        .collect();
    let rebuilt = GraphDb::from_columns(db.alphabet().clone(), names, columns);
    assert_eq!(rebuilt.num_nodes(), db.num_nodes(), "{ctx}: rebuilt nodes");
    assert_eq!(rebuilt.alphabet(), db.alphabet(), "{ctx}: rebuilt alphabet");
    assert_eq!(rebuilt.num_edges(), db.num_edges(), "{ctx}: rebuilt edges");
    for x in db.nodes() {
        assert_eq!(rebuilt.node_name(x), db.node_name(x), "{ctx}: rebuilt name");
        if let Some(name) = db.node_name(x) {
            assert_eq!(rebuilt.find_node(name), Some(x), "{ctx}: rebuilt find_node");
        }
        assert_eq!(rebuilt.degree(x), db.degree(x), "{ctx}: rebuilt degree");
        for l in db.alphabet().sigma_pm() {
            assert_eq!(rebuilt.step(x, l), db.step(x, l), "{ctx}: rebuilt step");
        }
    }
    for l in db.alphabet().labels() {
        assert_eq!(rebuilt.edges(l), db.edges(l), "{ctx}: rebuilt edges({l:?})");
    }
}

fn insert(model: &mut Model, order: &mut Vec<Vec<(NodeId, NodeId)>>, e: (NodeId, LabelId, NodeId)) {
    if model.insert(e) {
        if order.len() <= e.1.index() {
            order.resize(e.1.index() + 1, Vec::new());
        }
        order[e.1.index()].push((e.0, e.2));
    }
}

fn remove(model: &mut Model, order: &mut [Vec<(NodeId, NodeId)>], e: (NodeId, LabelId, NodeId)) {
    if model.remove(&e) {
        order[e.1.index()].retain(|&p| p != (e.0, e.2));
    }
}

#[test]
fn graphdb_agrees_with_a_set_model() {
    for case in 0..cases() {
        let mut rng = SplitMix64::new(0x6D0D_E100 ^ case);
        let mut db = GraphDb::new();
        let mut model = Model::new();
        let mut order: Vec<Vec<(NodeId, NodeId)>> = Vec::new();
        // Start with a couple of anonymous nodes and one label; the rest
        // arrive through deltas and alignment.
        db.add_node();
        db.add_node();
        db.label(LABELS[0]);
        for step in 0..40 {
            let ctx = format!("case {case} step {step}");
            let n = db.num_nodes();
            let labels = db.alphabet().len();
            match rng.below(10) {
                0..=3 => {
                    let (s, l, d) = (
                        NodeId(rng.below(n) as u32),
                        LabelId(rng.below(labels) as u32),
                        NodeId(rng.below(n) as u32),
                    );
                    let new = !model.contains(&(s, l, d));
                    assert_eq!(db.add_edge(s, l, d), new, "{ctx}: add_edge");
                    insert(&mut model, &mut order, (s, l, d));
                }
                4..=5 => {
                    // Bias removals towards present edges.
                    let e = if !model.is_empty() && rng.chance(0.8) {
                        *model.iter().nth(rng.below(model.len())).unwrap()
                    } else {
                        (
                            NodeId(rng.below(n) as u32),
                            LabelId(rng.below(labels + 1) as u32),
                            NodeId(rng.below(n) as u32),
                        )
                    };
                    let present = model.contains(&e);
                    assert_eq!(db.remove_edge(e.0, e.1, e.2), present, "{ctx}: remove_edge");
                    remove(&mut model, &mut order, e);
                }
                6..=8 => {
                    // Named nodes n0..n5 and labels a..d, interned on use.
                    let src = format!("n{}", rng.below(6));
                    let dst = format!("n{}", rng.below(6));
                    let label = *rng.pick(&LABELS);
                    let delta = if rng.chance(0.6) {
                        Delta::add(&src, label, &dst)
                    } else {
                        Delta::remove(&src, label, &dst)
                    };
                    let before = (
                        db.find_node(&src),
                        db.alphabet().get(label),
                        db.find_node(&dst),
                    );
                    let changed = db.apply_delta(&delta);
                    match &delta {
                        Delta::AddEdge { .. } => {
                            let e = (
                                db.find_node(&src).unwrap(),
                                db.alphabet().get(label).unwrap(),
                                db.find_node(&dst).unwrap(),
                            );
                            assert_eq!(changed, !model.contains(&e), "{ctx}: {delta}");
                            insert(&mut model, &mut order, e);
                        }
                        Delta::RemoveEdge { .. } => {
                            let present = match before {
                                (Some(s), Some(l), Some(d)) => {
                                    let e = (s, l, d);
                                    let present = model.contains(&e);
                                    remove(&mut model, &mut order, e);
                                    present
                                }
                                _ => false,
                            };
                            assert_eq!(changed, present, "{ctx}: {delta}");
                        }
                    }
                }
                _ => {
                    let mut superset: Alphabet = db.alphabet().clone();
                    superset.intern(&format!("q{}", rng.below(3)));
                    db.align_alphabet(&superset);
                    assert_eq!(db.alphabet(), &superset, "{ctx}: align_alphabet");
                }
            }
            check(&db, &model, &order, &ctx);
        }
    }
}
