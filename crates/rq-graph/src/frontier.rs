//! Reusable frontier steps for product-automaton search.
//!
//! RPQ/2RPQ evaluation is BFS over the product of a database with the query
//! automaton (§3.1: `O(|V| · (|V| + |E|) · |Q|)` for all pairs). This module
//! factors the product BFS into a reusable, *governed* primitive so the same
//! frontier code backs the sequential evaluator (`rq-core`), the parallel
//! serving engine (`rq-engine`), and the cache-filtering membership
//! re-checks — all metered by one [`Governor`] protocol:
//!
//! * one **fuel** unit per product-edge expansion (deterministic and
//!   portable — the same search exhausts at the same point everywhere);
//! * the wall clock / cancellation flag polled on the masked fuel path
//!   (and every 64 sources of a multi-source run).
//!
//! Each per-source search costs the product states it touches: a
//! [`ProductBfs`] scratch is built once per (database, automaton) and
//! reset by walking its own queue, never by reallocating `|V| · |Q|`
//! flags.
//!
//! The ungoverned entry points in `rq-core` run these under
//! [`Governor::unlimited`], which never exhausts.

use crate::db::{GraphDb, NodeId};
use rq_automata::governor::{Exhaustion, Governor};
use rq_automata::Nfa;
use rq_metrics::span::{self, ActiveSpan};
use std::collections::BTreeSet;

/// A product state: a database node paired with an automaton state.
pub type ProductState = (NodeId, usize);

/// A multi-source run forces a wall-clock/cancellation poll once per this
/// many sources, so searches too small to reach the masked fuel poll
/// still notice a deadline or a cancelled peer.
const WALL_POLL_SOURCES: usize = 64;

/// Reusable scratch for product BFS over `db × nfa`, one source at a time.
///
/// Built once per (database, automaton) pair: the visited array
/// (`|V| · |Q|` flags), the FIFO and the answer buffer are allocated once
/// and reused by every search. The FIFO is a `Vec` read through a head
/// index, so after a search it still lists every product state that
/// search marked; the reset walks it and clears exactly those flags — on
/// completion, early exit and exhaustion alike — so a search costs the
/// product states it touches, not `|V| · |Q|`.
///
/// The automaton must be ε-free (as produced by `TwoRpq::new`); ε-moves
/// would need closure handling the frontier deliberately omits.
pub struct ProductBfs<'a> {
    db: &'a GraphDb,
    nfa: &'a Nfa,
    /// `|V| · |Q|` visited flags indexed `node · |Q| + state`, all clear
    /// between searches, followed by `|Q|` flags marking the accepting
    /// automaton states. One allocation holds both: a second small one
    /// per scratch measurably slowed single-source calls, which build a
    /// scratch each.
    seen: Vec<bool>,
    /// Where the accepting-state flags start in `seen` (`|V| · |Q|`).
    finals: usize,
    /// Product states in discovery order: the BFS queue while searching,
    /// the touched list when resetting.
    queue: Vec<ProductState>,
    /// The last search's answers, sorted (the buffer is reused).
    hits: Vec<NodeId>,
    /// Searches, expansions and peak frontier since the last
    /// [`ProductBfs::measured`] flush.
    searches: u64,
    expanded: u64,
    peak: usize,
}

impl<'a> ProductBfs<'a> {
    /// Scratch for searches over `db × nfa`.
    pub fn new(db: &'a GraphDb, nfa: &'a Nfa) -> Self {
        let finals = db.num_nodes() * nfa.num_states();
        let mut seen = vec![false; finals + nfa.num_states()];
        for q in nfa.final_states() {
            seen[finals + q] = true;
        }
        ProductBfs {
            db,
            nfa,
            seen,
            finals,
            queue: Vec::new(),
            hits: Vec::new(),
            searches: 0,
            expanded: 0,
            peak: 0,
        }
    }

    /// Append the nodes reachable from `source` by a semipath conforming
    /// to the automaton to `out`, in ascending order.
    pub fn reach_into(
        &mut self,
        source: NodeId,
        gov: &Governor,
        out: &mut Vec<NodeId>,
    ) -> Result<(), Exhaustion> {
        out.extend_from_slice(self.answers(source, gov)?);
        Ok(())
    }

    /// Whether `target` is reachable from `source`, stopping at the first
    /// witnessing product state.
    pub fn reaches(
        &mut self,
        source: NodeId,
        target: NodeId,
        gov: &Governor,
    ) -> Result<bool, Exhaustion> {
        self.search(source, Some(target), gov, &mut Vec::new())
    }

    /// Append the answers of every source in `sources` to `out` as
    /// `(source, target)` pairs — in ascending order when `sources`
    /// ascend. The whole run records one `frontier.bfs` span and flushes
    /// the frontier counters once.
    pub fn pairs_into(
        &mut self,
        sources: impl IntoIterator<Item = NodeId>,
        gov: &Governor,
        out: &mut Vec<(NodeId, NodeId)>,
    ) -> Result<(), Exhaustion> {
        self.measured("frontier.bfs", gov, |bfs| {
            for (i, x) in sources.into_iter().enumerate() {
                if i % WALL_POLL_SOURCES == 0 {
                    gov.check_wall()?;
                }
                out.extend(bfs.answers(x, gov)?.iter().map(|&y| (x, y)));
            }
            Ok(())
        })
        .0
    }

    /// One search from `source`, returning its answers sorted and
    /// deduplicated.
    fn answers(&mut self, source: NodeId, gov: &Governor) -> Result<&[NodeId], Exhaustion> {
        let mut hits = std::mem::take(&mut self.hits);
        hits.clear();
        let result = self.search(source, None, gov, &mut hits);
        hits.sort_unstable();
        hits.dedup();
        self.hits = hits;
        result?;
        Ok(&self.hits)
    }

    /// Run one BFS from `source`, then clear the flags it set. With a
    /// `target` the search stops once `target` is popped in an accepting
    /// state and returns whether that happened; without one it adds every
    /// node popped in an accepting state to `hits` (in discovery order,
    /// repeats included).
    fn search(
        &mut self,
        source: NodeId,
        target: Option<NodeId>,
        gov: &Governor,
        hits: &mut impl Extend<NodeId>,
    ) -> Result<bool, Exhaustion> {
        let (db, nfa) = (self.db, self.nfa);
        let states = nfa.num_states();
        for q in nfa.initial_states() {
            self.push(source.index() * states + q, (source, q));
        }
        let mut peak = self.queue.len();
        let mut head = 0;
        let result = 'bfs: {
            while let Some(&(node, state)) = self.queue.get(head) {
                head += 1;
                // One fuel unit per product edge, in FIFO order: the same
                // search exhausts at the same point everywhere.
                for &(l, t) in nfa.transitions_from(state) {
                    for &n2 in db.step(node, l) {
                        if let Err(e) = gov.tick() {
                            break 'bfs Err(e);
                        }
                        self.push(n2.index() * states + t, (n2, t));
                    }
                }
                peak = peak.max(self.queue.len() - head);
                if self.seen[self.finals + state] {
                    match target {
                        Some(t) if t == node => break 'bfs Ok(true),
                        Some(_) => {}
                        None => hits.extend([node]),
                    }
                }
            }
            Ok(false)
        };
        // Every popped state was fully expanded, except the one whose
        // expansion ran out of budget.
        self.expanded += (head - usize::from(result.is_err())) as u64;
        self.peak = self.peak.max(peak);
        self.searches += 1;
        for &(node, state) in &self.queue {
            self.seen[node.index() * states + state] = false;
        }
        self.queue.clear();
        result
    }

    #[inline]
    fn push(&mut self, key: usize, ps: ProductState) {
        if !self.seen[key] {
            self.seen[key] = true;
            self.queue.push(ps);
        }
    }

    /// Run `body` under a span named `name`, then flush the searches and
    /// expansions it made into the frontier counters (once, never per
    /// expansion, so the atomics stay off the BFS hot path; partial work
    /// is reported on exhaustion too) and annotate the span with them.
    /// The span is handed back open so callers can add fields.
    fn measured<T>(
        &mut self,
        name: &'static str,
        gov: &Governor,
        body: impl FnOnce(&mut Self) -> Result<T, Exhaustion>,
    ) -> (Result<T, Exhaustion>, ActiveSpan) {
        let mut span = span::start(name);
        // Skip the annotation work (like the fuel snapshot) on the
        // untraced hot path.
        let fuel_before = if span.active() { gov.fuel_spent() } else { 0 };
        let result = body(self);
        metrics::record_searches(self.searches, self.expanded);
        if span.active() {
            span.record("sources", self.searches);
            span.record("expanded", self.expanded);
            span.record("frontier_peak", self.peak);
            span.record("fuel", gov.fuel_spent() - fuel_before);
            if result.is_err() {
                span.record("exhausted", "true");
            }
        }
        (self.searches, self.expanded, self.peak) = (0, 0, 0);
        (result, span)
    }
}

/// Frontier-level counters: searches run and product states expanded.
/// Accumulated locally and flushed once per measured run.
mod metrics {
    use rq_metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) fn record_searches(searches: u64, expanded: u64) {
        static CELLS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
        let (total, expansions) = CELLS.get_or_init(|| {
            (
                global().counter(
                    "rq_frontier_searches_total",
                    "Product-automaton BFS searches run",
                ),
                global().counter(
                    "rq_frontier_expansions_total",
                    "Product states expanded across all BFS searches",
                ),
            )
        });
        total.add(searches);
        expansions.add(expanded);
    }
}

/// Nodes reachable from `source` by a semipath conforming to `nfa`
/// (governed single-source evaluation).
pub fn reachable_governed(
    db: &GraphDb,
    nfa: &Nfa,
    source: NodeId,
    gov: &Governor,
) -> Result<BTreeSet<NodeId>, Exhaustion> {
    let mut reached = BTreeSet::new();
    ProductBfs::new(db, nfa)
        .measured("frontier.bfs", gov, |bfs| {
            bfs.search(source, None, gov, &mut reached)
        })
        .0?;
    Ok(reached)
}

/// Whether `(source, target)` is answered — a governed membership re-check
/// for one pair, with early exit on the first witnessing product state.
pub fn pair_reachable_governed(
    db: &GraphDb,
    nfa: &Nfa,
    source: NodeId,
    target: NodeId,
    gov: &Governor,
) -> Result<bool, Exhaustion> {
    let (result, mut span) = ProductBfs::new(db, nfa).measured("frontier.pair_check", gov, |bfs| {
        bfs.reaches(source, target, gov)
    });
    if let Ok(hit) = &result {
        span.record("verdict", if *hit { "reached" } else { "unreached" });
    }
    result
}

/// The full all-pairs answer (governed, sequential): one product BFS per
/// source node, all on one scratch. The parallel engine runs the same
/// per-source searches partitioned across its worker pool.
pub fn all_pairs_governed(
    db: &GraphDb,
    nfa: &Nfa,
    gov: &Governor,
) -> Result<BTreeSet<(NodeId, NodeId)>, Exhaustion> {
    let mut pairs = Vec::new();
    ProductBfs::new(db, nfa).pairs_into(db.nodes(), gov, &mut pairs)?;
    // Sources ascend, so the pairs are already sorted: the set is
    // bulk-built in one pass.
    Ok(pairs.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::regex::parse;
    use rq_automata::{Alphabet, Limits, Resource};

    fn chain3() -> (GraphDb, Vec<NodeId>) {
        let mut db = GraphDb::new();
        let ns: Vec<NodeId> = (0..4).map(|i| db.node(&format!("v{i}"))).collect();
        let r = db.label("r");
        for w in ns.windows(2) {
            db.add_edge(w[0], r, w[1]);
        }
        (db, ns)
    }

    fn nfa(s: &str, al: &mut Alphabet) -> Nfa {
        Nfa::from_regex(&parse(s, al).unwrap())
            .eliminate_epsilon()
            .trim()
    }

    #[test]
    fn reachable_matches_expectations() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let gov = Governor::unlimited();
        let reached = reachable_governed(&db, &n, ns[0], &gov).unwrap();
        assert_eq!(reached, ns[1..].iter().copied().collect());
        assert!(reachable_governed(&db, &n, ns[3], &gov).unwrap().is_empty());
    }

    #[test]
    fn pair_membership_early_exits() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r r", &mut al);
        let gov = Governor::unlimited();
        assert!(pair_reachable_governed(&db, &n, ns[0], ns[2], &gov).unwrap());
        assert!(!pair_reachable_governed(&db, &n, ns[0], ns[3], &gov).unwrap());
    }

    #[test]
    fn all_pairs_counts_chain_suffixes() {
        let (db, _) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let pairs = all_pairs_governed(&db, &n, &Governor::unlimited()).unwrap();
        assert_eq!(pairs.len(), 3 + 2 + 1);
    }

    #[test]
    fn fuel_budget_trips_the_search() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r*", &mut al);
        let gov = Limits::unlimited().with_fuel(1).governor();
        let e = reachable_governed(&db, &n, ns[0], &gov).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
    }

    #[test]
    fn bfs_records_an_annotated_span() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r+", &mut al);
        let ctx = span::TraceContext::start();
        {
            let _g = span::install(&ctx, 0);
            let gov = Governor::unlimited();
            reachable_governed(&db, &n, ns[0], &gov).unwrap();
        }
        let t = ctx.finish("ok", "");
        let bfs_span = t
            .spans
            .iter()
            .find(|s| s.name == "frontier.bfs")
            .expect("BFS opened a span");
        let field = |k: &str| {
            bfs_span
                .fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
        };
        // One source, 3 reachable nodes on the chain: expansions and fuel
        // both > 0.
        assert_eq!(field("sources").as_deref(), Some("1"));
        assert!(field("expanded").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("fuel").unwrap().parse::<u64>().unwrap() > 0);
        assert!(field("frontier_peak").is_some());
        assert_eq!(field("exhausted"), None, "search completed");
    }

    /// A fresh single-source answer, as a sorted `Vec`.
    fn fresh(db: &GraphDb, n: &Nfa, x: NodeId) -> Vec<NodeId> {
        let gov = Governor::unlimited();
        reachable_governed(db, n, x, &gov)
            .unwrap()
            .into_iter()
            .collect()
    }

    fn scratch_is_clear(bfs: &ProductBfs<'_>) -> bool {
        bfs.queue.is_empty() && bfs.seen[..bfs.finals].iter().all(|&f| !f)
    }

    #[test]
    fn scratch_reset_after_an_early_exit_pair_check() {
        let db = crate::generate::random_gnm(40, 120, &["r", "s"], 5);
        let mut al = db.alphabet().clone();
        let n = nfa("(r|s-)* r s?", &mut al);
        let gov = Governor::unlimited();
        let mut bfs = ProductBfs::new(&db, &n);
        let mut early_exits = 0;
        for x in db.nodes() {
            for y in fresh(&db, &n, x) {
                // Every answered pair is reached, stopping mid-search.
                assert!(bfs.reaches(x, y, &gov).unwrap());
                early_exits += 1;
                assert!(scratch_is_clear(&bfs));
                let z = NodeId((x.0 + y.0) % db.num_nodes() as u32);
                let mut got = Vec::new();
                bfs.reach_into(z, &gov, &mut got).unwrap();
                assert_eq!(got, fresh(&db, &n, z), "source {z:?} after {x:?}→{y:?}");
            }
        }
        assert!(early_exits > 0, "the query answers some pair");
    }

    #[test]
    fn scratch_reset_after_a_fuel_exhausted_search() {
        let db = crate::generate::random_gnm(40, 120, &["r", "s"], 9);
        let mut al = db.alphabet().clone();
        let n = nfa("(r|s)* r-", &mut al);
        let mut bfs = ProductBfs::new(&db, &n);
        for x in db.nodes() {
            for fuel in [1, 7, 40] {
                let starved = Limits::unlimited().with_fuel(fuel).governor();
                let mut partial = Vec::new();
                if let Err(e) = bfs.reach_into(x, &starved, &mut partial) {
                    assert_eq!(e.resource, Resource::Fuel);
                    assert!(partial.is_empty(), "an exhausted search appends nothing");
                }
                assert!(scratch_is_clear(&bfs));
                let mut got = Vec::new();
                bfs.reach_into(x, &Governor::unlimited(), &mut got).unwrap();
                assert_eq!(got, fresh(&db, &n, x), "source {x:?} after fuel {fuel}");
            }
        }
    }

    #[test]
    fn shared_scratch_spends_the_same_fuel_as_fresh_searches() {
        let db = crate::generate::random_gnm(30, 90, &["r", "s"], 13);
        let mut al = db.alphabet().clone();
        let n = nfa("r (r|s)* s-", &mut al);
        let fresh_gov = Governor::unlimited();
        let mut per_source = BTreeSet::new();
        for x in db.nodes() {
            for y in reachable_governed(&db, &n, x, &fresh_gov).unwrap() {
                per_source.insert((x, y));
            }
        }
        let shared_gov = Governor::unlimited();
        let all = all_pairs_governed(&db, &n, &shared_gov).unwrap();
        assert_eq!(all, per_source);
        assert_eq!(shared_gov.fuel_spent(), fresh_gov.fuel_spent());
    }

    #[test]
    fn backward_letters_follow_in_edges() {
        let (db, ns) = chain3();
        let mut al = db.alphabet().clone();
        let n = nfa("r-", &mut al);
        let gov = Governor::unlimited();
        let reached = reachable_governed(&db, &n, ns[2], &gov).unwrap();
        assert_eq!(reached, [ns[1]].into_iter().collect());
    }
}
