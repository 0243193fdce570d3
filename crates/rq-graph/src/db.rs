//! The edge-labeled graph database.

use rq_automata::{Alphabet, LabelId, Letter};
use std::collections::HashMap;

/// Identifier of an object (node) in a [`GraphDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index into per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One label's binary relation `r(D)`: its pairs in insertion order plus
/// forward and backward adjacency over them. The adjacency tables are
/// empty until the label gets its first edge and then cover every node
/// that existed at its latest insertion; a node past their end has no
/// `r`-edges.
#[derive(Debug, Clone, Default)]
struct Relation {
    pairs: Vec<(NodeId, NodeId)>,
    /// `fwd[x]`: the `r`-successors of `x`, in insertion order.
    fwd: Vec<Vec<NodeId>>,
    /// `bwd[y]`: the `r`-predecessors of `y`, in insertion order.
    bwd: Vec<Vec<NodeId>>,
}

impl Relation {
    fn successors(&self, node: NodeId) -> &[NodeId] {
        self.fwd.get(node.index()).map_or(&[], Vec::as_slice)
    }

    fn predecessors(&self, node: NodeId) -> &[NodeId] {
        self.bwd.get(node.index()).map_or(&[], Vec::as_slice)
    }

    /// Whether `(src, dst)` is in the relation, scanning the shorter of
    /// the two adjacency lists that would hold it.
    fn contains(&self, src: NodeId, dst: NodeId) -> bool {
        let succ = self.successors(src);
        let pred = self.predecessors(dst);
        if succ.len() <= pred.len() {
            succ.contains(&dst)
        } else {
            pred.contains(&src)
        }
    }

    /// Add `(src, dst)` unless present, in a database of `nodes` nodes.
    fn insert(&mut self, nodes: usize, src: NodeId, dst: NodeId) -> bool {
        if self.contains(src, dst) {
            return false;
        }
        if self.fwd.len() < nodes {
            self.fwd.resize(nodes, Vec::new());
            self.bwd.resize(nodes, Vec::new());
        }
        self.pairs.push((src, dst));
        self.fwd[src.index()].push(dst);
        self.bwd[dst.index()].push(src);
        true
    }

    /// Remove `(src, dst)` if present, keeping every list's order.
    fn remove(&mut self, src: NodeId, dst: NodeId) -> bool {
        if !self.contains(src, dst) {
            return false;
        }
        remove_first(&mut self.pairs, &(src, dst));
        remove_first(&mut self.fwd[src.index()], &dst);
        remove_first(&mut self.bwd[dst.index()], &src);
        true
    }
}

fn remove_first<T: PartialEq>(list: &mut Vec<T>, item: &T) {
    if let Some(i) = list.iter().position(|x| x == item) {
        list.remove(i);
    }
}

/// A finite directed graph with edges labeled from a finite alphabet Σ.
///
/// "Each node represents an object and an edge from object x to object y
/// labeled by r, denoted r(x, y), represents the fact that relation r holds
/// between x and y" (§3.1). The store keeps one binary relation `r(D)` per
/// label, with forward and backward adjacency, so two-way queries can
/// traverse `r⁻` edges at the same cost as `r` and a label can be read
/// off as a relation.
///
/// "The edge alphabet of a graph database is simply part of the data and
/// can be changed simply by updating the database" — labels (and nodes) are
/// interned on first use.
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    alphabet: Alphabet,
    node_names: Vec<Option<String>>,
    node_index: HashMap<String, NodeId>,
    /// One relation per label, indexed by `LabelId`; as long as the
    /// alphabet.
    relations: Vec<Relation>,
}

impl GraphDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty database over a pre-built alphabet.
    pub fn with_alphabet(alphabet: Alphabet) -> Self {
        let mut db = Self::new();
        db.relations = vec![Relation::default(); alphabet.len()];
        db.alphabet = alphabet;
        db
    }

    /// Intern a named node (idempotent).
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(Some(name.to_owned()));
        self.node_index.insert(name.to_owned(), id);
        id
    }

    /// Add an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(None);
        id
    }

    /// Intern an edge label (idempotent).
    pub fn label(&mut self, name: &str) -> LabelId {
        let id = self.alphabet.intern(name);
        self.relations
            .resize(self.alphabet.len(), Relation::default());
        id
    }

    /// Add the edge `label(src, dst)`. Duplicate edges are ignored — a
    /// label denotes a *relation*, i.e., a set of pairs. Returns whether
    /// the edge was new.
    pub fn add_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        let nodes = self.num_nodes();
        assert!(src.index() < nodes && dst.index() < nodes);
        assert!(label.index() < self.relations.len(), "label not interned");
        self.relations[label.index()].insert(nodes, src, dst)
    }

    /// Remove the edge `label(src, dst)`. Returns whether the edge was
    /// present — removing an absent edge is a no-op, so a delta log that
    /// re-removes an edge (or removes one that never committed) replays
    /// idempotently.
    pub fn remove_edge(&mut self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.relations
            .get_mut(label.index())
            .is_some_and(|rel| rel.remove(src, dst))
    }

    /// Build a database directly from its serialized columns: the label
    /// alphabet, the node-name table, and one `(src, dst)` pair list per
    /// label (indexed by `LabelId`). This is the bulk-load path the
    /// snapshot loader uses: every view is built in one pass over the
    /// pairs.
    ///
    /// Duplicate pairs within a label are collapsed (a label denotes a
    /// relation). Panics if a pair references a node out of range, if two
    /// nodes share a name, or if `edges_by_label` is longer than the
    /// alphabet.
    pub fn from_columns(
        alphabet: Alphabet,
        node_names: Vec<Option<String>>,
        edges_by_label: Vec<Vec<(NodeId, NodeId)>>,
    ) -> GraphDb {
        assert!(
            edges_by_label.len() <= alphabet.len(),
            "more edge lists than labels"
        );
        let n = node_names.len();
        let mut node_index = HashMap::with_capacity(n);
        for (i, name) in node_names.iter().enumerate() {
            if let Some(name) = name {
                let fresh = node_index.insert(name.clone(), NodeId(i as u32)).is_none();
                assert!(fresh, "duplicate node name {name:?}");
            }
        }
        let mut relations = vec![Relation::default(); alphabet.len()];
        for (rel, pairs) in relations.iter_mut().zip(edges_by_label) {
            rel.pairs.reserve(pairs.len());
            for (s, d) in pairs {
                assert!(
                    s.index() < n && d.index() < n,
                    "edge references node out of range"
                );
                rel.insert(n, s, d);
            }
        }
        GraphDb {
            alphabet,
            node_names,
            node_index,
            relations,
        }
    }

    /// Extend this database's alphabet to match `superset`, which must
    /// agree with the current alphabet on every already-interned label (in
    /// both name and id order). The serving engine calls this before
    /// applying deltas so that labels interned by parsed queries and
    /// labels introduced by ingested edges share one id space.
    ///
    /// Panics if the alphabets disagree on a common prefix — that would
    /// mean edges are already stored under the wrong ids.
    pub fn align_alphabet(&mut self, superset: &Alphabet) {
        assert!(
            superset.len() >= self.alphabet.len(),
            "align_alphabet: superset has fewer labels than the database"
        );
        for id in self.alphabet.labels() {
            assert_eq!(
                self.alphabet.name(id),
                superset.name(id),
                "align_alphabet: label id {} names disagree",
                id.index()
            );
        }
        if superset.len() > self.alphabet.len() {
            self.alphabet = superset.clone();
            self.relations
                .resize(self.alphabet.len(), Relation::default());
        }
    }

    /// Whether the edge `label(src, dst)` is present.
    pub fn has_edge(&self, src: NodeId, label: LabelId, dst: NodeId) -> bool {
        self.relations
            .get(label.index())
            .is_some_and(|rel| rel.contains(src, dst))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges (distinct labeled pairs).
    pub fn num_edges(&self) -> usize {
        self.relations.iter().map(|rel| rel.pairs.len()).sum()
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// The relation `r(D)` for label `r`: all `(x, y)` with an `r`-edge,
    /// in insertion order.
    pub fn edges(&self, label: LabelId) -> &[(NodeId, NodeId)] {
        self.relations
            .get(label.index())
            .map_or(&[], |rel| rel.pairs.as_slice())
    }

    /// Nodes reachable from `node` by one step of `letter`, in insertion
    /// order: along a forward `r`-edge for `r`, along a *backward* `r`-edge
    /// for `r⁻`.
    pub fn step(&self, node: NodeId, letter: Letter) -> &[NodeId] {
        match self.relations.get(letter.label.index()) {
            Some(rel) if letter.inverse => rel.predecessors(node),
            Some(rel) => rel.successors(node),
            None => &[],
        }
    }

    /// The database's alphabet (schema).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The name of `node`, if it was interned with one.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.node_names[node.index()].as_deref()
    }

    /// A display name: the interned name or `#<id>`.
    pub fn display_node(&self, node: NodeId) -> String {
        match self.node_name(node) {
            Some(n) => n.to_owned(),
            None => format!("#{}", node.0),
        }
    }

    /// Look up a named node.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// Total degree (in + out) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.relations
            .iter()
            .map(|rel| rel.successors(node).len() + rel.predecessors(node).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (GraphDb, NodeId, NodeId, NodeId, LabelId, LabelId) {
        let mut db = GraphDb::new();
        let a = db.node("a");
        let b = db.node("b");
        let c = db.node("c");
        let r = db.label("r");
        let s = db.label("s");
        db.add_edge(a, r, b);
        db.add_edge(b, r, c);
        db.add_edge(a, s, c);
        (db, a, b, c, r, s)
    }

    #[test]
    fn nodes_and_labels_intern() {
        let (mut db, a, ..) = tiny();
        assert_eq!(db.node("a"), a);
        assert_eq!(db.num_nodes(), 3);
        assert_eq!(db.alphabet().len(), 2);
        assert!(db.find_node("b").is_some());
        assert_eq!(db.find_node("zz"), None);
    }

    #[test]
    fn duplicate_edges_are_a_set() {
        let (mut db, a, b, _, r, _) = tiny();
        assert!(!db.add_edge(a, r, b));
        assert_eq!(db.num_edges(), 3);
        assert_eq!(db.edges(r).len(), 2);
    }

    #[test]
    fn step_follows_both_directions() {
        let (db, a, b, c, r, s) = tiny();
        assert_eq!(db.step(a, Letter::forward(r)), &[b]);
        assert_eq!(db.step(c, Letter::backward(r)), &[b]);
        assert_eq!(db.step(c, Letter::backward(s)), &[a]);
        assert!(db.step(a, Letter::backward(r)).is_empty());
    }

    #[test]
    fn relations_are_materialized_per_label() {
        let (db, a, b, c, r, s) = tiny();
        assert_eq!(db.edges(r), &[(a, b), (b, c)]);
        assert_eq!(db.edges(s), &[(a, c)]);
    }

    #[test]
    fn anonymous_nodes() {
        let mut db = GraphDb::new();
        let x = db.add_node();
        let y = db.add_node();
        let r = db.label("r");
        db.add_edge(x, r, y);
        assert_eq!(db.node_name(x), None);
        assert_eq!(db.display_node(x), "#0");
        assert_eq!(db.num_edges(), 1);
    }

    #[test]
    fn remove_edge_updates_all_views() {
        let (mut db, a, b, c, r, _) = tiny();
        assert!(db.remove_edge(a, r, b));
        assert!(!db.has_edge(a, r, b));
        assert_eq!(db.num_edges(), 2);
        assert_eq!(db.edges(r), &[(b, c)]);
        assert!(db.step(a, Letter::forward(r)).is_empty());
        assert!(db.step(b, Letter::backward(r)).is_empty());
        // Removing again is an idempotent no-op.
        assert!(!db.remove_edge(a, r, b));
        assert_eq!(db.num_edges(), 2);
        // Re-adding after removal works.
        assert!(db.add_edge(a, r, b));
        assert!(db.has_edge(a, r, b));
    }

    #[test]
    fn from_columns_matches_incremental_construction() {
        let (db, a, b, c, r, s) = tiny();
        let bulk = GraphDb::from_columns(
            db.alphabet().clone(),
            vec![
                Some("a".to_owned()),
                Some("b".to_owned()),
                Some("c".to_owned()),
            ],
            vec![vec![(a, b), (b, c), (a, b)], vec![(a, c)]],
        );
        assert_eq!(bulk.num_nodes(), 3);
        assert_eq!(bulk.num_edges(), 3, "duplicate pair collapses");
        assert_eq!(bulk.edges(r), db.edges(r));
        assert_eq!(bulk.edges(s), db.edges(s));
        assert_eq!(bulk.find_node("b"), Some(b));
        assert!(bulk.has_edge(a, s, c));
        assert_eq!(bulk.step(a, Letter::forward(r)), &[b]);
    }

    #[test]
    fn align_alphabet_extends_in_id_order() {
        let (mut db, a, b, _, r, _) = tiny();
        let mut superset = db.alphabet().clone();
        let t = superset.intern("t");
        db.align_alphabet(&superset);
        assert_eq!(db.alphabet().len(), 3);
        assert_eq!(db.alphabet().name(r), "r");
        assert_eq!(db.alphabet().name(t), "t");
        // The new label is usable immediately.
        db.add_edge(a, t, b);
        assert!(db.has_edge(a, t, b));
        // Aligning to an equal alphabet is a no-op.
        let same = db.alphabet().clone();
        db.align_alphabet(&same);
        assert_eq!(db.alphabet().len(), 3);
    }

    #[test]
    #[should_panic(expected = "names disagree")]
    fn align_alphabet_rejects_conflicting_ids() {
        let (mut db, ..) = tiny();
        let mut other = Alphabet::new();
        other.intern("s");
        other.intern("r");
        db.align_alphabet(&other);
    }

    #[test]
    fn degree_counts_both_sides() {
        let (db, a, b, ..) = tiny();
        assert_eq!(db.degree(a), 2);
        assert_eq!(db.degree(b), 2);
    }
}
