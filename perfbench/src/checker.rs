//! The independent answer checker.
//!
//! Evaluates a query text bottom-up as a binary relation over a plain
//! edge list: letter, inverse letter, concatenation (composition), union,
//! `*`, `+`, `?`, `ε` and `∅`. It has its own parser and touches neither
//! the rq-graph product BFS nor the rq-core evaluators, so a change to
//! those is judged by code that did not change with it.

use std::collections::BTreeMap;

/// A binary relation over nodes `0..n`: one sorted, duplicate-free row of
/// successors per node.
pub type Rel = Vec<Vec<u32>>;

/// How many leading pairs a `/query` response inlines (`sample`).
pub const SAMPLE_PAIRS: usize = 100;

/// A labelled edge list with per-label forward and backward adjacency.
pub struct Graph {
    n: usize,
    forward: BTreeMap<String, Rel>,
    backward: BTreeMap<String, Rel>,
}

impl Graph {
    /// Build from `(src, label, dst)` triples over nodes `0..n`.
    pub fn new(n: usize, edges: &[(u32, String, u32)]) -> Graph {
        let mut forward: BTreeMap<String, Rel> = BTreeMap::new();
        let mut backward: BTreeMap<String, Rel> = BTreeMap::new();
        for (s, l, d) in edges {
            forward
                .entry(l.clone())
                .or_insert_with(|| vec![Vec::new(); n])[*s as usize]
                .push(*d);
            backward
                .entry(l.clone())
                .or_insert_with(|| vec![Vec::new(); n])[*d as usize]
                .push(*s);
        }
        for rel in forward.values_mut().chain(backward.values_mut()) {
            for row in rel.iter_mut() {
                row.sort_unstable();
                row.dedup();
            }
        }
        Graph {
            n,
            forward,
            backward,
        }
    }

    /// Evaluate `text` to its answer relation.
    pub fn eval(&self, text: &str) -> Result<Rel, String> {
        let ast = Parser::new(text).parse()?;
        Ok(self.rel(&ast))
    }

    fn rel(&self, e: &Ast) -> Rel {
        match e {
            Ast::Empty => vec![Vec::new(); self.n],
            Ast::Epsilon => identity(self.n),
            Ast::Letter(name, inverse) => {
                let side = if *inverse {
                    &self.backward
                } else {
                    &self.forward
                };
                side.get(name)
                    .cloned()
                    .unwrap_or_else(|| vec![Vec::new(); self.n])
            }
            Ast::Concat(parts) => {
                let mut acc = self.rel(&parts[0]);
                for p in &parts[1..] {
                    acc = compose(&acc, &self.rel(p));
                }
                acc
            }
            Ast::Union(parts) => {
                let mut acc = self.rel(&parts[0]);
                for p in &parts[1..] {
                    acc = union(&acc, &self.rel(p));
                }
                acc
            }
            Ast::Star(inner) => closure(&self.rel(inner), true),
            Ast::Plus(inner) => closure(&self.rel(inner), false),
            Ast::Optional(inner) => union(&self.rel(inner), &identity(self.n)),
        }
    }
}

/// The pair count and the first [`SAMPLE_PAIRS`] pairs in `(x, y)` order —
/// exactly what a `/query` response carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub pairs: u64,
    pub sample: Vec<(u32, u32)>,
}

impl Expected {
    pub fn of(rel: &Rel) -> Expected {
        let pairs = rel.iter().map(|r| r.len() as u64).sum();
        let sample = rel
            .iter()
            .enumerate()
            .flat_map(|(x, row)| row.iter().map(move |&y| (x as u32, y)))
            .take(SAMPLE_PAIRS)
            .collect();
        Expected { pairs, sample }
    }
}

fn identity(n: usize) -> Rel {
    (0..n as u32).map(|x| vec![x]).collect()
}

fn compose(a: &Rel, b: &Rel) -> Rel {
    let mut mark = vec![false; a.len()];
    a.iter()
        .map(|row| {
            let mut out = Vec::new();
            for &y in row {
                for &z in &b[y as usize] {
                    if !mark[z as usize] {
                        mark[z as usize] = true;
                        out.push(z);
                    }
                }
            }
            for &z in &out {
                mark[z as usize] = false;
            }
            out.sort_unstable();
            out
        })
        .collect()
}

fn union(a: &Rel, b: &Rel) -> Rel {
    a.iter()
        .zip(b)
        .map(|(r, s)| {
            let mut out: Vec<u32> = r.iter().chain(s).copied().collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect()
}

/// Transitive closure of `r`, reflexive when `reflexive` (`*`) and not
/// otherwise (`+`): a plain graph search per source.
fn closure(r: &Rel, reflexive: bool) -> Rel {
    let n = r.len();
    let mut seen = vec![false; n];
    (0..n)
        .map(|x| {
            let mut out: Vec<u32> = Vec::new();
            let mut stack: Vec<u32> = Vec::new();
            if reflexive {
                seen[x] = true;
                out.push(x as u32);
            }
            stack.extend(&r[x]);
            while let Some(y) = stack.pop() {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    out.push(y);
                    stack.extend(&r[y as usize]);
                }
            }
            for &y in &out {
                seen[y as usize] = false;
            }
            out.sort_unstable();
            out
        })
        .collect()
}

#[derive(Debug)]
enum Ast {
    Empty,
    Epsilon,
    Letter(String, bool),
    Concat(Vec<Ast>),
    Union(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Optional(Box<Ast>),
}

/// Recursive descent over the query surface syntax:
/// `union := concat ('|' concat)*`, `concat := repeat ('.'? repeat)*`,
/// `repeat := atom ('*'|'+'|'?')*`,
/// `atom := ident '-'? | '(' union ')' | '()' | 'ε' | '∅'`.
struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn new(text: &str) -> Parser {
        Parser {
            chars: text.chars().collect(),
            pos: 0,
        }
    }

    fn parse(mut self) -> Result<Ast, String> {
        let e = self.union()?;
        self.skip_ws();
        if self.pos != self.chars.len() {
            return Err(format!("trailing input at {}", self.pos));
        }
        Ok(e)
    }

    fn skip_ws(&mut self) {
        while self.chars.get(self.pos).is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn union(&mut self) -> Result<Ast, String> {
        let mut parts = vec![self.concat()?];
        while self.peek() == Some('|') {
            self.pos += 1;
            parts.push(self.concat()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Ast::Union(parts)
        })
    }

    fn concat(&mut self) -> Result<Ast, String> {
        let mut parts = vec![self.repeat()?];
        loop {
            match self.peek() {
                Some('.') => {
                    self.pos += 1;
                    parts.push(self.repeat()?);
                }
                Some(c) if c == '(' || c == 'ε' || c == '∅' || is_ident(c) => {
                    parts.push(self.repeat()?)
                }
                _ => break,
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Ast::Concat(parts)
        })
    }

    fn repeat(&mut self) -> Result<Ast, String> {
        let mut e = self.atom()?;
        loop {
            e = match self.peek() {
                Some('*') => Ast::Star(Box::new(e)),
                Some('+') => Ast::Plus(Box::new(e)),
                Some('?') => Ast::Optional(Box::new(e)),
                _ => return Ok(e),
            };
            self.pos += 1;
        }
    }

    fn atom(&mut self) -> Result<Ast, String> {
        match self.peek() {
            Some('(') => {
                self.pos += 1;
                if self.peek() == Some(')') {
                    self.pos += 1;
                    return Ok(Ast::Epsilon);
                }
                let e = self.union()?;
                if self.peek() != Some(')') {
                    return Err(format!("expected ')' at {}", self.pos));
                }
                self.pos += 1;
                Ok(e)
            }
            Some('ε') => {
                self.pos += 1;
                Ok(Ast::Epsilon)
            }
            Some('∅') => {
                self.pos += 1;
                Ok(Ast::Empty)
            }
            Some(c) if is_ident(c) && !c.is_ascii_digit() => {
                let start = self.pos;
                while self.chars.get(self.pos).is_some_and(|&c| is_ident(c)) {
                    self.pos += 1;
                }
                let name: String = self.chars[start..self.pos].iter().collect();
                // The inverse mark must follow the label directly.
                let inverse = self.chars.get(self.pos) == Some(&'-');
                if inverse {
                    self.pos += 1;
                }
                Ok(Ast::Letter(name, inverse))
            }
            other => Err(format!("unexpected {other:?} at {}", self.pos)),
        }
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> Graph {
        // 0 -a-> 1 -b-> 2, 2 -a-> 0
        let e = |s, l: &str, d| (s, l.to_string(), d);
        Graph::new(3, &[e(0, "a", 1), e(1, "b", 2), e(2, "a", 0)])
    }

    fn pairs(g: &Graph, q: &str) -> Vec<(u32, u32)> {
        Expected::of(&g.eval(q).unwrap()).sample
    }

    #[test]
    fn operators_match_hand_computed_relations() {
        let g = graph();
        assert_eq!(pairs(&g, "a"), [(0, 1), (2, 0)]);
        assert_eq!(pairs(&g, "a-"), [(0, 2), (1, 0)]);
        assert_eq!(pairs(&g, "a b"), [(0, 2)]);
        assert_eq!(pairs(&g, "a.b|b"), [(0, 2), (1, 2)]);
        assert_eq!(pairs(&g, "(a b a)+"), [(0, 0)]);
        assert_eq!(pairs(&g, "(a b a)*"), [(0, 0), (1, 1), (2, 2)]);
        assert_eq!(pairs(&g, "(a b)+"), [(0, 2)]);
        assert_eq!(
            pairs(&g, "(a|b)+"),
            [
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 1),
                (2, 2)
            ]
        );
        assert_eq!(pairs(&g, "b?"), [(0, 0), (1, 1), (1, 2), (2, 2)]);
        assert_eq!(pairs(&g, "a ∅"), []);
        assert_eq!(pairs(&g, "ε"), [(0, 0), (1, 1), (2, 2)]);
        assert_eq!(Expected::of(&g.eval("(a|b|a-|b-)*").unwrap()).pairs, 9);
    }
}
