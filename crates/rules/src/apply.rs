//! Applicable rules, conflicts, and non-conflict rule-set selection.
//!
//! Paper §2.1 and §5: a rule is *applicable* to an entity when one of its
//! sides occurs as a contiguous token subsequence; two applicable rules
//! *conflict* when their matched spans overlap. The non-conflict set `A(e)`
//! is chosen by building a hypergraph whose vertices group applications with
//! the same matched span (same left-hand occurrence), weighting each vertex
//! by its group size, and greedily approximating the maximum-weight clique.

use crate::rule::{RuleId, RuleLookup, Side};
use aeetes_text::TokenId;

/// One occurrence of a rule side inside an entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Application {
    /// The matching rule.
    pub rule: RuleId,
    /// Which side of the rule occurred in the entity.
    pub side: Side,
    /// Start token position of the match in the entity.
    pub start: u32,
    /// Number of entity tokens matched.
    pub len: u32,
}

impl Application {
    /// One-past-the-end position of the matched span.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Whether two applications rewrite overlapping entity tokens.
    #[cfg(test)]
    fn conflicts(&self, other: &Application) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// Finds every occurrence of every rule side in `entity` (the complete
/// applicable set `Ac(e)`), position by position, in rule-id order, lhs
/// before rhs. `lookup` must have been built for `entity`'s tokens (or all
/// of them): a side holding a token it was not built for is not found.
pub fn find_applications(entity: &[TokenId], lookup: &RuleLookup<'_>) -> Vec<Application> {
    let mut out = Vec::new();
    for (pos, &t) in entity.iter().enumerate() {
        let rest = &entity[pos..];
        for &head in lookup.heads(t) {
            // The bucket entry settles a side of one or two tokens; a
            // longer one is looked up only once its second token has
            // matched too.
            if let Some(len) = head.matches(rest, || lookup.rules().side_of(head.rule(), head.side())) {
                out.push(Application { rule: head.rule(), side: head.side(), start: pos as u32, len: len as u32 });
            }
        }
    }
    out
}

/// The hypergraph of §5: vertices group applications sharing a matched span;
/// vertex weight = group size; an edge joins every pair of span-disjoint
/// vertices.
#[derive(Debug)]
pub(crate) struct ConflictGraph {
    /// `vertices[v]` = indices into the application list sharing one span.
    pub vertices: Vec<Vec<usize>>,
    /// `spans[v]` = the common `(start, end)` span of vertex `v`.
    pub spans: Vec<(u32, u32)>,
}

impl ConflictGraph {
    /// Groups `apps` into vertices by matched span.
    pub(crate) fn build(apps: &[Application]) -> Self {
        // Sort group keys for determinism, then bucket.
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by_key(|&i| (apps[i].start, apps[i].len, apps[i].rule, apps[i].side as u8));
        let mut vertices: Vec<Vec<usize>> = Vec::new();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for i in order {
            let span = (apps[i].start, apps[i].end());
            match spans.last() {
                // `spans` and `vertices` are pushed in lockstep (the `_`
                // arm below is the only writer), so `spans.last()` being
                // `Some` proves `vertices` is non-empty: the expect is
                // unreachable, not a recoverable condition.
                Some(&s) if s == span => vertices.last_mut().expect("non-empty").push(i),
                _ => {
                    spans.push(span);
                    vertices.push(vec![i]);
                }
            }
        }
        Self { vertices, spans }
    }

    /// Whether vertices `a` and `b` are adjacent (span-disjoint).
    pub(crate) fn adjacent(&self, a: usize, b: usize) -> bool {
        let (s1, e1) = self.spans[a];
        let (s2, e2) = self.spans[b];
        e1 <= s2 || e2 <= s1
    }

    /// Greedy maximum-weight-clique approximation (§5): repeatedly add the
    /// heaviest vertex compatible with everything chosen so far. Ties break
    /// toward the earlier span for determinism. Returns vertex indices.
    pub(crate) fn greedy_clique(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.vertices.len()).collect();
        // Heaviest first; ties by span start then end.
        order.sort_by_key(|&v| (std::cmp::Reverse(self.vertices[v].len()), self.spans[v]));
        let mut clique: Vec<usize> = Vec::new();
        for v in order {
            if clique.iter().all(|&u| self.adjacent(u, v)) {
                clique.push(v);
            }
        }
        clique.sort_by_key(|&v| self.spans[v]);
        clique
    }

    /// Exact maximum-weight clique (the optimal the paper notes is
    /// NP-complete, §5). Because every vertex is a span and adjacency is
    /// span-disjointness, the graph is an **interval graph**, so the optimum
    /// reduces to weighted interval scheduling — solved exactly in
    /// `O(V log V)` by dynamic programming over spans sorted by end
    /// position. Returns vertex indices sorted by span.
    pub(crate) fn exact_clique(&self) -> Vec<usize> {
        let n = self.vertices.len();
        if n == 0 {
            return Vec::new();
        }
        // Sort vertex indices by span end.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (self.spans[v].1, self.spans[v].0));
        let ends: Vec<u32> = order.iter().map(|&v| self.spans[v].1).collect();
        // p[i] = number of sorted vertices whose span ends at or before the
        // start of sorted vertex i (binary search over `ends`).
        let mut best = vec![0usize; n + 1]; // best weight using first i sorted vertices
        let mut take = vec![false; n];
        for i in 0..n {
            let v = order[i];
            let start = self.spans[v].0;
            let p = ends[..i].partition_point(|&e| e <= start);
            let with = best[p] + self.vertices[v].len();
            let without = best[i];
            if with > without {
                best[i + 1] = with;
                take[i] = true;
            } else {
                best[i + 1] = without;
            }
        }
        // Backtrack.
        let mut clique = Vec::new();
        let mut i = n;
        while i > 0 {
            if take[i - 1] {
                let v = order[i - 1];
                clique.push(v);
                let start = self.spans[v].0;
                i = ends[..i - 1].partition_point(|&e| e <= start);
            } else {
                i -= 1;
            }
        }
        clique.sort_by_key(|&v| self.spans[v]);
        clique
    }
}

/// Selects the non-conflict applicable set `A(e)` for `entity`:
/// the applications of the greedy clique, grouped per vertex
/// (each inner `Vec` holds the alternative rewrites of one span). `lookup`
/// is as [`find_applications`] takes it.
pub fn select_non_conflict(entity: &[TokenId], lookup: &RuleLookup<'_>) -> Vec<Vec<Application>> {
    group_non_conflict(&find_applications(entity, lookup), false)
}

/// Like [`select_non_conflict`] but with the *exact* maximum-weight
/// selection (weighted interval scheduling over the span-interval graph).
#[cfg(test)]
fn select_non_conflict_exact(entity: &[TokenId], lookup: &RuleLookup<'_>) -> Vec<Vec<Application>> {
    group_non_conflict(&find_applications(entity, lookup), true)
}

/// Groups an already-found applicable set `Ac(e)` into `A(e)`: the clique's
/// vertices in ascending span order (so the groups' spans are disjoint and
/// their starts ascend), each holding the alternative rewrites of its span.
pub(crate) fn group_non_conflict(apps: &[Application], exact: bool) -> Vec<Vec<Application>> {
    if apps.is_empty() {
        return Vec::new();
    }
    let graph = ConflictGraph::build(apps);
    let clique = if exact { graph.exact_clique() } else { graph.greedy_clique() };
    clique.into_iter().map(|v| graph.vertices[v].iter().map(|&i| apps[i]).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleSet;
    use aeetes_text::{Interner, Tokenizer};

    fn ctx() -> (Interner, Tokenizer) {
        (Interner::new(), Tokenizer::default())
    }

    fn entity(s: &str, i: &mut Interner, t: &Tokenizer) -> Vec<TokenId> {
        t.tokenize(s, i)
    }

    #[test]
    fn finds_lhs_and_rhs_occurrences() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        rs.push_str("UQ", "University of Queensland", &t, &mut i).unwrap();
        let e1 = entity("UQ AU", &mut i, &t);
        let e2 = entity("University of Queensland AU", &mut i, &t);
        let a1 = find_applications(&e1, &rs.lookup_all());
        let a2 = find_applications(&e2, &rs.lookup_all());
        assert_eq!(a1.len(), 1);
        assert_eq!((a1[0].side, a1[0].start, a1[0].len), (Side::Lhs, 0, 1));
        assert_eq!(a2.len(), 1);
        assert_eq!((a2[0].side, a2[0].start, a2[0].len), (Side::Rhs, 0, 3));
    }

    #[test]
    fn multiple_occurrences_found() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        rs.push_str("st", "street", &t, &mut i).unwrap();
        let e = entity("st mary st", &mut i, &t);
        let apps = find_applications(&e, &rs.lookup_all());
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].start, 0);
        assert_eq!(apps[1].start, 2);
    }

    #[test]
    fn conflict_is_span_overlap() {
        let a = Application { rule: RuleId(0), side: Side::Lhs, start: 0, len: 2 };
        let b = Application { rule: RuleId(1), side: Side::Lhs, start: 1, len: 1 };
        let c = Application { rule: RuleId(2), side: Side::Lhs, start: 2, len: 1 };
        assert!(a.conflicts(&b));
        assert!(!a.conflicts(&c));
        assert!(!b.conflicts(&c));
    }

    /// The paper's Figure 7 scenario: entity {a,b,c,d}; r1,r2,r3 share lhs
    /// {a,b}; r4 has lhs {c}; r5 has lhs {d}; r6 has lhs {b,c}; r7 {a,b,c,d}.
    /// Greedy picks v1{r1,r2,r3}, then v2{r4}, v3{r5} → 5 rules.
    #[test]
    fn figure7_greedy_clique() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        // lhs -> unique rhs tokens
        rs.push_str("a b", "x1", &t, &mut i).unwrap(); // r1
        rs.push_str("a b", "x2", &t, &mut i).unwrap(); // r2
        rs.push_str("a b", "x3", &t, &mut i).unwrap(); // r3
        rs.push_str("c", "x4", &t, &mut i).unwrap(); // r4
        rs.push_str("d", "x5", &t, &mut i).unwrap(); // r5
        rs.push_str("b c", "x6", &t, &mut i).unwrap(); // r6
        rs.push_str("a b c d", "x7", &t, &mut i).unwrap(); // r7
        let e = entity("a b c d", &mut i, &t);
        let groups = select_non_conflict(&e, &rs.lookup_all());
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(groups.len(), 3, "three span groups chosen");
        assert_eq!(total, 5, "five rules selected, as in Example 5.2");
        // Spans must be pairwise disjoint.
        for (gi, g) in groups.iter().enumerate() {
            for h in groups.iter().skip(gi + 1) {
                assert!(!g[0].conflicts(&h[0]));
            }
        }
    }

    #[test]
    fn no_rules_no_applications() {
        let (mut i, t) = ctx();
        let rs = RuleSet::new();
        let e = entity("a b c", &mut i, &t);
        assert!(select_non_conflict(&e, &rs.lookup_all()).is_empty());
    }

    #[test]
    fn same_span_groups_into_one_vertex() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        rs.push_str("ny", "new york", &t, &mut i).unwrap();
        rs.push_str("ny", "big apple", &t, &mut i).unwrap();
        let e = entity("ny marathon", &mut i, &t);
        let groups = select_non_conflict(&e, &rs.lookup_all());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    /// The exact selection dominates greedy in total weight on every input
    /// and is itself a valid clique.
    #[test]
    fn exact_clique_dominates_greedy() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        // Craft a case where greedy is suboptimal: a heavy middle vertex
        // blocking two lighter ones whose sum is larger.
        rs.push_str("b c", "m1", &t, &mut i).unwrap();
        rs.push_str("b c", "m2", &t, &mut i).unwrap();
        rs.push_str("b c", "m3", &t, &mut i).unwrap(); // span (1,3), weight 3
        rs.push_str("a b", "l1", &t, &mut i).unwrap();
        rs.push_str("a b", "l2", &t, &mut i).unwrap(); // span (0,2), weight 2
        rs.push_str("c d", "r1", &t, &mut i).unwrap();
        rs.push_str("c d", "r2", &t, &mut i).unwrap(); // span (2,4), weight 2
        let e = entity("a b c d", &mut i, &t);
        let greedy = select_non_conflict(&e, &rs.lookup_all());
        let exact = select_non_conflict_exact(&e, &rs.lookup_all());
        let weight = |g: &Vec<Vec<Application>>| g.iter().map(Vec::len).sum::<usize>();
        assert_eq!(weight(&greedy), 3, "greedy grabs the heavy middle vertex");
        assert_eq!(weight(&exact), 4, "exact takes the two lighter sides");
        for (gi, g) in exact.iter().enumerate() {
            for h in exact.iter().skip(gi + 1) {
                assert!(!g[0].conflicts(&h[0]));
            }
        }
    }

    #[test]
    fn exact_clique_on_figure7() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        rs.push_str("a b", "x1", &t, &mut i).unwrap();
        rs.push_str("a b", "x2", &t, &mut i).unwrap();
        rs.push_str("a b", "x3", &t, &mut i).unwrap();
        rs.push_str("c", "x4", &t, &mut i).unwrap();
        rs.push_str("d", "x5", &t, &mut i).unwrap();
        rs.push_str("b c", "x6", &t, &mut i).unwrap();
        rs.push_str("a b c d", "x7", &t, &mut i).unwrap();
        let e = entity("a b c d", &mut i, &t);
        let exact = select_non_conflict_exact(&e, &rs.lookup_all());
        assert_eq!(exact.iter().map(Vec::len).sum::<usize>(), 5, "Example 5.2's optimum");
    }

    #[test]
    fn pattern_longer_than_entity_is_skipped() {
        let (mut i, t) = ctx();
        let mut rs = RuleSet::new();
        rs.push_str("new york city", "nyc", &t, &mut i).unwrap();
        let e = entity("new york", &mut i, &t);
        assert!(find_applications(&e, &rs.lookup_all()).is_empty());
    }
}
