//! Irredundant sum-of-products (ISOP) extraction from a BDD interval.
//!
//! The Minato–Morreale algorithm computes a cube cover `C` for any function
//! interval `[lower, upper]` (with `lower ⊆ upper`): the cover satisfies
//! `lower ⊆ C ⊆ upper` and is *irredundant* — every cube contains at least
//! one minterm of `lower` no other cube covers.  Passing
//! `upper = lower ∨ dont_care` therefore performs two-level minimization
//! with the don't-care set absorbed for free, directly on the BDD and
//! without ever enumerating minterms.  This is the cover-extraction engine
//! of the symbolic logic back-end: next-state ON-sets are covered against
//! `¬OFF`, so unreachable codes (the don't-cares of the DAC'96 flow) cost
//! nothing.
//!
//! The recursion is memoised on `(lower, upper)` node pairs.  Because a
//! memoised cover can be referenced from many points of the recursion, the
//! cover is built as a shared DAG ([`IsopNode`], a poor man's ZDD) and only
//! expanded into an explicit cube list at the end.

use crate::hash::FxHashMap;
use crate::manager::{Bdd, BddManager};
use crate::node::{NodeId, VarId};
use std::rc::Rc;

/// One node of the shared cover DAG produced by the ISOP recursion.
///
/// A `Branch` mirrors one level of the recursion: cubes that carry the
/// negative literal of `var`, cubes that carry the positive literal, and
/// cubes that do not mention `var` at all.
enum IsopNode {
    /// The empty cover (no cubes).
    Empty,
    /// The single universal cube (no literals).
    Universe,
    /// Cubes split by their literal of `var`.
    Branch { var: VarId, neg: Rc<IsopNode>, pos: Rc<IsopNode>, dc: Rc<IsopNode> },
}

impl IsopNode {
    fn is_empty(&self) -> bool {
        matches!(self, IsopNode::Empty)
    }
}

/// The result of [`BddManager::isop`]: an irredundant cube cover plus the
/// function it computes.
#[derive(Clone, Debug)]
pub struct IsopCover {
    /// The cubes, each a sorted list of `(variable, phase)` literals.
    pub cubes: Vec<Vec<(VarId, bool)>>,
    /// The BDD of the cover (`lower ⊆ bdd ⊆ upper` holds by construction).
    pub bdd: Bdd,
}

impl IsopCover {
    /// Total number of fixed literals over all cubes — the area metric the
    /// paper reports.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Vec::len).sum()
    }
}

type IsopMemo = FxHashMap<(NodeId, NodeId), (Rc<IsopNode>, NodeId)>;

impl BddManager {
    /// One satisfying assignment of `f` as `(var, value)` literals, or
    /// `None` when `f` is unsatisfiable.  Debugging helper: pairs with
    /// [`Self::cubes`] the way `one_sat`/`cube_iter` do in other BDD
    /// packages.
    pub fn one_sat(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        self.any_sat(f)
    }

    /// Computes an irredundant sum-of-products cover of any function in the
    /// interval `[lower, upper]` (Minato–Morreale).
    ///
    /// Every cube of the result lies entirely within `upper`, the union of
    /// the cubes covers `lower`, and no cube can be dropped without
    /// uncovering part of `lower`.  Minimizing an incompletely specified
    /// function `(on, dc)` is `isop(on, on ∨ dc)`; `isop(f, f)` yields an
    /// irredundant cover of `f` exactly.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(2);
    /// let (a, b) = (m.var(0), m.var(1));
    /// // ON-set {a ∧ b}, upper bound a: the don't-care a ∧ ¬b is absorbed,
    /// // so the cover collapses to the single literal a.
    /// let on = m.and(a, b);
    /// let cover = m.isop(on, a);
    /// assert_eq!(cover.cubes, vec![vec![(0, true)]]);
    /// assert_eq!(cover.literal_count(), 1);
    /// assert_eq!(cover.bdd, a);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `lower ⊄ upper` — the interval would be empty.
    pub fn isop(&mut self, lower: Bdd, upper: Bdd) -> IsopCover {
        assert!(self.implies(lower, upper), "isop: lower must imply upper");
        let mut memo: IsopMemo = FxHashMap::default();
        let (dag, f) = self.isop_rec(lower.node_id(), upper.node_id(), &mut memo);
        let mut cubes = Vec::new();
        let mut literals: Vec<(VarId, bool)> = Vec::new();
        collect_cubes(&dag, &mut literals, &mut cubes);
        IsopCover { cubes, bdd: Bdd(f) }
    }

    fn isop_rec(&mut self, l: NodeId, u: NodeId, memo: &mut IsopMemo) -> (Rc<IsopNode>, NodeId) {
        if l == NodeId::FALSE {
            return (Rc::new(IsopNode::Empty), NodeId::FALSE);
        }
        if u == NodeId::TRUE {
            return (Rc::new(IsopNode::Universe), NodeId::TRUE);
        }
        if self.budget_tripped() {
            // Budget poison: unwind with an empty cover; the caller discards
            // the result through `take_budget_trip`.
            return (Rc::new(IsopNode::Empty), NodeId::FALSE);
        }
        if let Some(hit) = memo.get(&(l, u)) {
            return hit.clone();
        }
        // Top variable of the pair; terminals report the sentinel, which is
        // larger than every real variable.
        let v = self.var_of(l).min(self.var_of(u));
        let (l0, l1) = self.cofactor_pair(l, v);
        let (u0, u1) = self.cofactor_pair(u, v);

        // Minterms of l0 (resp. l1) that no cube free of the ¬v (resp. v)
        // literal can reach: they must be covered by cubes carrying the
        // literal.
        let not_u1 = self.not(Bdd(u1)).node_id();
        let lnew0 = self.and(Bdd(l0), Bdd(not_u1)).node_id();
        let not_u0 = self.not(Bdd(u0)).node_id();
        let lnew1 = self.and(Bdd(l1), Bdd(not_u0)).node_id();
        let (c0, f0) = self.isop_rec(lnew0, u0, memo);
        let (c1, f1) = self.isop_rec(lnew1, u1, memo);

        // Whatever those literal-carrying cubes left uncovered can (and, for
        // irredundancy, must) be covered by cubes without a v literal; their
        // room is the intersection of both upper cofactors.
        let not_f0 = self.not(Bdd(f0)).node_id();
        let lrem0 = self.and(Bdd(l0), Bdd(not_f0)).node_id();
        let not_f1 = self.not(Bdd(f1)).node_id();
        let lrem1 = self.and(Bdd(l1), Bdd(not_f1)).node_id();
        let ld = self.or(Bdd(lrem0), Bdd(lrem1)).node_id();
        let ud = self.and(Bdd(u0), Bdd(u1)).node_id();
        let (cd, fd) = self.isop_rec(ld, ud, memo);

        // The cover function: every cofactor is independent of v, so one
        // `mk` assembles it without a full apply.
        let low = self.or(Bdd(f0), Bdd(fd)).node_id();
        let high = self.or(Bdd(f1), Bdd(fd)).node_id();
        let f = self.mk(v, low, high);

        let dag = if c0.is_empty() && c1.is_empty() {
            // No cube mentions v at this level: flatten to the shared part so
            // cube expansion does not walk a chain of empty branches.
            cd
        } else {
            Rc::new(IsopNode::Branch { var: v, neg: c0, pos: c1, dc: cd })
        };
        memo.insert((l, u), (dag.clone(), f));
        (dag, f)
    }
}

/// Expands the cover DAG into explicit cubes (one per root-to-leaf path that
/// ends in `Universe`).
fn collect_cubes(
    node: &IsopNode,
    literals: &mut Vec<(VarId, bool)>,
    out: &mut Vec<Vec<(VarId, bool)>>,
) {
    match node {
        IsopNode::Empty => {}
        IsopNode::Universe => out.push(literals.clone()),
        IsopNode::Branch { var, neg, pos, dc } => {
            literals.push((*var, false));
            collect_cubes(neg, literals, out);
            literals.pop();
            literals.push((*var, true));
            collect_cubes(pos, literals, out);
            literals.pop();
            collect_cubes(dc, literals, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — deterministic generator for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    fn random_cube_set(m: &mut BddManager, rng: &mut Rng, nv: u32, cubes: usize) -> Bdd {
        let mut acc = m.bottom();
        for _ in 0..cubes {
            let mut lits = Vec::new();
            for v in 0..nv {
                match rng.next() % 3 {
                    0 => lits.push((v, false)),
                    1 => lits.push((v, true)),
                    _ => {}
                }
            }
            let cube = m.cube_of(&lits);
            acc = m.or(acc, cube);
        }
        acc
    }

    fn cover_bdd(m: &mut BddManager, cover: &IsopCover) -> Bdd {
        let mut acc = m.bottom();
        for cube in &cover.cubes {
            let c = m.cube_of(cube);
            acc = m.or(acc, c);
        }
        acc
    }

    #[test]
    fn isop_of_simple_functions() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let cover = m.isop(f, f);
        assert_eq!(cover.bdd, f);
        assert_eq!(cover.cubes, vec![vec![(0, true), (1, true)]]);
        assert_eq!(cover.literal_count(), 2);
        let g = m.or(a, b);
        let cover = m.isop(g, g);
        assert_eq!(cover.bdd, g);
        assert_eq!(cover.cubes.len(), 2);
        // Constants.
        assert!(m.isop(m.bottom(), m.bottom()).cubes.is_empty());
        let top_cover = m.isop(m.top(), m.top());
        assert_eq!(top_cover.cubes, vec![Vec::<(VarId, bool)>::new()]);
    }

    #[test]
    fn dont_cares_shrink_the_cover() {
        // ON = {000}, OFF = {111}: one free literal separates them once the
        // other six minterms are don't-care.
        let mut m = BddManager::new(3);
        let on = m.cube_of(&[(0, false), (1, false), (2, false)]);
        let off = m.cube_of(&[(0, true), (1, true), (2, true)]);
        let upper = m.not(off);
        let cover = m.isop(on, upper);
        assert_eq!(cover.cubes.len(), 1);
        assert!(cover.cubes[0].len() <= 1, "a single literal suffices: {:?}", cover.cubes);
        assert!(m.implies(on, cover.bdd));
        assert!(m.implies(cover.bdd, upper));
    }

    #[test]
    #[should_panic(expected = "lower must imply upper")]
    fn inverted_interval_panics() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let na = m.nvar(0);
        let _ = m.isop(a, na);
    }

    #[test]
    fn isop_interval_and_irredundancy_on_random_functions() {
        for seed in 0..60u64 {
            let mut rng = Rng(seed);
            let nv = 2 + (rng.next() % 8) as u32;
            let mut m = BddManager::new(nv as usize);
            let lower_cubes = 1 + (rng.next() % 6) as usize;
            let lower = random_cube_set(&mut m, &mut rng, nv, lower_cubes);
            let dc_cubes = (rng.next() % 4) as usize;
            let dc = random_cube_set(&mut m, &mut rng, nv, dc_cubes);
            let upper = m.or(lower, dc);
            let cover = m.isop(lower, upper);
            // The cover computes a function inside the interval…
            assert!(m.implies(lower, cover.bdd), "seed {seed}: cover misses lower");
            assert!(m.implies(cover.bdd, upper), "seed {seed}: cover leaves upper");
            // …its cube list denotes exactly that function…
            let rebuilt = cover_bdd(&mut m, &cover);
            assert_eq!(rebuilt, cover.bdd, "seed {seed}: cube list diverged from BDD");
            // …every cube individually stays inside upper…
            for cube in &cover.cubes {
                let c = m.cube_of(cube);
                assert!(m.implies(c, upper), "seed {seed}: cube {cube:?} escapes upper");
            }
            // …and no cube is redundant: dropping it must uncover lower.
            for skip in 0..cover.cubes.len() {
                let mut rest = m.bottom();
                for (i, cube) in cover.cubes.iter().enumerate() {
                    if i != skip {
                        let c = m.cube_of(cube);
                        rest = m.or(rest, c);
                    }
                }
                assert!(
                    !m.implies(lower, rest),
                    "seed {seed}: cube {skip} is redundant in {:?}",
                    cover.cubes
                );
            }
        }
    }

    #[test]
    fn exact_cover_matches_sat_count() {
        for seed in 100..130u64 {
            let mut rng = Rng(seed);
            let nv = 3 + (rng.next() % 6) as u32;
            let mut m = BddManager::new(nv as usize);
            let f_cubes = 1 + (rng.next() % 7) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, f_cubes);
            let cover = m.isop(f, f);
            assert_eq!(cover.bdd, f, "seed {seed}: isop(f, f) must compute f exactly");
            let rebuilt = cover_bdd(&mut m, &cover);
            assert_eq!(rebuilt, f, "seed {seed}");
        }
    }

    #[test]
    fn cofactor_and_one_sat_helpers() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        assert_eq!(m.restrict(f, 0, true), c);
        assert_eq!(m.restrict(f, 0, false), m.bottom());
        let sat = m.one_sat(f).unwrap();
        assert!(sat.contains(&(0, true)) && sat.contains(&(2, true)));
        assert!(m.one_sat(m.bottom()).is_none());
    }
}
