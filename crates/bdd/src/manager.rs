//! The BDD manager: arena node store, interning index and operation cache.
//!
//! # Architecture
//!
//! The manager is built for the symbolic-reachability workloads of the
//! DAC'96 flow, where millions of `mk`/`apply` calls dominate the runtime.
//! Three structures cooperate:
//!
//! * **Node arena** — all nodes live in one contiguous `Vec<Node>`; a
//!   [`NodeId`] is an index into it.  Nodes are never removed or mutated, so
//!   ids stay valid for the life of the manager.  Slots 0 and 1 hold the
//!   `false`/`true` terminals, represented with the sentinel variable
//!   [`TERMINAL_VAR`] so that variable comparisons place them below every
//!   decision level without branching.
//! * **Unique table** — an open-addressed index (linear probing, FxHash,
//!   power-of-two capacity, ≤ 75 % load) storing only `u32` node ids; key
//!   comparisons read the `(var, low, high)` triple straight from the arena.
//!   This is what makes hash-consing canonical: `mk` returns an existing id
//!   whenever the triple is already interned.
//! * **Apply cache** — a bounded direct-mapped memo table keyed by
//!   `(Op, NodeId, NodeId, NodeId)`: binary connectives use two operands
//!   (negation uses `Op::Not` with both operands equal), while the
//!   quantifier recursions key the third slot with the variable cube and
//!   the fused relational product `and_exists` and the branch image
//!   `image_cube` use all three.  The cube cofactor is keyed `(f, cube)`,
//!   the non-building tests `intersects`/`implies` store their yes/no
//!   answer as a terminal, and the three-operand test `crossing` stores
//!   its exact four-bit mask in the result slot.  Entries carry a
//!   generation tag: [`BddManager::clear_caches`] invalidates
//!   every entry in O(1) by bumping the generation, and the cache is
//!   re-sized (which also clears it) when the arena outgrows it.
//!   Collisions simply overwrite — stale results are only ever *missed*,
//!   never returned, because the full key is stored and compared.
//!
//! # Invariants
//!
//! 1. Canonicity: for every interned `(var, low, high)` with `low != high`
//!    there is exactly one id, so `Bdd` equality is function equality.
//! 2. Ordering: children of a node have strictly larger variable indices
//!    (terminals report [`TERMINAL_VAR`], the maximum).  Checked by debug
//!    assertions in `mk`.
//! 3. Terminal representation: arena slots 0/1 are the only nodes with
//!    `var == TERMINAL_VAR`, and they are never looked up through the
//!    unique table.
//! 4. Cache soundness: a hit `(op, f, g) → r` is only returned while `r`'s
//!    interning is still live, which is always, since nodes are never freed.
//!    `Op::Crossing` results are masks, not nodes, and are never read as
//!    node ids.

use crate::budget::{Budget, BudgetExceeded, CHECK_INTERVAL};
use crate::hash::{fx_combine, FxHashMap, FxHashSet};
use crate::node::{Node, NodeId, VarId, TERMINAL_VAR};
use std::cell::RefCell;
use std::fmt;

/// A handle to a Boolean function stored in a [`BddManager`].
///
/// Handles are plain node indices: they are `Copy`, comparing them with `==`
/// decides functional equality (thanks to canonicity), and they are only
/// meaningful for the manager that created them.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) NodeId);

impl Bdd {
    /// Returns the underlying node id.
    pub fn node_id(self) -> NodeId {
        self.0
    }

    /// Returns `true` if this is the constant `false` function.
    pub fn is_false(self) -> bool {
        self.0 == NodeId::FALSE
    }

    /// Returns `true` if this is the constant `true` function.
    pub fn is_true(self) -> bool {
        self.0 == NodeId::TRUE
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bdd({:?})", self.0)
    }
}

#[derive(Copy, Clone, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    And = 0,
    Or = 1,
    Xor = 2,
    Not = 3,
    /// `∃ cube. f` — keyed `(f, cube, -)`.
    Exists = 4,
    /// `∀ cube. f` — keyed `(f, cube, -)`.
    Forall = 5,
    /// `∃ cube. f ∧ g` — the fused relational product, keyed `(f, g, cube)`.
    AndExists = 6,
    /// Shift every odd variable down by one — keyed `(f, -, -)`.
    Unprime = 7,
    /// Shift every even variable up by one — keyed `(f, -, -)`.
    Prime = 8,
    /// `f` cofactored at every literal of a cube — keyed `(f, cube, -)`.
    RestrictCube = 9,
    /// Whether `f ∧ g` is satisfiable — keyed `(f, g, -)`, answered as a
    /// terminal.
    Intersects = 10,
    /// Whether `f ∧ ¬g` is satisfiable (the complement of `f → g`) — keyed
    /// `(f, g, -)`, answered as a terminal.
    IntersectsNot = 11,
    /// Which of `s ∧ (a | ¬a) ∧ (b | ¬b)` are satisfiable — keyed
    /// `(s, a, b)`, answered as the four-bit mask of
    /// [`BddManager::crossing`] in place of a node id.  The recursion stops
    /// early only once all four bits are set, so a stored mask is always
    /// exact, whichever question the caller asked.
    Crossing = 12,
    /// `f ∧ ¬g` without building `¬g` — keyed `(f, g, -)`.
    AndNot = 13,
    /// The branch image `pinned ∧ ∃vars(pinned). f ∧ enabled` — keyed
    /// `(f, enabled, pinned)`.
    Image = 14,
}

/// Sentinel for an empty unique-table slot (no node can have this id: the
/// arena is capped far below `u32::MAX` entries in practice, and the table
/// never stores terminals).
const EMPTY_SLOT: u32 = u32::MAX;

/// Open-addressed interning index over the node arena.
///
/// Stores bare node ids; the key of slot `s` is the `(var, low, high)`
/// triple of `arena[slots[s]]`.  Linear probing over a power-of-two table
/// kept at most 3/4 full.
struct UniqueTable {
    slots: Vec<u32>,
    len: usize,
}

impl UniqueTable {
    fn with_node_capacity(nodes: usize) -> Self {
        let slots = (nodes.max(16) * 2).next_power_of_two();
        UniqueTable { slots: vec![EMPTY_SLOT; slots], len: 0 }
    }

    #[inline]
    fn hash(node: &Node) -> u64 {
        fx_combine(fx_combine(node.var as u64, node.low.0 as u64), node.high.0 as u64)
    }

    /// Returns the interned id of `node`, inserting it into `arena` if new.
    #[inline]
    fn intern(&mut self, arena: &mut Vec<Node>, node: Node) -> NodeId {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(arena);
        }
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(&node) as usize) & mask;
        loop {
            match self.slots[i] {
                EMPTY_SLOT => {
                    // Hard assert even in release: past u32::MAX ids the new
                    // id would collide with EMPTY_SLOT and silently break
                    // canonicity.  This is the cold (new-node) path, so the
                    // check costs nothing.
                    assert!(
                        arena.len() < EMPTY_SLOT as usize,
                        "node arena overflow (2^32-1 nodes)"
                    );
                    let id = NodeId(arena.len() as u32);
                    arena.push(node);
                    self.slots[i] = id.0;
                    self.len += 1;
                    return id;
                }
                raw => {
                    if arena[raw as usize] == node {
                        return NodeId(raw);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Doubles the table and re-inserts every interned id.
    fn grow(&mut self, arena: &[Node]) {
        self.resize_to(self.slots.len() * 2, arena);
    }

    /// Ensures the table can absorb `nodes` interned nodes without growing.
    fn reserve_for(&mut self, nodes: usize, arena: &[Node]) {
        let wanted = (nodes.max(16) * 2).next_power_of_two();
        if wanted > self.slots.len() {
            self.resize_to(wanted, arena);
        }
    }

    fn resize_to(&mut self, new_slots: usize, arena: &[Node]) {
        let mask = new_slots - 1;
        let mut slots = vec![EMPTY_SLOT; new_slots];
        for &raw in self.slots.iter().filter(|&&raw| raw != EMPTY_SLOT) {
            let mut i = (Self::hash(&arena[raw as usize]) as usize) & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = raw;
        }
        self.slots = slots;
    }
}

#[derive(Copy, Clone)]
struct CacheEntry {
    a: u32,
    b: u32,
    c: u32,
    result: u32,
    op: u8,
    generation: u32,
}

const EMPTY_ENTRY: CacheEntry = CacheEntry { a: 0, b: 0, c: 0, result: 0, op: 0, generation: 0 };

/// Bounded direct-mapped memo table for `apply`/`not`/quantifier results.
///
/// Keys are `(op, a, b, c)` quadruples; binary and unary operations pass the
/// `false` terminal for the unused operands (sound because `op` is part of
/// the stored key).  The live generation starts at 1 and empty entries carry
/// generation 0, so a fresh table never produces hits.  `clear` bumps the
/// generation instead of touching the entries; `resize` reallocates
/// (implicitly clearing).
struct ApplyCache {
    entries: Vec<CacheEntry>,
    generation: u32,
    hits: u64,
    misses: u64,
}

/// Initial apply-cache size (entries; must be a power of two).
const APPLY_CACHE_MIN: usize = 1 << 12;
/// Apply-cache growth stops here: bounded memory even on huge state spaces.
const APPLY_CACHE_MAX: usize = 1 << 20;

impl ApplyCache {
    fn new(entries: usize) -> Self {
        debug_assert!(entries.is_power_of_two());
        ApplyCache { entries: vec![EMPTY_ENTRY; entries], generation: 1, hits: 0, misses: 0 }
    }

    #[inline]
    fn slot(&self, op: Op, a: NodeId, b: NodeId, c: NodeId) -> usize {
        let h = fx_combine(fx_combine(fx_combine(op as u64, a.0 as u64), b.0 as u64), c.0 as u64);
        (h as usize) & (self.entries.len() - 1)
    }

    #[inline]
    fn lookup3(&mut self, op: Op, a: NodeId, b: NodeId, c: NodeId) -> Option<NodeId> {
        let e = &self.entries[self.slot(op, a, b, c)];
        let hit = e.generation == self.generation
            && e.op == op as u8
            && e.a == a.0
            && e.b == b.0
            && e.c == c.0;
        if hit {
            self.hits += 1;
            Some(NodeId(e.result))
        } else {
            self.misses += 1;
            None
        }
    }

    #[inline]
    fn lookup(&mut self, op: Op, a: NodeId, b: NodeId) -> Option<NodeId> {
        self.lookup3(op, a, b, NodeId::FALSE)
    }

    #[inline]
    fn store3(&mut self, op: Op, a: NodeId, b: NodeId, c: NodeId, result: NodeId) {
        let slot = self.slot(op, a, b, c);
        self.entries[slot] = CacheEntry {
            a: a.0,
            b: b.0,
            c: c.0,
            result: result.0,
            op: op as u8,
            generation: self.generation,
        };
    }

    #[inline]
    fn store(&mut self, op: Op, a: NodeId, b: NodeId, result: NodeId) {
        self.store3(op, a, b, NodeId::FALSE, result);
    }

    /// O(1) invalidation of every entry.
    fn clear(&mut self) {
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                // Generation wrap: physically reset so stale tags can't match.
                self.entries.fill(EMPTY_ENTRY);
                1
            }
        };
    }

    /// Grows (and thereby clears) the cache while the arena outpaces it.
    fn grow_for(&mut self, nodes: usize) {
        let wanted = nodes.next_power_of_two().clamp(APPLY_CACHE_MIN, APPLY_CACHE_MAX);
        if wanted > self.entries.len() {
            *self = ApplyCache::new(wanted);
        }
    }
}

/// Reusable traversal state for the read-only analyses (`sat_count`,
/// `sat_count_f64`, `size`, `support`).
///
/// The satisfy-count memos are *persistent*: a node's count depends only on
/// its (immutable) sub-DAG, so entries stay valid for the life of the
/// manager and repeated counts over a growing reachable set share work.
/// The visited set and stack are per-call scratch whose allocations are
/// retained between calls.
#[derive(Default)]
struct TraversalScratch {
    sat_u128: FxHashMap<NodeId, u128>,
    sat_f64: FxHashMap<NodeId, f64>,
    visited: FxHashSet<NodeId>,
    stack: Vec<NodeId>,
}

/// A point-in-time snapshot of a manager's memory and cache behaviour.
///
/// Returned by [`BddManager::stats`]; the bench harness records these next
/// to wall-clock numbers so perf baselines capture space as well as time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Nodes currently in the arena (including the two terminals).
    pub num_nodes: usize,
    /// High-water mark of the arena.  Nodes are never freed today, so this
    /// equals `num_nodes`; it is a separate field so the bench schema
    /// survives a future garbage collector.
    pub peak_nodes: usize,
    /// Interned (non-terminal) nodes in the unique table.
    pub unique_entries: usize,
    /// Capacity of the operation cache, in entries.
    pub cache_entries: usize,
    /// Operation-cache lookups that returned a memoised result.
    pub cache_hits: u64,
    /// Operation-cache lookups that missed (and recomputed).
    pub cache_misses: u64,
}

/// Owner of all BDD nodes, the unique table and the operation cache.
///
/// The number of variables is fixed at construction; variables are indexed
/// `0..num_vars` and that index is also their position in the ordering.
/// See the crate-level docs for the arena/cache architecture.
pub struct BddManager {
    nodes: Vec<Node>,
    unique: UniqueTable,
    cache: ApplyCache,
    num_vars: usize,
    scratch: RefCell<TraversalScratch>,
    /// Optional shared resource budget; see [`Self::set_budget`].
    budget: Option<Budget>,
    /// Steps since the last budget flush: `mk` calls plus uncached
    /// recursions of the non-building kernels (batched by
    /// [`Self::charge_step`]).
    steps_since_check: u64,
    /// Arena length at the last flush, to charge only the delta.
    nodes_at_last_check: u64,
    /// Fast poison flag: set when the budget trips, checked at the top of
    /// every recursion so in-flight operations unwind quickly.
    tripped: bool,
    /// The typed trip report, taken by [`Self::take_budget_trip`].
    trip: Option<BudgetExceeded>,
}

impl BddManager {
    /// Creates a manager for `num_vars` Boolean variables.
    pub fn new(num_vars: usize) -> Self {
        Self::with_capacity(num_vars, 1 << 10)
    }

    /// Creates a manager pre-sized for roughly `node_capacity` nodes.
    ///
    /// Sizing the arena and unique table up front keeps fixpoint loops (such
    /// as symbolic reachability) from rehashing while they grow.
    pub fn with_capacity(num_vars: usize, node_capacity: usize) -> Self {
        assert!(
            num_vars < TERMINAL_VAR as usize,
            "variable count {num_vars} collides with the terminal sentinel"
        );
        let mut nodes = Vec::with_capacity(node_capacity.max(2));
        // Index 0 and 1 are reserved for the terminals; they are never
        // reached through the unique table.
        nodes.push(Node::TERMINAL);
        nodes.push(Node::TERMINAL);
        BddManager {
            nodes,
            unique: UniqueTable::with_node_capacity(node_capacity),
            cache: ApplyCache::new(APPLY_CACHE_MIN),
            num_vars,
            scratch: RefCell::new(TraversalScratch::default()),
            budget: None,
            steps_since_check: 0,
            nodes_at_last_check: 0,
            tripped: false,
            trip: None,
        }
    }

    /// Attaches a shared [`Budget`] to this manager.
    ///
    /// From now on node allocations and apply steps are charged to the
    /// budget in batches of [`CHECK_INTERVAL`] steps.  A step is one `mk`
    /// call or one uncached recursion of [`Self::restrict_cube`],
    /// [`Self::image_cube`], [`Self::intersects`], [`Self::implies`] or
    /// [`Self::crossing`] — the kernels that may answer without
    /// allocating — so the deadline and cancel flag are sampled at the
    /// same rate whether an analysis builds BDDs or only tests them.  When
    /// a ceiling trips, every in-flight recursion unwinds by returning the
    /// `false` terminal (without storing cache entries), and the typed
    /// report waits in [`Self::take_budget_trip`].  Results produced after
    /// a trip are meaningless and must be discarded by the caller.
    pub fn set_budget(&mut self, budget: Budget) {
        self.steps_since_check = 0;
        self.nodes_at_last_check = self.nodes.len() as u64;
        self.budget = Some(budget);
    }

    /// The attached budget, if any.
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }

    /// Whether the budget has tripped (and results are poisoned) since the
    /// last [`Self::take_budget_trip`].
    pub fn budget_tripped(&self) -> bool {
        self.tripped
    }

    /// Flushes pending charges (sampling the wall clock) and reports a trip
    /// if any ceiling is crossed.  Call this at loop headers — reachability
    /// images, candidate evaluations — where a typed error can be surfaced.
    ///
    /// Does not clear the poison flag; use [`Self::take_budget_trip`] for
    /// that.
    pub fn check_budget(&mut self) -> Result<(), BudgetExceeded> {
        self.flush_budget();
        match &self.trip {
            Some(trip) => Err(trip.clone()),
            None => Ok(()),
        }
    }

    /// Takes the pending budget trip, clearing the poison flag so the
    /// manager can be reused (the operation cache is invalidated, since
    /// results computed while poisoned were short-circuited).
    pub fn take_budget_trip(&mut self) -> Option<BudgetExceeded> {
        self.flush_budget();
        let trip = self.trip.take();
        if self.tripped {
            self.tripped = false;
            self.cache.clear();
        }
        trip
    }

    /// Charges the un-flushed step batch to the budget and records a trip if
    /// a ceiling is crossed.
    fn flush_budget(&mut self) {
        let steps = std::mem::take(&mut self.steps_since_check);
        let Some(budget) = &self.budget else { return };
        let nodes_now = self.nodes.len() as u64;
        let new_nodes = nodes_now.saturating_sub(self.nodes_at_last_check);
        self.nodes_at_last_check = nodes_now;
        if self.tripped {
            return;
        }
        if let Err(trip) = budget.charge(new_nodes, steps) {
            self.trip = Some(trip);
            self.tripped = true;
        }
    }

    /// Pre-allocates room for `additional` more nodes (arena and unique
    /// table), so a known-size workload triggers no growth rehashing.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.unique.reserve_for(self.nodes.len() + additional, &self.nodes);
    }

    /// Invalidates the operation cache in O(1) (generation bump) and drops
    /// the persistent satisfy-count memos.
    ///
    /// Results computed afterwards are re-derived through `mk`, so handles
    /// stay canonical across clears; only memoisation is lost.  Useful
    /// between phases whose operand sets do not overlap.
    pub fn clear_caches(&mut self) {
        self.cache.clear();
        let scratch = self.scratch.get_mut();
        scratch.sat_u128.clear();
        scratch.sat_f64.clear();
    }

    /// Snapshot of node counts and operation-cache behaviour.
    pub fn stats(&self) -> BddStats {
        BddStats {
            num_nodes: self.nodes.len(),
            peak_nodes: self.nodes.len(),
            unique_entries: self.unique.len,
            cache_entries: self.cache.entries.len(),
            cache_hits: self.cache.hits,
            cache_misses: self.cache.misses,
        }
    }

    /// Number of variables of this manager.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of nodes allocated so far (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The constant `true` function.
    pub fn top(&self) -> Bdd {
        Bdd(NodeId::TRUE)
    }

    /// The constant `false` function.
    pub fn bottom(&self) -> Bdd {
        Bdd(NodeId::FALSE)
    }

    /// The function of a single positive literal.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: VarId) -> Bdd {
        assert!((var as usize) < self.num_vars, "variable {var} out of range");
        Bdd(self.mk(var, NodeId::FALSE, NodeId::TRUE))
    }

    /// The function of a single negative literal.
    pub fn nvar(&mut self, var: VarId) -> Bdd {
        assert!((var as usize) < self.num_vars, "variable {var} out of range");
        Bdd(self.mk(var, NodeId::TRUE, NodeId::FALSE))
    }

    /// A literal: positive if `value` is `true`, negative otherwise.
    pub fn literal(&mut self, var: VarId, value: bool) -> Bdd {
        if value {
            self.var(var)
        } else {
            self.nvar(var)
        }
    }

    /// The conjunction of the given literals.
    pub fn cube_of(&mut self, literals: &[(VarId, bool)]) -> Bdd {
        let mut acc = self.top();
        // Build from the highest variable down so that each `and` touches a
        // small BDD.
        let mut sorted: Vec<(VarId, bool)> = literals.to_vec();
        sorted.sort_by_key(|&(v, _)| std::cmp::Reverse(v));
        for &(v, val) in &sorted {
            let lit = self.literal(v, val);
            acc = self.and(lit, acc);
        }
        acc
    }

    #[inline]
    fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    /// The decision variable of `id`; terminals report the sentinel
    /// [`TERMINAL_VAR`], which orders below every real variable level.
    #[inline]
    pub(crate) fn var_of(&self, id: NodeId) -> VarId {
        // Terminal arena slots physically carry the sentinel, so no branch
        // on `id.is_terminal()` is needed.
        let node = &self.nodes[id.index()];
        debug_assert_eq!(
            node.is_terminal(),
            id.is_terminal(),
            "terminal invariants diverged: sentinel var on a non-terminal slot (or vice versa)"
        );
        node.var
    }

    pub(crate) fn mk(&mut self, var: VarId, low: NodeId, high: NodeId) -> NodeId {
        if low == high {
            return low;
        }
        debug_assert!(
            (var as usize) < self.num_vars,
            "mk: variable {var} out of range (terminal sentinel leaked into a decision node?)"
        );
        debug_assert!(
            low.index() < self.nodes.len() && high.index() < self.nodes.len(),
            "mk: child id out of arena bounds"
        );
        debug_assert!(
            self.var_of(low) > var && self.var_of(high) > var,
            "mk: ordering violated (children must have strictly larger variables; \
             terminals report TERMINAL_VAR)"
        );
        let id = self.unique.intern(&mut self.nodes, Node { var, low, high });
        // Keep the (bounded) apply cache proportional to the arena.
        if self.nodes.len() > self.cache.entries.len() * 4
            && self.cache.entries.len() < APPLY_CACHE_MAX
        {
            self.cache.grow_for(self.nodes.len());
        }
        self.charge_step();
        id
    }

    /// Charges one apply step.  Accounting is batched: one increment per
    /// step, a flush (shared atomics + clock sample) every
    /// [`CHECK_INTERVAL`] steps; without a budget the flush only resets the
    /// counter.
    #[inline]
    fn charge_step(&mut self) {
        self.steps_since_check += 1;
        if self.steps_since_check >= CHECK_INTERVAL {
            self.flush_budget();
        }
    }

    /// Logical negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        Bdd(self.not_rec(f.0))
    }

    fn not_rec(&mut self, f: NodeId) -> NodeId {
        match f {
            NodeId::FALSE => NodeId::TRUE,
            NodeId::TRUE => NodeId::FALSE,
            _ => {
                if self.tripped {
                    // Budget poison: unwind fast with a placeholder; the
                    // caller discards the result via `take_budget_trip`.
                    return NodeId::FALSE;
                }
                if let Some(r) = self.cache.lookup(Op::Not, f, f) {
                    return r;
                }
                let n = self.node(f);
                let low = self.not_rec(n.low);
                let high = self.not_rec(n.high);
                let r = self.mk(n.var, low, high);
                if !self.tripped {
                    self.cache.store(Op::Not, f, f, r);
                }
                r
            }
        }
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::And, f.0, g.0))
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Or, f.0, g.0))
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(Op::Xor, f.0, g.0))
    }

    /// `f ∧ ¬g`, in one pass that complements `g` on the fly: no copy of
    /// `¬g` is interned, so the arena grows by at most the result's size.
    /// A poisoned manager answers `false`.
    pub fn and_not(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        Bdd(self.and_not_rec(f.0, g.0))
    }

    fn and_not_rec(&mut self, f: NodeId, g: NodeId) -> NodeId {
        if f == NodeId::FALSE || g == NodeId::TRUE || f == g {
            return NodeId::FALSE;
        }
        if g == NodeId::FALSE {
            return f;
        }
        if f == NodeId::TRUE {
            // The result is `¬g` itself.
            return self.not_rec(g);
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::AndNot, f, g) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(g));
        let (f_low, f_high) = self.cofactor_pair(f, v);
        let (g_low, g_high) = self.cofactor_pair(g, v);
        let low = self.and_not_rec(f_low, g_low);
        let high = self.and_not_rec(f_high, g_high);
        let r = self.mk(v, low, high);
        if !self.tripped {
            self.cache.store(Op::AndNot, f, g, r);
        }
        r
    }

    /// Exclusive nor (equivalence).
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        let fg = self.and(f, g);
        let nf = self.not(f);
        let nfh = self.and(nf, h);
        self.or(fg, nfh)
    }

    /// Conjunction of an iterator of functions.
    pub fn and_many<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut acc = self.top();
        for f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of functions.
    pub fn or_many<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut acc = self.bottom();
        for f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    fn apply(&mut self, op: Op, f: NodeId, g: NodeId) -> NodeId {
        // Terminal cases.
        match op {
            Op::And => {
                if f == NodeId::FALSE || g == NodeId::FALSE {
                    return NodeId::FALSE;
                }
                if f == NodeId::TRUE {
                    return g;
                }
                if g == NodeId::TRUE {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            Op::Or => {
                if f == NodeId::TRUE || g == NodeId::TRUE {
                    return NodeId::TRUE;
                }
                if f == NodeId::FALSE {
                    return g;
                }
                if g == NodeId::FALSE {
                    return f;
                }
                if f == g {
                    return f;
                }
            }
            Op::Xor => {
                if f == g {
                    return NodeId::FALSE;
                }
                if f == NodeId::FALSE {
                    return g;
                }
                if g == NodeId::FALSE {
                    return f;
                }
            }
            _ => unreachable!("apply only handles the binary Boolean connectives"),
        }
        if self.tripped {
            // Budget poison: unwind fast; caller discards via `take_budget_trip`.
            return NodeId::FALSE;
        }
        // Normalise commutative operands for better cache hit rates.
        let (a, b) = if f <= g { (f, g) } else { (g, f) };
        if let Some(r) = self.cache.lookup(op, a, b) {
            return r;
        }
        let va = self.var_of(a);
        let vb = self.var_of(b);
        let v = va.min(vb);
        let (a_low, a_high) = if va == v {
            let n = self.node(a);
            (n.low, n.high)
        } else {
            (a, a)
        };
        let (b_low, b_high) = if vb == v {
            let n = self.node(b);
            (n.low, n.high)
        } else {
            (b, b)
        };
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let r = self.mk(v, low, high);
        if !self.tripped {
            self.cache.store(op, a, b, r);
        }
        r
    }

    /// The cofactor of `f` with `var` fixed to `value`: [`Self::restrict_cube`]
    /// on a one-literal cube.
    pub fn restrict(&mut self, f: Bdd, var: VarId, value: bool) -> Bdd {
        let literal = self.literal(var, value);
        self.restrict_cube(f, literal)
    }

    /// The cofactor of `f` at every literal of `cube` (a conjunction of
    /// literals, as built by [`Self::cube_of`]): `f` with each cube variable
    /// fixed to its value.
    ///
    /// One memoised recursion over the whole cube, not a per-literal loop:
    /// nodes above the cube's literals are rebuilt once, and results are
    /// shared through the operation cache across calls.  Evaluating a
    /// predicate at the target of an STG branch is this cofactor at the
    /// branch's post-values.
    pub fn restrict_cube(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        // A tripped manager may have collapsed the cube to FALSE while it
        // was being built; poison the result instead of asserting.
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        debug_assert!(self.is_cube(cube), "cofactor cube must be a conjunction of literals");
        Bdd(self.restrict_cube_rec(f.0, cube.0))
    }

    fn restrict_cube_rec(&mut self, f: NodeId, mut cube: NodeId) -> NodeId {
        // Literals above `f`'s root do not occur in `f`: skip them.
        let vf = self.var_of(f);
        while cube != NodeId::TRUE && self.var_of(cube) < vf {
            cube = self.cube_tail(cube);
        }
        if f.is_terminal() || cube == NodeId::TRUE {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::RestrictCube, f, cube) {
            return r;
        }
        self.charge_step();
        let n = self.node(f);
        let r = if n.var == self.var_of(cube) {
            // A positive literal's node has a `false` low child.
            let branch = if self.node(cube).low == NodeId::FALSE { n.high } else { n.low };
            let rest = self.cube_tail(cube);
            self.restrict_cube_rec(branch, rest)
        } else {
            let low = self.restrict_cube_rec(n.low, cube);
            let high = self.restrict_cube_rec(n.high, cube);
            self.mk(n.var, low, high)
        };
        if !self.tripped {
            self.cache.store(Op::RestrictCube, f, cube, r);
        }
        r
    }

    /// The image of `f` under one transition branch: `pinned ∧
    /// ∃vars(pinned). f ∧ enabled`, where `enabled` (the firing condition)
    /// and `pinned` (the changed variables' post-values) are cubes
    /// ([`Self::cube_of`]).  A variable of `enabled` outside `pinned` is a
    /// read arc and keeps its value; a variable of `pinned` outside
    /// `enabled` is set whatever its value was.
    ///
    /// One memoised recursion replaces the three building passes `and`,
    /// `exists_cube`, `and`: levels of `enabled` select a cofactor of `f`,
    /// levels of `pinned` quantify and re-pin, and neither `f ∧ enabled`
    /// nor the quantified set is ever interned.  Each uncached recursion
    /// charges one budget step; a poisoned manager answers `false`.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(3);
    /// // A branch that consumes the token on 0 and marks 1, reading 2.
    /// let enabled = m.cube_of(&[(0, true), (2, true)]);
    /// let pinned = m.cube_of(&[(0, false), (1, true)]);
    /// let x0 = m.var(0);
    /// let x2 = m.var(2);
    /// let f = m.and(x0, x2);
    /// let image = m.image_cube(f, enabled, pinned);
    /// assert_eq!(image, m.cube_of(&[(0, false), (1, true), (2, true)]));
    /// ```
    pub fn image_cube(&mut self, f: Bdd, enabled: Bdd, pinned: Bdd) -> Bdd {
        // A tripped manager may have collapsed a cube to FALSE while it was
        // being built; poison the result instead of asserting.
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        debug_assert!(self.is_cube(enabled), "enabling condition must be a cube");
        debug_assert!(self.is_cube(pinned), "post-values must be a cube");
        Bdd(self.image_rec(f.0, enabled.0, pinned.0))
    }

    fn image_rec(&mut self, f: NodeId, enabled: NodeId, pinned: NodeId) -> NodeId {
        if f == NodeId::FALSE || (enabled == NodeId::TRUE && pinned == NodeId::TRUE) {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup3(Op::Image, f, enabled, pinned) {
            return r;
        }
        self.charge_step();
        let (ve, vp) = (self.var_of(enabled), self.var_of(pinned));
        let v = self.var_of(f).min(ve).min(vp);
        let (f_low, f_high) = self.cofactor_pair(f, v);
        // A cube's level is a positive literal when its low child is false.
        let positive = |m: &Self, cube: NodeId| m.node(cube).low == NodeId::FALSE;
        let r = if v == vp {
            let rest = self.cube_tail(pinned);
            let moved = if v == ve {
                let cofactor = if positive(self, enabled) { f_high } else { f_low };
                let tail = self.cube_tail(enabled);
                self.image_rec(cofactor, tail, rest)
            } else {
                let low = self.image_rec(f_low, enabled, rest);
                if low == NodeId::TRUE {
                    NodeId::TRUE
                } else {
                    let high = self.image_rec(f_high, enabled, rest);
                    self.apply(Op::Or, low, high)
                }
            };
            if positive(self, pinned) {
                self.mk(v, NodeId::FALSE, moved)
            } else {
                self.mk(v, moved, NodeId::FALSE)
            }
        } else if v == ve {
            let kept = positive(self, enabled);
            let tail = self.cube_tail(enabled);
            let cofactor = if kept { f_high } else { f_low };
            let moved = self.image_rec(cofactor, tail, pinned);
            if kept {
                self.mk(v, NodeId::FALSE, moved)
            } else {
                self.mk(v, moved, NodeId::FALSE)
            }
        } else {
            let low = self.image_rec(f_low, enabled, pinned);
            let high = self.image_rec(f_high, enabled, pinned);
            self.mk(v, low, high)
        };
        if !self.tripped {
            self.cache.store3(Op::Image, f, enabled, pinned, r);
        }
        r
    }

    /// The cube below the root literal of a (non-constant) cube.
    #[inline]
    fn cube_tail(&self, cube: NodeId) -> NodeId {
        let n = self.node(cube);
        if n.low == NodeId::FALSE {
            n.high
        } else {
            n.low
        }
    }

    /// Whether `f` is a conjunction of literals: every node has exactly one
    /// `false` child.  The constant `true` is the empty cube.
    fn is_cube(&self, f: Bdd) -> bool {
        let mut cur = f.0;
        while !cur.is_terminal() {
            let n = self.node(cur);
            if (n.low == NodeId::FALSE) == (n.high == NodeId::FALSE) {
                return false;
            }
            cur = self.cube_tail(cur);
        }
        cur == NodeId::TRUE
    }

    /// Builds the positive cube `v₀ ∧ v₁ ∧ …` identifying a quantification
    /// set.  The input may be unsorted and contain duplicates.
    ///
    /// The cube doubles as the memo key for the quantifier recursions, so
    /// callers that quantify the same set repeatedly (fixpoint loops) should
    /// build it once and reuse it through [`Self::exists_cube`],
    /// [`Self::forall_cube`] and [`Self::and_exists_with`].
    pub fn quant_cube(&mut self, vars: &[VarId]) -> Bdd {
        let mut sorted: Vec<VarId> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let lits: Vec<(VarId, bool)> = sorted.into_iter().map(|v| (v, true)).collect();
        self.cube_of(&lits)
    }

    /// Returns `true` if `f` is a conjunction of positive literals (the
    /// shape [`Self::quant_cube`] produces); the constant `true` is the
    /// empty cube.
    pub fn is_quant_cube(&self, f: Bdd) -> bool {
        let mut cur = f.0;
        while !cur.is_terminal() {
            let n = self.node(cur);
            if n.low != NodeId::FALSE {
                return false;
            }
            cur = n.high;
        }
        cur == NodeId::TRUE
    }

    /// Existential quantification of a single variable.
    pub fn exists(&mut self, f: Bdd, var: VarId) -> Bdd {
        self.exists_many(f, &[var])
    }

    /// Existential quantification of a set of variables.
    ///
    /// One fused recursion over the whole (sorted, deduplicated) set — not a
    /// per-variable loop — so shared sub-DAGs are traversed once and no
    /// intermediate one-variable results are materialised.
    pub fn exists_many(&mut self, f: Bdd, vars: &[VarId]) -> Bdd {
        let cube = self.quant_cube(vars);
        self.exists_cube(f, cube)
    }

    /// Existential quantification over a prebuilt [`Self::quant_cube`].
    pub fn exists_cube(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        // A tripped manager may have collapsed the cube to FALSE while it
        // was being built; poison the result instead of asserting.
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        debug_assert!(self.is_quant_cube(cube), "quantifier cube must be positive literals");
        Bdd(self.exists_rec(f.0, cube.0))
    }

    fn exists_rec(&mut self, f: NodeId, mut cube: NodeId) -> NodeId {
        // Quantifying a variable `f` does not depend on is a no-op: skip
        // cube levels above `f`'s root.  Terminals report TERMINAL_VAR, so
        // this also drains the cube when `f` is constant.
        let vf = self.var_of(f);
        while cube != NodeId::TRUE && self.var_of(cube) < vf {
            cube = self.node(cube).high;
        }
        if f.is_terminal() || cube == NodeId::TRUE {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::Exists, f, cube) {
            return r;
        }
        let n = self.node(f);
        let r = if n.var == self.var_of(cube) {
            let rest = self.node(cube).high;
            let low = self.exists_rec(n.low, rest);
            if low == NodeId::TRUE {
                // ∨ with anything is true: prune the high branch entirely.
                NodeId::TRUE
            } else {
                let high = self.exists_rec(n.high, rest);
                self.apply(Op::Or, low, high)
            }
        } else {
            let low = self.exists_rec(n.low, cube);
            let high = self.exists_rec(n.high, cube);
            self.mk(n.var, low, high)
        };
        if !self.tripped {
            self.cache.store(Op::Exists, f, cube, r);
        }
        r
    }

    /// Universal quantification of a single variable.
    pub fn forall(&mut self, f: Bdd, var: VarId) -> Bdd {
        self.forall_many(f, &[var])
    }

    /// Universal quantification of a set of variables (one fused recursion,
    /// like [`Self::exists_many`]).
    pub fn forall_many(&mut self, f: Bdd, vars: &[VarId]) -> Bdd {
        let cube = self.quant_cube(vars);
        self.forall_cube(f, cube)
    }

    /// Universal quantification over a prebuilt [`Self::quant_cube`].
    pub fn forall_cube(&mut self, f: Bdd, cube: Bdd) -> Bdd {
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        debug_assert!(self.is_quant_cube(cube), "quantifier cube must be positive literals");
        Bdd(self.forall_rec(f.0, cube.0))
    }

    fn forall_rec(&mut self, f: NodeId, mut cube: NodeId) -> NodeId {
        let vf = self.var_of(f);
        while cube != NodeId::TRUE && self.var_of(cube) < vf {
            cube = self.node(cube).high;
        }
        if f.is_terminal() || cube == NodeId::TRUE {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::Forall, f, cube) {
            return r;
        }
        let n = self.node(f);
        let r = if n.var == self.var_of(cube) {
            let rest = self.node(cube).high;
            let low = self.forall_rec(n.low, rest);
            if low == NodeId::FALSE {
                NodeId::FALSE
            } else {
                let high = self.forall_rec(n.high, rest);
                self.apply(Op::And, low, high)
            }
        } else {
            let low = self.forall_rec(n.low, cube);
            let high = self.forall_rec(n.high, cube);
            self.mk(n.var, low, high)
        };
        if !self.tripped {
            self.cache.store(Op::Forall, f, cube, r);
        }
        r
    }

    /// The fused relational product `∃ vars. f ∧ g`.
    ///
    /// A single recursion conjoins and quantifies in one pass: the
    /// intermediate `f ∧ g` BDD is never materialised, and the disjunction
    /// at quantified levels short-circuits to `true` without visiting the
    /// other branch.  This is the image operator of symbolic reachability.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(3);
    /// let (a, b, c) = (m.var(0), m.var(1), m.var(2));
    /// // ∃a. (a ∨ b) ∧ (a ∨ c) — the fused product equals the two-step one.
    /// let ab = m.or(a, b);
    /// let ac = m.or(a, c);
    /// let fused = m.and_exists(ab, ac, &[0]);
    /// let conjoined = m.and(ab, ac);
    /// let two_step = m.exists_many(conjoined, &[0]);
    /// assert_eq!(fused, two_step);
    /// assert!(fused.is_true()); // choosing a = 1 satisfies both operands
    /// ```
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[VarId]) -> Bdd {
        let cube = self.quant_cube(vars);
        self.and_exists_with(f, g, cube)
    }

    /// [`Self::and_exists`] over a prebuilt [`Self::quant_cube`] — the form
    /// fixpoint loops should call so the cube (which is also the memo key)
    /// is interned once.
    pub fn and_exists_with(&mut self, f: Bdd, g: Bdd, cube: Bdd) -> Bdd {
        if self.tripped {
            return Bdd(NodeId::FALSE);
        }
        debug_assert!(self.is_quant_cube(cube), "quantifier cube must be positive literals");
        Bdd(self.and_exists_rec(f.0, g.0, cube.0))
    }

    fn and_exists_rec(&mut self, f: NodeId, g: NodeId, mut cube: NodeId) -> NodeId {
        if f == NodeId::FALSE || g == NodeId::FALSE {
            return NodeId::FALSE;
        }
        // Degenerate operands reduce to a plain quantification (which has
        // better sharing under its own cache key).
        if f == NodeId::TRUE {
            return self.exists_rec(g, cube);
        }
        if g == NodeId::TRUE || f == g {
            return self.exists_rec(f, cube);
        }
        // Conjunction is commutative: normalise the operand order.
        let (f, g) = if f <= g { (f, g) } else { (g, f) };
        let vf = self.var_of(f);
        let vg = self.var_of(g);
        let v = vf.min(vg);
        while cube != NodeId::TRUE && self.var_of(cube) < v {
            cube = self.node(cube).high;
        }
        if cube == NodeId::TRUE {
            // No variables left to quantify below this level.
            return self.apply(Op::And, f, g);
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup3(Op::AndExists, f, g, cube) {
            return r;
        }
        let (f_low, f_high) = if vf == v {
            let n = self.node(f);
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g_low, g_high) = if vg == v {
            let n = self.node(g);
            (n.low, n.high)
        } else {
            (g, g)
        };
        let r = if v == self.var_of(cube) {
            let rest = self.node(cube).high;
            let low = self.and_exists_rec(f_low, g_low, rest);
            if low == NodeId::TRUE {
                NodeId::TRUE
            } else {
                let high = self.and_exists_rec(f_high, g_high, rest);
                self.apply(Op::Or, low, high)
            }
        } else {
            let low = self.and_exists_rec(f_low, g_low, cube);
            let high = self.and_exists_rec(f_high, g_high, cube);
            self.mk(v, low, high)
        };
        if !self.tripped {
            self.cache.store3(Op::AndExists, f, g, cube, r);
        }
        r
    }

    /// Maps every *odd* variable in `f`'s support to its even predecessor
    /// (`2i+1 ↦ 2i`), leaving even variables in place.
    ///
    /// This is the rename step of the relational-product image under an
    /// interleaved current/next variable encoding (current state in the even
    /// variables, next state in the odd ones): after quantifying the current
    /// copy, `unprime` moves the next-state result back onto the current
    /// variables.  The map preserves the variable order, so the result is
    /// built by a single structural traversal.
    ///
    /// # Panics
    ///
    /// `f` must not depend on both `2i` and `2i + 1` for any `i` — the two
    /// would collide on the same level after the shift.  Violations panic
    /// (in release builds too): silently interning an out-of-order node
    /// would corrupt canonicity for the whole manager.
    pub fn unprime(&mut self, f: Bdd) -> Bdd {
        Bdd(self.unprime_rec(f.0))
    }

    fn unprime_rec(&mut self, f: NodeId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::Unprime, f, f) {
            return r;
        }
        let n = self.node(f);
        let low = self.unprime_rec(n.low);
        let high = self.unprime_rec(n.high);
        let var = n.var - (n.var & 1);
        assert!(
            self.var_of(low) > var && self.var_of(high) > var,
            "unprime: input depends on both variables of the pair ({var}, {})",
            var + 1
        );
        let r = self.mk(var, low, high);
        if !self.tripped {
            self.cache.store(Op::Unprime, f, f, r);
        }
        r
    }

    /// Maps every *even* variable in `f`'s support to its odd successor
    /// (`2i ↦ 2i + 1`), leaving odd variables in place — the inverse rename
    /// of [`Self::unprime`].
    ///
    /// Under the interleaved current/next encoding this re-expresses a
    /// current-state predicate over the next-state copies, which is how a
    /// *pair* relation (e.g. the CSC conflict relation between two reachable
    /// states) is built: keep one operand on the current variables, `prime`
    /// the other, and conjoin.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(4);
    /// let cur = m.var(0);           // current copy of state variable 0
    /// let primed = m.prime(cur);    // the same predicate on the next copy
    /// assert_eq!(primed, m.var(1));
    /// assert_eq!(m.unprime(primed), cur);
    /// ```
    ///
    /// # Panics
    ///
    /// `f` must not depend on both `2i` and `2i + 1` for any `i`, and no
    /// variable of `f`'s support may be the last manager variable (its odd
    /// successor must exist).  Violations panic in release builds too, for
    /// the same canonicity reason as [`Self::unprime`].
    pub fn prime(&mut self, f: Bdd) -> Bdd {
        Bdd(self.prime_rec(f.0))
    }

    fn prime_rec(&mut self, f: NodeId) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if self.tripped {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache.lookup(Op::Prime, f, f) {
            return r;
        }
        let n = self.node(f);
        let low = self.prime_rec(n.low);
        let high = self.prime_rec(n.high);
        let var = n.var | 1;
        assert!(
            (var as usize) < self.num_vars,
            "prime: variable {} has no odd successor in the manager",
            n.var
        );
        assert!(
            self.var_of(low) > var && self.var_of(high) > var,
            "prime: input depends on both variables of the pair ({}, {var})",
            var - 1
        );
        let r = self.mk(var, low, high);
        if !self.tripped {
            self.cache.store(Op::Prime, f, f, r);
        }
        r
    }

    /// Returns `true` if `f ∧ g` is satisfiable, decided without building
    /// the conjunction: the recursion stops at the first satisfying path,
    /// and its answers are memoised as terminals.  Allocates no nodes.
    pub fn intersects(&mut self, f: Bdd, g: Bdd) -> bool {
        self.meets(f.0, g.0, false)
    }

    /// Returns `true` if `f → g` is a tautology, i.e. `f ∧ ¬g` is empty —
    /// decided by the same non-building recursion as [`Self::intersects`],
    /// with `g` complemented on the fly instead of building `¬g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> bool {
        !self.meets(f.0, g.0, true)
    }

    /// Whether `f ∧ g` (`f ∧ ¬g` when `negate_g`) has a satisfying path.
    /// Poisoned managers answer `false`.
    fn meets(&mut self, f: NodeId, g: NodeId, negate_g: bool) -> bool {
        if f == NodeId::FALSE {
            return false;
        }
        if g.is_terminal() {
            return (g == NodeId::TRUE) != negate_g;
        }
        // `g` is not constant, so both `g` and `¬g` are satisfiable.
        if f == NodeId::TRUE {
            return true;
        }
        if f == g {
            return !negate_g;
        }
        if self.tripped {
            return false;
        }
        let (op, f, g) = if negate_g {
            (Op::IntersectsNot, f, g)
        } else {
            // Conjunction is commutative: normalise the operand order.
            (Op::Intersects, f.min(g), f.max(g))
        };
        if let Some(r) = self.cache.lookup(op, f, g) {
            return r == NodeId::TRUE;
        }
        self.charge_step();
        let v = self.var_of(f).min(self.var_of(g));
        let (f_low, f_high) = self.cofactor_pair(f, v);
        let (g_low, g_high) = self.cofactor_pair(g, v);
        let r = self.meets(f_low, g_low, negate_g) || self.meets(f_high, g_high, negate_g);
        if !self.tripped {
            self.cache.store(op, f, g, if r { NodeId::TRUE } else { NodeId::FALSE });
        }
        r
    }

    /// [`Self::crossing`] bit: `srcs ∧ a ∧ b` is satisfiable (a firing from
    /// inside `a` whose target `b` is inside too: it *stays in*).
    pub const STAYS_IN: u8 = 0b0001;
    /// [`Self::crossing`] bit: `srcs ∧ a ∧ ¬b` is satisfiable (*leaves*).
    pub const LEAVES: u8 = 0b0010;
    /// [`Self::crossing`] bit: `srcs ∧ ¬a ∧ b` is satisfiable (*enters*).
    pub const ENTERS: u8 = 0b0100;
    /// [`Self::crossing`] bit: `srcs ∧ ¬a ∧ ¬b` is satisfiable (*stays out*).
    pub const STAYS_OUT: u8 = 0b1000;

    /// Which of the four sets `srcs ∧ (a | ¬a) ∧ (b | ¬b)` are non-empty, as
    /// a mask of [`Self::STAYS_IN`], [`Self::LEAVES`], [`Self::ENTERS`] and
    /// [`Self::STAYS_OUT`].
    ///
    /// With `srcs` the sources of a transition, `a` a region and `b` the
    /// region evaluated at the transition's target (`a` cofactored at its
    /// post-values, [`Self::restrict_cube`]), the mask says whether some
    /// firing stays in, leaves, enters or stays out of the region.  One
    /// walk over the three operands answers all four questions; it builds
    /// no node (in particular no copy of `¬a`), memoises its masks in the
    /// operation cache, and stops early only once every bit is set, so the
    /// masks it stores are exact.  A poisoned manager answers `0`.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(2);
    /// let (x, y) = (m.var(0), m.var(1));
    /// // Sources x, region y, target region ¬y (the firing toggles y):
    /// // firings from y leave, firings from ¬y enter.
    /// let ny = m.not(y);
    /// let mask = m.crossing(x, y, ny);
    /// assert_eq!(mask, BddManager::LEAVES | BddManager::ENTERS);
    /// ```
    pub fn crossing(&mut self, srcs: Bdd, a: Bdd, b: Bdd) -> u8 {
        self.crossing_rec(srcs.0, a.0, b.0)
    }

    fn crossing_rec(&mut self, s: NodeId, a: NodeId, b: NodeId) -> u8 {
        const ALL: u8 = 0b1111;
        if s == NodeId::FALSE {
            return 0;
        }
        // With one region constant only two bits are possible, and each is
        // a two-operand emptiness test.
        if a.is_terminal() || b.is_terminal() {
            let (other, on_bit, off_bit) = match (a, b) {
                (NodeId::TRUE, _) => (b, Self::STAYS_IN, Self::LEAVES),
                (NodeId::FALSE, _) => (b, Self::ENTERS, Self::STAYS_OUT),
                (_, NodeId::TRUE) => (a, Self::STAYS_IN, Self::ENTERS),
                _ => (a, Self::LEAVES, Self::STAYS_OUT),
            };
            let on = if self.meets(s, other, false) { on_bit } else { 0 };
            let off = if self.meets(s, other, true) { off_bit } else { 0 };
            return on | off;
        }
        if self.tripped {
            return 0;
        }
        if let Some(r) = self.cache.lookup3(Op::Crossing, s, a, b) {
            return r.0 as u8;
        }
        self.charge_step();
        let v = self.var_of(s).min(self.var_of(a)).min(self.var_of(b));
        let (s_low, s_high) = self.cofactor_pair(s, v);
        let (a_low, a_high) = self.cofactor_pair(a, v);
        let (b_low, b_high) = self.cofactor_pair(b, v);
        let mut mask = self.crossing_rec(s_low, a_low, b_low);
        if mask != ALL {
            mask |= self.crossing_rec(s_high, a_high, b_high);
        }
        if !self.tripped {
            self.cache.store3(Op::Crossing, s, a, b, NodeId(u32::from(mask)));
        }
        mask
    }

    /// Evaluates `f` under a complete assignment (indexed by variable).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the variable index of a node
    /// encountered during evaluation.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut current = f.0;
        while !current.is_terminal() {
            let n = self.node(current);
            current = if assignment[n.var as usize] { n.high } else { n.low };
        }
        current == NodeId::TRUE
    }

    /// Number of satisfying assignments of `f` over all `num_vars` variables
    /// (saturating at `u128::MAX`).
    pub fn sat_count(&self, f: Bdd) -> u128 {
        let bits = self.num_vars as u32;
        if bits >= 128 {
            // Work in floating point to avoid overflow; saturate.
            let approx = self.sat_count_f64(f);
            return if approx >= u128::MAX as f64 { u128::MAX } else { approx as u128 };
        }
        let mut scratch = self.scratch.borrow_mut();
        let fraction = self.sat_fraction(f.0, &mut scratch.sat_u128);
        let shift = bits - self.depth_below_root(f.0);
        fraction.checked_shl(shift).unwrap_or(u128::MAX)
    }

    /// Number of satisfying assignments as a float (usable beyond 128
    /// variables, at the cost of rounding).
    pub fn sat_count_f64(&self, f: Bdd) -> f64 {
        // `density` returns the fraction of assignments (over all variables)
        // that satisfy the sub-function rooted at `f`.
        fn density(m: &BddManager, f: NodeId, cache: &mut FxHashMap<NodeId, f64>) -> f64 {
            match f {
                NodeId::FALSE => 0.0,
                NodeId::TRUE => 1.0,
                _ => {
                    if let Some(&c) = cache.get(&f) {
                        return c;
                    }
                    let n = m.node(f);
                    let d = 0.5 * density(m, n.low, cache) + 0.5 * density(m, n.high, cache);
                    cache.insert(f, d);
                    d
                }
            }
        }
        let mut scratch = self.scratch.borrow_mut();
        density(self, f.0, &mut scratch.sat_f64) * 2f64.powi(self.num_vars as i32)
    }

    fn depth_below_root(&self, f: NodeId) -> u32 {
        if f.is_terminal() {
            0
        } else {
            (self.num_vars as u32) - self.node(f).var
        }
    }

    fn sat_fraction(&self, f: NodeId, cache: &mut FxHashMap<NodeId, u128>) -> u128 {
        // Returns the number of satisfying assignments over the variables
        // strictly below (and including) the root variable of `f`, assuming
        // the remaining variables above are free (the caller scales).
        match f {
            NodeId::FALSE => 0,
            NodeId::TRUE => 1,
            _ => {
                if let Some(&c) = cache.get(&f) {
                    return c;
                }
                let n = self.node(f);
                let count = |m: &Self, child: NodeId, cache: &mut FxHashMap<NodeId, u128>| {
                    let sub = m.sat_fraction(child, cache);
                    let child_var =
                        if child.is_terminal() { m.num_vars as VarId } else { m.node(child).var };
                    let gap = child_var - n.var - 1;
                    sub.saturating_mul(1u128 << gap.min(127))
                };
                let total = count(self, n.low, cache).saturating_add(count(self, n.high, cache));
                cache.insert(f, total);
                total
            }
        }
    }

    /// Returns one satisfying assignment as a vector of `(var, value)` pairs
    /// for the variables that matter, or `None` if `f` is unsatisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<Vec<(VarId, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut lits = Vec::new();
        let mut current = f.0;
        while !current.is_terminal() {
            let n = self.node(current);
            if n.low != NodeId::FALSE {
                lits.push((n.var, false));
                current = n.low;
            } else {
                lits.push((n.var, true));
                current = n.high;
            }
        }
        Some(lits)
    }

    /// [`Self::value_span`] bit: some satisfying assignment sets the
    /// variable to 0.
    pub const SPAN_LOW: u8 = 0b01;
    /// [`Self::value_span`] bit: some satisfying assignment sets the
    /// variable to 1.
    pub const SPAN_HIGH: u8 = 0b10;

    /// Per variable, the values the satisfying assignments of `f` take, as
    /// a mask of [`Self::SPAN_LOW`] and [`Self::SPAN_HIGH`]: the projection
    /// of `f` onto each variable alone.  A level that a path to `true`
    /// skips takes both values, and so does every level above the root;
    /// `false` takes none anywhere.
    ///
    /// One read-only pass over `f`'s nodes.  In a reduced BDD every node
    /// reachable from the root lies on a path to `true`, so a variable takes
    /// a value exactly when some node on its level has a non-`false` child
    /// on that side, or some edge into a non-`false` child skips the level.
    /// Allocates no node and charges no budget step.  A conjunction `f ∧ c`
    /// with a cube `c` is empty whenever the span excludes one of `c`'s
    /// literals, which is how the solver skips empty branch images.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(3);
    /// let (x0, x2) = (m.var(0), m.var(2));
    /// let nx2 = m.not(x2);
    /// let f = m.and(x0, nx2);
    /// let (low, high) = (BddManager::SPAN_LOW, BddManager::SPAN_HIGH);
    /// assert_eq!(m.value_span(f), [high, low | high, low]);
    /// ```
    pub fn value_span(&self, f: Bdd) -> Vec<u8> {
        let n = self.num_vars;
        let mut span = vec![0u8; n];
        if f.is_false() {
            return span;
        }
        let level = |id: NodeId| (self.var_of(id) as usize).min(n);
        // Skipped level ranges, as a difference array over the levels.
        let mut skips = vec![0i32; n + 1];
        let mut skip = |from: usize, to: usize| {
            if from < to {
                skips[from] += 1;
                skips[to] -= 1;
            }
        };
        skip(0, level(f.0));
        let mut scratch = self.scratch.borrow_mut();
        let TraversalScratch { visited, stack, .. } = &mut *scratch;
        visited.clear();
        stack.push(f.0);
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !visited.insert(id) {
                continue;
            }
            let node = self.node(id);
            let v = node.var as usize;
            for (child, bit) in [(node.low, Self::SPAN_LOW), (node.high, Self::SPAN_HIGH)] {
                if child != NodeId::FALSE {
                    span[v] |= bit;
                    skip(v + 1, level(child));
                    stack.push(child);
                }
            }
        }
        let mut open = 0;
        for (v, values) in span.iter_mut().enumerate() {
            open += skips[v];
            if open > 0 {
                *values = Self::SPAN_LOW | Self::SPAN_HIGH;
            }
        }
        span
    }

    /// The set of variables `f` depends on.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut scratch = self.scratch.borrow_mut();
        let TraversalScratch { visited, stack, .. } = &mut *scratch;
        visited.clear();
        let mut vars = std::collections::BTreeSet::new();
        stack.push(f.0);
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !visited.insert(id) {
                continue;
            }
            let n = self.node(id);
            vars.insert(n.var);
            stack.push(n.low);
            stack.push(n.high);
        }
        vars.into_iter().collect()
    }

    /// Number of distinct nodes reachable from `f` (a size measure).
    pub fn size(&self, f: Bdd) -> usize {
        let mut scratch = self.scratch.borrow_mut();
        let TraversalScratch { visited, stack, .. } = &mut *scratch;
        visited.clear();
        stack.push(f.0);
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !visited.insert(id) {
                continue;
            }
            count += 1;
            let n = self.node(id);
            stack.push(n.low);
            stack.push(n.high);
        }
        count
    }

    pub(crate) fn node_triple(&self, id: NodeId) -> (VarId, NodeId, NodeId) {
        let n = self.node(id);
        (n.var, n.low, n.high)
    }

    /// Both cofactors of `f` by `var`, assuming `var` is at or above `f`'s
    /// root level.
    pub(crate) fn cofactor_pair(&self, f: NodeId, var: VarId) -> (NodeId, NodeId) {
        if self.var_of(f) == var {
            let n = self.node(f);
            (n.low, n.high)
        } else {
            (f, f)
        }
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BddManager")
            .field("num_vars", &self.num_vars)
            .field("num_nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_literals() {
        let mut m = BddManager::new(2);
        assert!(m.top().is_true());
        assert!(m.bottom().is_false());
        let a = m.var(0);
        let na = m.nvar(0);
        assert_eq!(m.not(a), na);
        assert_eq!(m.not(na), a);
        assert_eq!(m.and(a, na), m.bottom());
        assert_eq!(m.or(a, na), m.top());
    }

    #[test]
    fn canonical_forms_share_nodes() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        let f2 = m.and(b, a);
        assert_eq!(f1, f2, "conjunction is canonical regardless of operand order");
        let g1 = m.or(a, b);
        let g2 = {
            let na = m.not(a);
            let nb = m.not(b);
            let n = m.and(na, nb);
            m.not(n)
        };
        assert_eq!(g1, g2, "De Morgan duals are identical nodes");
    }

    #[test]
    fn xor_iff_ite() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let x = m.xor(a, b);
        assert_eq!(m.sat_count(x), 2);
        let e = m.iff(a, b);
        assert_eq!(m.sat_count(e), 2);
        let nx = m.not(x);
        assert_eq!(e, nx);
        let i = m.ite(a, b, m.bottom());
        let ab = m.and(a, b);
        assert_eq!(i, ab);
    }

    #[test]
    fn sat_count_examples() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        assert_eq!(m.sat_count(m.top()), 8);
        assert_eq!(m.sat_count(m.bottom()), 0);
        assert_eq!(m.sat_count(a), 4);
        let ab = m.and(a, b);
        assert_eq!(m.sat_count(ab), 2);
        let f = m.or(ab, c);
        assert_eq!(m.sat_count(f), 5);
        assert!((m.sat_count_f64(f) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn quantification() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let ex_b = m.exists(f, 1);
        assert_eq!(ex_b, a);
        let all_b = m.forall(f, 1);
        assert!(all_b.is_false());
        let g = m.or(a, b);
        let all = m.forall_many(g, &[0, 1]);
        assert!(all.is_false());
        let ex = m.exists_many(g, &[0, 1]);
        assert!(ex.is_true());
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = BddManager::new(3);
        let a = m.var(0);
        let c = m.var(2);
        let f = {
            let ac = m.and(a, c);
            let na = m.nvar(0);
            let b = m.var(1);
            let nab = m.and(na, b);
            m.or(ac, nab)
        };
        let f_a1 = m.restrict(f, 0, true);
        assert_eq!(f_a1, c);
        let f_a0 = m.restrict(f, 0, false);
        assert_eq!(f_a0, m.var(1));
    }

    #[test]
    fn eval_and_any_sat() {
        let mut m = BddManager::new(4);
        let lits = [(0, true), (2, false), (3, true)];
        let cube = m.cube_of(&lits);
        assert!(m.eval(cube, &[true, false, false, true]));
        assert!(m.eval(cube, &[true, true, false, true]));
        assert!(!m.eval(cube, &[true, true, true, true]));
        let sat = m.any_sat(cube).unwrap();
        for (v, val) in lits {
            assert!(sat.contains(&(v, val)));
        }
        assert!(m.any_sat(m.bottom()).is_none());
    }

    #[test]
    fn support_and_size() {
        let mut m = BddManager::new(5);
        let a = m.var(0);
        let d = m.var(3);
        let f = m.xor(a, d);
        assert_eq!(m.support(f), vec![0, 3]);
        assert_eq!(m.size(f), 3);
        assert_eq!(m.support(m.top()), Vec::<VarId>::new());
        assert_eq!(m.size(m.top()), 0);
    }

    #[test]
    fn implies_checks_entailment() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let aorb = m.or(a, b);
        assert!(m.implies(ab, a));
        assert!(m.implies(ab, aorb));
        assert!(!m.implies(aorb, ab));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(2);
        m.var(2);
    }

    #[test]
    fn and_or_many_fold() {
        let mut m = BddManager::new(8);
        let all_vars: Vec<Bdd> = (0..8).map(|i| m.var(i)).collect();
        let conj = m.and_many(all_vars.iter().copied());
        assert_eq!(m.sat_count(conj), 1);
        let disj = m.or_many(all_vars.iter().copied());
        assert_eq!(m.sat_count(disj), 255);
    }

    #[test]
    fn terminal_sentinel_is_explicit() {
        let m = BddManager::new(4);
        assert!(m.nodes[0].is_terminal());
        assert!(m.nodes[1].is_terminal());
        assert_eq!(m.var_of(NodeId::FALSE), TERMINAL_VAR);
        assert_eq!(m.var_of(NodeId::TRUE), TERMINAL_VAR);
    }

    #[test]
    #[should_panic(expected = "terminal sentinel")]
    fn num_vars_may_not_collide_with_the_sentinel() {
        let _ = BddManager::new(TERMINAL_VAR as usize);
    }

    #[test]
    fn results_stay_canonical_across_cache_clears() {
        let mut m = BddManager::new(6);
        let vars: Vec<Bdd> = (0..6).map(|i| m.var(i)).collect();
        let mut before = Vec::new();
        for i in 0..5 {
            let x = m.xor(vars[i], vars[i + 1]);
            before.push(m.or(x, vars[0]));
        }
        m.clear_caches();
        // Recomputing after an O(1) cache invalidation must return the very
        // same handles (canonicity lives in the unique table, not the cache).
        for (i, &expected) in before.iter().enumerate() {
            let x = m.xor(vars[i], vars[i + 1]);
            assert_eq!(m.or(x, vars[0]), expected);
        }
        let nodes_after_recompute = m.num_nodes();
        m.clear_caches();
        let a = m.and(vars[2], vars[3]);
        let b = m.and(vars[3], vars[2]);
        assert_eq!(a, b);
        assert_eq!(m.num_nodes(), nodes_after_recompute + 1, "one new conjunction node");
    }

    #[test]
    fn cache_generation_survives_many_clears() {
        let mut m = BddManager::new(2);
        let a = m.var(0);
        let b = m.var(1);
        let expected = m.and(a, b);
        for _ in 0..10_000 {
            m.clear_caches();
        }
        assert_eq!(m.and(a, b), expected);
    }

    #[test]
    fn reserve_prevents_arena_reallocation() {
        let mut m = BddManager::with_capacity(16, 4);
        m.reserve(100_000);
        let start_capacity = m.nodes.capacity();
        let vars: Vec<Bdd> = (0..16).map(|i| m.var(i)).collect();
        let mut acc = m.bottom();
        for chunk in vars.chunks(2) {
            let pair = m.and(chunk[0], chunk[1]);
            acc = m.or(acc, pair);
        }
        assert!(m.num_nodes() > 2);
        assert_eq!(m.nodes.capacity(), start_capacity, "no growth after reserve");
        assert!(!acc.is_false());
    }

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

    /// A random union of cubes over `nv` variables — the shape reachability
    /// frontiers take.
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

    /// Reference quantifier: the old one-variable-at-a-time loop.
    fn exists_loop(m: &mut BddManager, f: Bdd, vars: &[VarId]) -> Bdd {
        let mut acc = f;
        for &v in vars {
            let f0 = m.restrict(acc, v, false);
            let f1 = m.restrict(acc, v, true);
            acc = m.or(f0, f1);
        }
        acc
    }

    #[test]
    fn and_exists_equals_exists_of_and_on_random_cube_sets() {
        for seed in 0..40u64 {
            let mut rng = Rng(seed);
            let nv = 2 + (rng.next() % 7) as u32;
            let mut m = BddManager::new(nv as usize);
            let fc = 1 + (rng.next() % 6) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, fc);
            let gc = 1 + (rng.next() % 6) as usize;
            let g = random_cube_set(&mut m, &mut rng, nv, gc);
            let vars: Vec<VarId> = (0..nv).filter(|_| rng.next() % 2 == 0).collect();
            let fused = m.and_exists(f, g, &vars);
            let fg = m.and(f, g);
            let reference = m.exists_many(fg, &vars);
            assert_eq!(fused, reference, "seed {seed}, vars {vars:?}");
            // Cross-check against the per-variable loop as well.
            assert_eq!(exists_loop(&mut m, fg, &vars), reference, "seed {seed}");
        }
    }

    #[test]
    fn fused_quantifiers_match_the_per_variable_loop() {
        for seed in 100..130u64 {
            let mut rng = Rng(seed);
            let nv = 3 + (rng.next() % 6) as u32;
            let mut m = BddManager::new(nv as usize);
            let fc = 1 + (rng.next() % 8) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, fc);
            let vars: Vec<VarId> = (0..nv).filter(|_| rng.next() % 2 == 0).collect();
            let fused = m.exists_many(f, &vars);
            assert_eq!(fused, exists_loop(&mut m, f, &vars), "seed {seed}");
            // ∀ is the De Morgan dual of ∃.
            let all = m.forall_many(f, &vars);
            let nf = m.not(f);
            let ex_nf = m.exists_many(nf, &vars);
            assert_eq!(all, m.not(ex_nf), "seed {seed}");
        }
    }

    #[test]
    fn quantifier_sets_are_order_and_duplicate_insensitive() {
        let mut m = BddManager::new(5);
        let a = m.var(0);
        let c = m.var(2);
        let e = m.var(4);
        let ac = m.and(a, c);
        let f = m.or(ac, e);
        let sorted = m.exists_many(f, &[0, 2]);
        let shuffled = m.exists_many(f, &[2, 0, 2, 0]);
        assert_eq!(sorted, shuffled);
        let cube1 = m.quant_cube(&[4, 1, 1, 4]);
        let cube2 = m.quant_cube(&[1, 4]);
        assert_eq!(cube1, cube2);
        assert!(m.is_quant_cube(cube1));
        let not_a_cube = m.or(a, c);
        assert!(!m.is_quant_cube(not_a_cube));
        assert!(m.is_quant_cube(m.top()));
        assert!(!m.is_quant_cube(m.bottom()));
    }

    /// A random cube over a random subset of `0..nv`, with its literals.
    fn random_cube(m: &mut BddManager, rng: &mut Rng, nv: u32) -> (Bdd, Vec<(VarId, bool)>) {
        let mut lits = Vec::new();
        for v in 0..nv {
            if rng.next() % 2 == 0 {
                lits.push((v, rng.next() % 2 == 0));
            }
        }
        (m.cube_of(&lits), lits)
    }

    #[test]
    fn restrict_cube_equals_the_quantified_conjunction_on_random_cube_sets() {
        for seed in 200..240u64 {
            let mut rng = Rng(seed);
            let nv = 2 + (rng.next() % 7) as u32;
            let mut m = BddManager::new(nv as usize);
            let fc = 1 + (rng.next() % 6) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, fc);
            let (cube, lits) = random_cube(&mut m, &mut rng, nv);
            let vars: Vec<VarId> = lits.iter().map(|&(v, _)| v).collect();
            let conjoined = m.and(f, cube);
            let oracle = m.exists_many(conjoined, &vars);
            assert_eq!(m.restrict_cube(f, cube), oracle, "seed {seed}, cube {lits:?}");
        }
    }

    #[test]
    fn intersects_and_implies_match_the_built_conjunction_without_allocating() {
        for seed in 300..360u64 {
            let mut rng = Rng(seed);
            let nv = 2 + (rng.next() % 7) as u32;
            let mut m = BddManager::new(nv as usize);
            let fc = 1 + (rng.next() % 6) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, fc);
            let gc = 1 + (rng.next() % 6) as usize;
            let g = random_cube_set(&mut m, &mut rng, nv, gc);
            let fg = m.and(f, g);
            let pairs = [(f, g), (g, f), (f, f), (fg, f), (f, fg), (f, m.top()), (m.bottom(), g)];
            // The oracles build nodes; the tests themselves must not.
            let oracles: Vec<(bool, bool)> = pairs
                .iter()
                .map(|&(a, b)| {
                    let nb = m.not(b);
                    (!m.and(a, b).is_false(), m.and(a, nb).is_false())
                })
                .collect();
            let nodes = m.num_nodes();
            for (&(a, b), &(meets, entails)) in pairs.iter().zip(&oracles) {
                assert_eq!(m.intersects(a, b), meets, "seed {seed}: intersects({a:?}, {b:?})");
                assert_eq!(m.implies(a, b), entails, "seed {seed}: implies({a:?}, {b:?})");
            }
            assert_eq!(m.num_nodes(), nodes, "seed {seed}: a yes/no test allocated nodes");
        }
    }

    #[test]
    fn crossing_masks_match_truth_table_enumeration() {
        for seed in 400..520u64 {
            let mut rng = Rng(seed);
            let nv = 1 + (rng.next() % 8) as u32;
            let mut m = BddManager::new(nv as usize);
            let operand = |m: &mut BddManager, rng: &mut Rng| match rng.next() % 8 {
                0 => m.top(),
                1 => m.bottom(),
                _ => {
                    let cubes = 1 + (rng.next() % 5) as usize;
                    random_cube_set(m, rng, nv, cubes)
                }
            };
            let s = operand(&mut m, &mut rng);
            let a = operand(&mut m, &mut rng);
            // The solver's shape: `b` is `a` at a transition's target.
            let b = if rng.next() % 2 == 0 {
                let (cube, _) = random_cube(&mut m, &mut rng, nv);
                m.restrict_cube(a, cube)
            } else {
                operand(&mut m, &mut rng)
            };
            let mut oracle = 0u8;
            for bits in 0..1u32 << nv {
                let assignment: Vec<bool> = (0..nv).map(|v| bits >> v & 1 == 1).collect();
                if m.eval(s, &assignment) {
                    oracle |= match (m.eval(a, &assignment), m.eval(b, &assignment)) {
                        (true, true) => BddManager::STAYS_IN,
                        (true, false) => BddManager::LEAVES,
                        (false, true) => BddManager::ENTERS,
                        (false, false) => BddManager::STAYS_OUT,
                    };
                }
            }
            let nodes = m.num_nodes();
            assert_eq!(m.crossing(s, a, b), oracle, "seed {seed}");
            // A second call answers from the cache with the same exact mask.
            assert_eq!(m.crossing(s, a, b), oracle, "seed {seed}: cached");
            assert_eq!(m.num_nodes(), nodes, "seed {seed}: crossing allocated nodes");
        }
    }

    #[test]
    fn crossing_on_a_tripped_manager_returns_without_panicking() {
        use crate::budget::Budget;
        let nv = 12;
        let mut m = BddManager::new(nv as usize);
        let mut rng = Rng(11);
        let fs: Vec<Bdd> = (0..3).map(|_| random_cube_set(&mut m, &mut rng, nv, 6)).collect();
        m.set_budget(Budget::new(Some(1), None, None));
        let mut acc = m.bottom();
        for v in 0..nv {
            let x = m.var(v);
            acc = m.xor(acc, x);
        }
        assert!(m.check_budget().is_err() && m.budget_tripped(), "the budget never tripped");
        // Poisoned: no panic, and the placeholder answer.
        assert_eq!(m.crossing(fs[0], fs[1], fs[2]), 0);
        assert_eq!(m.crossing(fs[0], acc, fs[2]), 0);
        // Once the trip is taken the kernel answers exactly again.
        m.take_budget_trip().expect("trip report present");
        assert!(!fs[1].is_true() && !fs[1].is_false());
        let top = m.top();
        assert_eq!(m.crossing(top, fs[1], fs[1]), BddManager::STAYS_IN | BddManager::STAYS_OUT);
    }

    /// Trips `m`'s budget with a one-node ceiling, leaving it poisoned.
    fn poison(m: &mut BddManager, nv: u32) {
        m.set_budget(crate::budget::Budget::new(Some(1), None, None));
        let mut acc = m.bottom();
        for v in 0..nv {
            let x = m.var(v);
            acc = m.xor(acc, x);
        }
        assert!(m.check_budget().is_err() && m.budget_tripped(), "the budget never tripped");
    }

    #[test]
    fn and_not_matches_the_complemented_conjunction_without_interning_the_complement() {
        for seed in 600..680u64 {
            let mut rng = Rng(seed);
            let nv = 1 + (rng.next() % 9) as u32;
            let mut m = BddManager::new(nv as usize);
            let operand = |m: &mut BddManager, rng: &mut Rng| match rng.next() % 6 {
                0 => m.top(),
                1 => m.bottom(),
                _ => {
                    let cubes = 1 + (rng.next() % 6) as usize;
                    random_cube_set(m, rng, nv, cubes)
                }
            };
            let f = operand(&mut m, &mut rng);
            let g = operand(&mut m, &mut rng);
            for (a, b) in [(f, g), (g, f), (f, f)] {
                let nodes = m.num_nodes();
                let fused = m.and_not(a, b);
                let grown = m.num_nodes() - nodes;
                assert!(grown <= m.size(fused), "seed {seed}: interned more than the result");
                let nb = m.not(b);
                assert_eq!(fused, m.and(a, nb), "seed {seed}");
                assert_eq!(m.and_not(a, b), fused, "seed {seed}: cached");
            }
        }
        let mut m = BddManager::new(12);
        let mut rng = Rng(5);
        let (f, g) =
            (random_cube_set(&mut m, &mut rng, 12, 6), random_cube_set(&mut m, &mut rng, 12, 6));
        poison(&mut m, 12);
        assert!(m.and_not(f, g).is_false(), "a poisoned manager answers false");
    }

    /// A random transition branch over `0..nv` as an (enabled, pinned) cube
    /// pair: per variable, untouched, a read arc (enabled only), a set
    /// place (pinned only), a cleared place or a toggle (enabled at one
    /// value, pinned at the other), or pinned at the value it is enabled at.
    fn random_branch(m: &mut BddManager, rng: &mut Rng, nv: u32) -> (Bdd, Bdd, Vec<VarId>) {
        let (mut enabled, mut pinned) = (Vec::new(), Vec::new());
        for v in 0..nv {
            let value = rng.next() % 2 == 0;
            match rng.next() % 5 {
                0 => {}
                1 => enabled.push((v, value)),
                2 => pinned.push((v, value)),
                3 => {
                    enabled.push((v, value));
                    pinned.push((v, !value));
                }
                _ => {
                    enabled.push((v, value));
                    pinned.push((v, value));
                }
            }
        }
        let changed = pinned.iter().map(|&(v, _)| v).collect();
        (m.cube_of(&enabled), m.cube_of(&pinned), changed)
    }

    #[test]
    fn image_cube_matches_the_three_pass_image_on_random_branches() {
        for seed in 700..860u64 {
            let mut rng = Rng(seed);
            let nv = 1 + (rng.next() % 9) as u32;
            let mut m = BddManager::new(nv as usize);
            let f = match rng.next() % 8 {
                0 => m.top(),
                1 => m.bottom(),
                _ => {
                    let cubes = 1 + (rng.next() % 6) as usize;
                    random_cube_set(&mut m, &mut rng, nv, cubes)
                }
            };
            let (enabled, pinned, changed) = match rng.next() % 8 {
                0 => (m.top(), m.top(), Vec::new()),
                1 => {
                    let (enabled, _, _) = random_branch(&mut m, &mut rng, nv);
                    (enabled, m.top(), Vec::new())
                }
                _ => random_branch(&mut m, &mut rng, nv),
            };
            let fired = m.and(f, enabled);
            let quant = m.quant_cube(&changed);
            let moved = m.exists_cube(fired, quant);
            let oracle = m.and(moved, pinned);
            assert_eq!(m.image_cube(f, enabled, pinned), oracle, "seed {seed}");
            assert_eq!(m.image_cube(f, enabled, pinned), oracle, "seed {seed}: cached");
        }
        let mut m = BddManager::new(12);
        let mut rng = Rng(9);
        let f = random_cube_set(&mut m, &mut rng, 12, 6);
        let (enabled, pinned, _) = random_branch(&mut m, &mut rng, 12);
        poison(&mut m, 12);
        assert!(m.image_cube(f, enabled, pinned).is_false(), "a poisoned manager answers false");
    }

    /// The per-variable projection of `f`, by enumerating every assignment.
    fn brute_force_span(m: &BddManager, f: Bdd, nv: u32) -> Vec<u8> {
        let mut span = vec![0u8; nv as usize];
        for bits in 0..1u32 << nv {
            let assignment: Vec<bool> = (0..nv).map(|v| bits >> v & 1 == 1).collect();
            if m.eval(f, &assignment) {
                for (values, &value) in span.iter_mut().zip(&assignment) {
                    *values |= if value { BddManager::SPAN_HIGH } else { BddManager::SPAN_LOW };
                }
            }
        }
        span
    }

    #[test]
    fn value_span_matches_the_brute_force_projection() {
        let (low, high) = (BddManager::SPAN_LOW, BddManager::SPAN_HIGH);
        for seed in 900..1060u64 {
            let mut rng = Rng(seed);
            let nv = 1 + (rng.next() % 8) as u32;
            let mut m = BddManager::new(nv as usize);
            let f = match rng.next() % 8 {
                0 => m.top(),
                1 => m.bottom(),
                // Only the outer levels: everything between is skipped.
                2 => {
                    let (first, last) = (m.literal(0, rng.next() % 2 == 0), m.var(nv - 1));
                    m.xor(first, last)
                }
                _ => {
                    let cubes = 1 + (rng.next() % 6) as usize;
                    random_cube_set(&mut m, &mut rng, nv, cubes)
                }
            };
            let nodes = m.num_nodes();
            assert_eq!(m.value_span(f), brute_force_span(&m, f, nv), "seed {seed}");
            assert_eq!(m.num_nodes(), nodes, "seed {seed}: value_span allocated nodes");
        }
        // Skipped levels take both values, levels above the root too.
        let mut m = BddManager::new(5);
        let (x1, x3) = (m.var(1), m.nvar(3));
        let f = m.and(x1, x3);
        assert_eq!(m.value_span(f), [low | high, high, low | high, low, low | high]);
        assert_eq!(m.value_span(m.top()), [low | high; 5]);
        assert_eq!(m.value_span(m.bottom()), [0; 5]);
    }

    #[test]
    fn an_image_is_empty_whenever_the_span_excludes_an_enabling_literal() {
        let mut excluded = 0;
        for seed in 1100..1400u64 {
            let mut rng = Rng(seed);
            let nv = 1 + (rng.next() % 8) as u32;
            let mut m = BddManager::new(nv as usize);
            let cubes = 1 + (rng.next() % 4) as usize;
            let f = random_cube_set(&mut m, &mut rng, nv, cubes);
            let (enabled, pinned, _) = random_branch(&mut m, &mut rng, nv);
            let span = m.value_span(f);
            let literals = m.any_sat(enabled).expect("a cube is satisfiable");
            let admitted = literals.iter().all(|&(v, value)| {
                let bit = if value { BddManager::SPAN_HIGH } else { BddManager::SPAN_LOW };
                span[v as usize] & bit != 0
            });
            if !admitted {
                excluded += 1;
                assert!(m.image_cube(f, enabled, pinned).is_false(), "seed {seed}");
                assert!(!m.intersects(f, enabled), "seed {seed}");
            }
        }
        assert!(excluded >= 50, "only {excluded} branches were filtered");
    }

    #[test]
    fn step_ceiling_trips_on_non_building_tests_alone() {
        use crate::budget::{Budget, Resource};
        let nv = 16;
        let mut m = BddManager::new(nv as usize);
        let mut rng = Rng(7);
        let fs: Vec<Bdd> = (0..64).map(|_| random_cube_set(&mut m, &mut rng, nv, 6)).collect();
        let (cube, _) = random_cube(&mut m, &mut rng, nv);
        m.set_budget(Budget::new(None, Some(4 * CHECK_INTERVAL), None));
        let nodes = m.num_nodes();
        let mut trip = None;
        'pairs: for &f in &fs {
            for &g in &fs {
                m.intersects(f, g);
                m.implies(f, g);
                if let Err(e) = m.check_budget() {
                    trip = Some(e);
                    break 'pairs;
                }
            }
        }
        let trip = trip.expect("the step ceiling never tripped");
        assert_eq!(trip.resource, Resource::ApplySteps);
        assert_eq!(m.num_nodes(), nodes, "the loop allocated nothing");
        // Poisoned kernels unwind with the placeholder.
        assert!(m.restrict_cube(fs[0], cube).is_false());
        assert!(!m.intersects(fs[0], fs[1]));
    }

    #[test]
    fn and_exists_never_builds_the_conjunction_when_it_can_prune() {
        // f ∧ g is huge, but quantifying everything collapses to a constant;
        // the fused operator must answer without materialising f ∧ g.
        let mut m = BddManager::new(16);
        let f_vars: Vec<Bdd> = (0..16).map(|i| m.var(i)).collect();
        let mut f = m.bottom();
        for pair in f_vars.chunks(2) {
            let x = m.xor(pair[0], pair[1]);
            f = m.or(f, x);
        }
        let g = m.top();
        let all: Vec<VarId> = (0..16).collect();
        let r = m.and_exists(f, g, &all);
        assert!(r.is_true());
    }

    #[test]
    fn unprime_shifts_odd_variables_down() {
        let mut m = BddManager::new(8);
        // f over the odd (next-state) variables 1, 3, 5.
        let x1 = m.var(1);
        let x3 = m.var(3);
        let x5 = m.var(5);
        let x13 = m.and(x1, x3);
        let f = m.or(x13, x5);
        let g = m.unprime(f);
        let e0 = m.var(0);
        let e2 = m.var(2);
        let e4 = m.var(4);
        let e02 = m.and(e0, e2);
        let expected = m.or(e02, e4);
        assert_eq!(g, expected);
        // Mixed support is fine as long as no even/odd pair collides.
        let e6 = m.var(6);
        let mixed = m.and(f, e6);
        let unprimed = m.unprime(mixed);
        let expected_mixed = m.and(expected, e6);
        assert_eq!(unprimed, expected_mixed);
        // Even-only functions are fixed points.
        assert_eq!(m.unprime(expected), expected);
    }

    #[test]
    #[should_panic(expected = "both variables of the pair")]
    fn unprime_rejects_colliding_variable_pairs() {
        let mut m = BddManager::new(4);
        let x0 = m.var(0);
        let x1 = m.var(1);
        let bad = m.and(x0, x1);
        let _ = m.unprime(bad);
    }

    #[test]
    fn prime_shifts_even_variables_up_and_inverts_unprime() {
        let mut m = BddManager::new(8);
        let e0 = m.var(0);
        let e2 = m.var(2);
        let e4 = m.var(4);
        let e02 = m.and(e0, e2);
        let f = m.or(e02, e4);
        let primed = m.prime(f);
        let x1 = m.var(1);
        let x3 = m.var(3);
        let x5 = m.var(5);
        let x13 = m.and(x1, x3);
        let expected = m.or(x13, x5);
        assert_eq!(primed, expected);
        assert_eq!(m.unprime(primed), f, "unprime ∘ prime is the identity");
        // Odd-only functions are fixed points; mixed support is fine as long
        // as no even/odd pair collides.
        assert_eq!(m.prime(expected), expected);
        let mixed = m.and(f, x5);
        // f depends on var 4, x5 on var 5 — the pair (4, 5) collides.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m2 = BddManager::new(8);
            let e4 = m2.var(4);
            let x5 = m2.var(5);
            let bad = m2.and(e4, x5);
            m2.prime(bad)
        }));
        assert!(result.is_err(), "colliding pair must panic");
        let _ = mixed;
    }

    #[test]
    #[should_panic(expected = "no odd successor")]
    fn prime_rejects_the_last_variable() {
        // In a 3-variable manager the even variable 2 has no odd partner.
        let mut m = BddManager::new(3);
        let top_even = m.var(2);
        let _ = m.prime(top_even);
    }

    #[test]
    fn stats_report_nodes_and_cache_traffic() {
        let mut m = BddManager::new(6);
        let before = m.stats();
        assert_eq!(before.num_nodes, before.peak_nodes);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let _ = m.and(a, b); // exercises the cache
        let after = m.stats();
        assert!(after.num_nodes > before.num_nodes);
        assert_eq!(after.num_nodes, after.peak_nodes);
        assert!(after.cache_hits > 0, "repeat conjunction must hit the cache");
        assert!(after.cache_misses > 0);
        assert!(after.unique_entries >= 3);
        assert!(!ab.is_false());
    }

    #[test]
    fn sat_count_memo_survives_and_stays_correct_across_growth() {
        let mut m = BddManager::new(10);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        assert_eq!(m.sat_count(ab), 256);
        // Grow the DAG, then count a superset function: persisted per-node
        // fractions must compose correctly with the new nodes.
        let c = m.var(2);
        let f = m.or(ab, c);
        assert_eq!(m.sat_count(f), 256 + 512 - 128);
        assert!((m.sat_count_f64(f) - m.sat_count(f) as f64).abs() < 1e-6);
        m.clear_caches();
        assert_eq!(m.sat_count(f), 640, "counts unchanged after cache clear");
    }

    #[test]
    fn unique_table_grows_past_initial_capacity() {
        // Force many distinct nodes through a tiny initial table.
        let mut m = BddManager::with_capacity(24, 4);
        let vars: Vec<Bdd> = (0..24).map(|i| m.var(i)).collect();
        let mut fns = Vec::new();
        for i in 0..24 {
            for j in (i + 1)..24 {
                fns.push(m.xor(vars[i], vars[j]));
            }
        }
        // Re-deriving every function must return identical handles even
        // after multiple table growths.
        for (k, &expected) in fns.iter().enumerate() {
            let mut idx = 0;
            'outer: for i in 0..24 {
                for j in (i + 1)..24 {
                    if idx == k {
                        assert_eq!(m.xor(vars[i], vars[j]), expected);
                        break 'outer;
                    }
                    idx += 1;
                }
            }
        }
        assert!(m.num_nodes() > 24 * 3);
    }

    #[test]
    fn node_budget_trips_and_poisons_until_taken() {
        use crate::budget::{Budget, Resource};
        let mut m = BddManager::new(64);
        let budget = Budget::new(Some(256), None, None);
        budget.set_stage("test-stage");
        m.set_budget(budget.clone());
        // Build XOR chains until the node ceiling trips (XOR of distinct
        // variables shares nothing, so the arena grows steadily).
        let mut acc = m.bottom();
        for round in 0..10_000u64 {
            let v = m.var((round % 64) as VarId);
            acc = m.xor(acc, v);
            if m.check_budget().is_err() {
                break;
            }
        }
        assert!(m.budget_tripped(), "256-node ceiling never tripped");
        // While poisoned, operations return placeholders without panicking.
        let a = m.var(0);
        let b = m.var(1);
        let _ = m.and(a, b);
        let trip = m.take_budget_trip().expect("trip report present");
        assert_eq!(trip.resource, Resource::Nodes);
        assert_eq!(trip.stage, "test-stage");
        assert!(trip.spent > trip.limit);
        // After taking the trip the manager computes correctly again (the
        // budget itself stays exceeded, but no new check has run yet).
        assert!(!m.budget_tripped());
        let ab = m.and(a, b);
        assert!(m.implies(ab, a) && m.implies(ab, b));
    }

    #[test]
    fn cancellation_is_observed_at_check_points() {
        use crate::budget::{Budget, Resource};
        let mut m = BddManager::new(8);
        let budget = Budget::unlimited();
        m.set_budget(budget.clone());
        budget.cancel();
        let err = m.check_budget().expect_err("cancelled budget must trip");
        assert_eq!(err.resource, Resource::Cancelled);
    }
}
