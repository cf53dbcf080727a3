//! Shared resource budgets for cooperative interruption.
//!
//! Symbolic algorithms have no natural upper bound: an adversarial STG or a
//! bad variable order can blow the BDD arena to millions of nodes or keep a
//! fixpoint iterating long past any useful deadline.  A [`Budget`] is a
//! cheaply clonable handle (an `Arc` over atomics) that every stage of a
//! synthesis flow shares: it carries optional ceilings for allocated BDD
//! nodes and memoised apply steps, an optional wall-clock deadline, and a
//! cooperative cancel flag.
//!
//! Checks are designed to be cheap enough for the hottest loops: the
//! [`BddManager`](crate::BddManager) batches its node/step counters locally
//! and only flushes them into the shared atomics (and samples the clock)
//! every [`CHECK_INTERVAL`] allocations, so a deadline is honoured within
//! one check interval rather than exactly.
//!
//! When a ceiling is hit the violation is reported as a typed
//! [`BudgetExceeded`] value naming the stage, the [`Resource`] that ran out,
//! and how much was spent — callers surface it as an error variant instead
//! of panicking or running away.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many node allocations / apply steps a manager accumulates locally
/// before flushing into the shared counters and re-evaluating the limits.
///
/// This is the granularity at which deadlines and ceilings are enforced:
/// a budget trip is detected within one interval of the true crossing.
pub const CHECK_INTERVAL: u64 = 1024;

/// The resource dimension that ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The ceiling on live BDD nodes allocated across the flow.
    Nodes,
    /// The ceiling on apply steps (a proxy for CPU work): every node
    /// construction, plus every uncached recursion of the kernels that may
    /// answer without allocating (`restrict_cube`, `intersects`,
    /// `implies`), so a search that mostly tests regions still pays for
    /// its work.
    ApplySteps,
    /// The wall-clock deadline.
    WallClock,
    /// The cooperative cancel flag was raised by the caller.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Nodes => write!(f, "BDD nodes"),
            Resource::ApplySteps => write!(f, "apply steps"),
            Resource::WallClock => write!(f, "wall clock"),
            Resource::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A typed report that a stage ran out of a budgeted resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The flow stage that was executing when the budget tripped
    /// (e.g. `"reachability"`, `"candidate-search"`, `"isop"`).
    pub stage: String,
    /// Which resource ran out.
    pub resource: Resource,
    /// How much of the resource had been spent when the trip was detected
    /// (nodes, steps, or elapsed milliseconds depending on `resource`).
    pub spent: u64,
    /// The configured ceiling (nodes, steps, or the deadline in
    /// milliseconds); zero for a cooperative cancellation.
    pub limit: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Nodes => write!(
                f,
                "budget exceeded in {}: {} nodes allocated (limit {})",
                self.stage, self.spent, self.limit
            ),
            Resource::ApplySteps => write!(
                f,
                "budget exceeded in {}: {} apply steps (limit {})",
                self.stage, self.spent, self.limit
            ),
            Resource::WallClock => write!(
                f,
                "budget exceeded in {}: {} ms elapsed (deadline {} ms)",
                self.stage, self.spent, self.limit
            ),
            Resource::Cancelled => write!(f, "cancelled during {}", self.stage),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[derive(Debug)]
struct Inner {
    node_limit: Option<u64>,
    step_limit: Option<u64>,
    start: Instant,
    deadline: Option<Instant>,
    cancel: AtomicBool,
    nodes: AtomicU64,
    steps: AtomicU64,
    /// The flow stage currently charging this budget; used to label trips.
    stage: Mutex<&'static str>,
}

/// A shared, cheaply clonable resource budget.
///
/// All clones observe the same counters, deadline and cancel flag, so the
/// ceilings govern the whole job even when it spans several
/// [`BddManager`](crate::BddManager)s (the symbolic CSC solver rebuilds the
/// state space once per inserted signal, each time with a fresh manager).
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Budget {
    /// Creates a budget with the given optional ceilings.  `None` means the
    /// corresponding dimension is unlimited; the cancel flag is always
    /// available.  The wall clock starts running immediately.
    pub fn new(
        node_limit: Option<u64>,
        step_limit: Option<u64>,
        timeout: Option<Duration>,
    ) -> Self {
        let start = Instant::now();
        Budget {
            inner: Arc::new(Inner {
                node_limit,
                step_limit,
                start,
                deadline: timeout.map(|t| start + t),
                cancel: AtomicBool::new(false),
                nodes: AtomicU64::new(0),
                steps: AtomicU64::new(0),
                stage: Mutex::new("flow"),
            }),
        }
    }

    /// A budget with no limits at all — useful as a default that still
    /// supports cooperative cancellation.
    pub fn unlimited() -> Self {
        Budget::new(None, None, None)
    }

    /// Raises the cooperative cancel flag; the next check in any stage
    /// sharing this budget reports [`Resource::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the cancel flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    /// Labels subsequent budget trips with `stage`.  Stages are `'static`
    /// names of flow phases, e.g. `"reachability"`.
    pub fn set_stage(&self, stage: &'static str) {
        *self.inner.stage.lock().expect("budget stage lock poisoned") = stage;
    }

    /// The stage label budget trips currently carry.
    pub fn stage(&self) -> &'static str {
        *self.inner.stage.lock().expect("budget stage lock poisoned")
    }

    /// Total BDD nodes charged so far across all sharers.
    pub fn nodes_spent(&self) -> u64 {
        self.inner.nodes.load(Ordering::Relaxed)
    }

    /// Total apply steps charged so far across all sharers.
    pub fn steps_spent(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Milliseconds elapsed since the budget was created.
    pub fn elapsed_ms(&self) -> u64 {
        self.inner.start.elapsed().as_millis() as u64
    }

    /// The configured node ceiling, if any.
    pub fn node_limit(&self) -> Option<u64> {
        self.inner.node_limit
    }

    /// The configured apply-step ceiling, if any.
    pub fn step_limit(&self) -> Option<u64> {
        self.inner.step_limit
    }

    /// The configured deadline as milliseconds from budget creation, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(self.inner.start).as_millis() as u64)
    }

    /// Charges `nodes` node allocations and `steps` apply steps to the
    /// shared counters, then evaluates every limit (including the deadline —
    /// this call samples the clock, so batch charges through
    /// [`CHECK_INTERVAL`]-sized windows in hot loops).
    ///
    /// Returns a typed [`BudgetExceeded`] if any ceiling is now crossed.
    pub fn charge(&self, nodes: u64, steps: u64) -> Result<(), BudgetExceeded> {
        let inner = &self.inner;
        let total_nodes = inner.nodes.fetch_add(nodes, Ordering::Relaxed) + nodes;
        let total_steps = inner.steps.fetch_add(steps, Ordering::Relaxed) + steps;
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(self.exceeded(Resource::Cancelled, 0, 0));
        }
        if let Some(limit) = inner.node_limit {
            if total_nodes > limit {
                return Err(self.exceeded(Resource::Nodes, total_nodes, limit));
            }
        }
        if let Some(limit) = inner.step_limit {
            if total_steps > limit {
                return Err(self.exceeded(Resource::ApplySteps, total_steps, limit));
            }
        }
        if let Some(deadline) = inner.deadline {
            let now = Instant::now();
            if now >= deadline {
                let spent = now.duration_since(inner.start).as_millis() as u64;
                let limit = deadline.saturating_duration_since(inner.start).as_millis() as u64;
                return Err(self.exceeded(Resource::WallClock, spent, limit));
            }
        }
        Ok(())
    }

    /// Evaluates the limits without charging anything — the cheap check for
    /// per-iteration loop headers (reachability images, candidate search).
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        self.charge(0, 0)
    }

    /// Evaluates only the wall-clock deadline and the cancellation flag.
    ///
    /// Engines that allocate no BDD nodes (the explicit state-graph
    /// pipeline) call this instead of [`Budget::check`]: when a flow
    /// degrades onto the explicit rung *because* the node ceiling tripped,
    /// the shared node counter is already over the limit, and re-checking
    /// it there would abort work the ceiling was never meant to govern.
    pub fn check_deadline(&self) -> Result<(), BudgetExceeded> {
        let inner = &self.inner;
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(self.exceeded(Resource::Cancelled, 0, 0));
        }
        if let Some(deadline) = inner.deadline {
            let now = Instant::now();
            if now >= deadline {
                let spent = now.duration_since(inner.start).as_millis() as u64;
                let limit = deadline.saturating_duration_since(inner.start).as_millis() as u64;
                return Err(self.exceeded(Resource::WallClock, spent, limit));
            }
        }
        Ok(())
    }

    fn exceeded(&self, resource: Resource, spent: u64, limit: u64) -> BudgetExceeded {
        BudgetExceeded { stage: self.stage().to_string(), resource, spent, limit }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..100 {
            b.charge(1_000_000, 1_000_000).expect("unlimited budget tripped");
        }
    }

    #[test]
    fn node_ceiling_trips_with_stage_label() {
        let b = Budget::new(Some(10), None, None);
        b.set_stage("reachability");
        b.charge(8, 0).expect("under the ceiling");
        let err = b.charge(8, 0).expect_err("over the ceiling");
        assert_eq!(err.resource, Resource::Nodes);
        assert_eq!(err.stage, "reachability");
        assert_eq!(err.spent, 16);
        assert_eq!(err.limit, 10);
    }

    #[test]
    fn step_ceiling_trips() {
        let b = Budget::new(None, Some(5), None);
        let err = b.charge(0, 6).expect_err("over the step ceiling");
        assert_eq!(err.resource, Resource::ApplySteps);
    }

    #[test]
    fn deadline_trips_after_elapsing() {
        let b = Budget::new(None, None, Some(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        let err = b.check().expect_err("deadline passed");
        assert_eq!(err.resource, Resource::WallClock);
        assert!(err.spent >= err.limit);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let b = Budget::unlimited();
        let clone = b.clone();
        clone.cancel();
        let err = b.check().expect_err("cancelled");
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn counters_are_shared_across_clones() {
        let b = Budget::new(Some(100), None, None);
        let clone = b.clone();
        b.charge(60, 0).expect("first sharer under the ceiling");
        let err = clone.charge(60, 0).expect_err("combined charge over the ceiling");
        assert_eq!(err.resource, Resource::Nodes);
        assert_eq!(b.nodes_spent(), 120);
    }
}
