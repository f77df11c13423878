//! The CDCL solver.
//!
//! A conventional MiniSat-style architecture: two-watched-literal unit
//! propagation, VSIDS decision heuristic with an indexed binary heap,
//! first-UIP conflict analysis with local clause minimization, phase
//! saving, Luby restarts and activity-driven learnt-clause garbage
//! collection. Incremental use is supported through solving under
//! assumptions; the clause database persists across calls.
//!
//! Concurrent callers can bound and interrupt a search cooperatively:
//! besides the per-call conflict budget, a solver can carry a wall-clock
//! [`Solver::set_deadline`], a shared [`Solver::set_interrupt`] flag, and
//! a [`Solver::set_shared_conflict_pool`] drawn from by every solver that
//! holds it — the primitives behind `qxmap-core`'s parallel per-subset
//! solves and `qxmap-map`'s racing portfolio. All three are checked at
//! conflict granularity and surface as [`SolveResult::Unknown`].

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::lit::{Lit, Var};

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f64 = 0.999;
const RESTART_BASE: u64 = 100;

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveResult {
    /// Satisfiable, with a full model.
    Sat(Model),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

impl SolveResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

/// A complete satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Truth value of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal's variable is unknown to the model.
    pub fn value(&self, lit: Lit) -> bool {
        self.values[lit.var().index()] == lit.is_positive()
    }

    /// Truth value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown to the model.
    pub fn var_value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Why the most recent [`Solver::solve`] call came back
/// [`SolveResult::Unknown`] — the observability counter behind
/// per-minimization-step traces, distinguishing a cooperative cancel
/// from an expired wall-clock deadline from an exhausted conflict
/// budget (per-call or shared pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The cooperative interrupt flag fired ([`Solver::set_interrupt`]).
    Interrupt,
    /// The wall-clock deadline passed ([`Solver::set_deadline`]).
    Deadline,
    /// The per-call budget ([`Solver::set_conflict_budget`]) or the
    /// shared pool ([`Solver::set_shared_conflict_pool`]) ran out.
    ConflictBudget,
}

impl StopCause {
    /// Stable label for metrics and trace counters.
    pub fn label(&self) -> &'static str {
        match self {
            StopCause::Interrupt => "interrupt",
            StopCause::Deadline => "deadline",
            StopCause::ConflictBudget => "conflict_budget",
        }
    }
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnts: usize,
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} conflicts, {} decisions, {} propagations, {} restarts, {} learnts",
            self.conflicts, self.decisions, self.propagations, self.restarts, self.learnts
        )
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// Binary max-heap over variables keyed by activity, with position index.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<i32>, // -1 when absent
}

impl VarOrder {
    fn contains(&self, v: u32) -> bool {
        (v as usize) < self.pos.len() && self.pos[v as usize] >= 0
    }

    fn push(&mut self, v: u32, act: &[f64]) {
        while self.pos.len() <= v as usize {
            self.pos.push(-1);
        }
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn update(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            let i = self.pos[v as usize] as usize;
            self.sift_up(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] > act[self.heap[parent] as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as i32;
        self.pos[self.heap[b] as usize] = b as i32;
    }
}

/// A CDCL SAT solver.
///
/// ```
/// use qxmap_sat::{SolveResult, Solver};
/// let mut s = Solver::new();
/// let a = s.new_lit();
/// let b = s.new_lit();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// match s.solve() {
///     SolveResult::Sat(model) => assert!(model.value(b)),
///     _ => unreachable!(),
/// }
/// // Incremental: the same instance under an assumption forcing ¬b.
/// assert_eq!(s.solve_with_assumptions(&[!b]), SolveResult::Unsat);
/// // ... which does not poison the solver.
/// assert!(s.solve().is_sat());
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    num_vars: u32,
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    saved_phase: Vec<bool>,
    cla_inc: f64,
    ok: bool,
    seen: Vec<bool>,
    stats: SolverStats,
    num_learnts: usize,
    num_problem: usize,
    max_learnts: f64,
    conflict_budget: Option<u64>,
    shared_conflict_pool: Option<Arc<AtomicU64>>,
    interrupt: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
    last_stop: Option<StopCause>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnts: 3000.0,
            ..Solver::default()
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.order.push(v.0, &self.activity);
        v
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Number of problem (non-learnt) clauses stored; units and clauses
    /// already satisfied at the root are not stored. Problem clauses are
    /// never deleted, so this only grows.
    pub fn num_clauses(&self) -> usize {
        self.num_problem
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.num_learnts;
        s
    }

    /// Caps the number of conflicts per [`Solver::solve`] call; `None`
    /// removes the cap. When exhausted, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Attaches a conflict pool shared with other solvers (typically one
    /// per worker thread): every conflict consumes one unit, and a solver
    /// that finds the pool empty returns [`SolveResult::Unknown`]. Unlike
    /// [`Solver::set_conflict_budget`] this makes a *total* budget strict
    /// across concurrent searches.
    pub fn set_shared_conflict_pool(&mut self, pool: Option<Arc<AtomicU64>>) {
        self.shared_conflict_pool = pool;
    }

    /// Attaches a cooperative interrupt flag. Once another thread stores
    /// `true`, the next conflict (or the next `solve` entry) returns
    /// [`SolveResult::Unknown`]. The flag is never cleared by the solver.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Sets a wall-clock deadline; a search past it returns
    /// [`SolveResult::Unknown`] at the next conflict.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Whether an attached interrupt flag, an expired deadline, or an
    /// exhausted shared conflict pool asks work on this solver to stop.
    /// This is the same check `solve` performs at every conflict, exposed
    /// so that *encoding* work against this solver (e.g.
    /// [`crate::totalizer::Totalizer::encode_interruptible`]) can wind
    /// down under the same budgets as the search itself.
    pub fn stop_requested(&self) -> bool {
        self.interrupted()
    }

    /// Why the most recent `solve` call returned
    /// [`SolveResult::Unknown`], or `None` if it produced a verdict (or
    /// no call ran yet). Refreshed at every `solve` entry.
    pub fn last_stop_cause(&self) -> Option<StopCause> {
        self.last_stop
    }

    /// Whether an attached interrupt flag, deadline, or exhausted shared
    /// pool asks this search to stop (does not consume from the pool).
    fn interrupted(&self) -> bool {
        self.stop_cause_now().is_some()
    }

    /// Which stop condition currently holds, if any — the interrupt flag
    /// is reported over the deadline over the shared pool, matching how
    /// promptly each acts on the search.
    fn stop_cause_now(&self) -> Option<StopCause> {
        if self
            .interrupt
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            return Some(StopCause::Interrupt);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopCause::Deadline);
        }
        if self
            .shared_conflict_pool
            .as_ref()
            .is_some_and(|p| p.load(Ordering::Relaxed) == 0)
        {
            return Some(StopCause::ConflictBudget);
        }
        None
    }

    /// Consumes one conflict from the shared pool; `false` if the pool is
    /// already empty.
    fn consume_shared_conflict(&self) -> bool {
        match &self.shared_conflict_pool {
            None => true,
            Some(pool) => pool
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                .is_ok(),
        }
    }

    /// Adds a clause (an iterator of literals).
    ///
    /// Returns `false` if the solver is already in an unsatisfiable state
    /// at the root level (adding to it is then a no-op).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was never created.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at root");
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        for l in &lits {
            assert!(l.var().0 < self.num_vars, "unknown variable {}", l.var());
        }
        lits.sort_unstable();
        lits.dedup();
        // Tautology or satisfied-at-root?
        let mut write = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: l and ¬l adjacent after sort
            }
            match self.lit_value(l) {
                Some(true) => return true,
                Some(false) => {}
                None => {
                    lits[write] = l;
                    write += 1;
                }
            }
        }
        lits.truncate(write);
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(lits, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.watches[(!lits[0]).code()].push(Watcher {
            clause: idx,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            clause: idx,
            blocker: lits[0],
        });
        self.clauses.push(Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        if learnt {
            self.num_learnts += 1;
        } else {
            self.num_problem += 1;
        }
        idx
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|v| v == l.is_positive())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.lit_value(l), None);
        let v = l.var().index();
        self.assign[v] = Some(l.is_positive());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                i += 1;
                // Fast path: blocker already true.
                if self.lit_value(w.blocker) == Some(true) {
                    watchers[kept] = w;
                    kept += 1;
                    continue;
                }
                let ci = w.clause as usize;
                if self.clauses[ci].deleted {
                    continue; // drop watcher
                }
                // Normalize: the false literal (== !p) at position 1.
                if self.clauses[ci].lits[0] == !p {
                    self.clauses[ci].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci].lits[1], !p);
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    watchers[kept] = Watcher {
                        clause: w.clause,
                        blocker: first,
                    };
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let lk = self.clauses[ci].lits[k];
                    if self.lit_value(lk) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = self.clauses[ci].lits[1];
                        self.watches[(!new_watch).code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                watchers[kept] = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                kept += 1;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(w.clause);
                    self.qhead = self.trail.len();
                    // Keep the remaining watchers.
                    while i < watchers.len() {
                        watchers[kept] = watchers[i];
                        kept += 1;
                        i += 1;
                    }
                    break;
                }
                self.unchecked_enqueue(first, Some(w.clause));
            }
            watchers.truncate(kept);
            self.watches[p.code()] = watchers;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v as u32, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        let c = &mut self.clauses[ci];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<usize> = Vec::new();

        loop {
            self.bump_clause(confl as usize);
            let lits = self.clauses[confl as usize].lits.clone();
            let skip_first = p.is_some();
            for (pos, &q) in lits.iter().enumerate() {
                if skip_first && pos == 0 {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal on the trail that is marked.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            self.seen[pl.var().index()] = false;
            confl = self.reason[pl.var().index()].expect("non-decision has a reason");
        }

        // Local clause minimization: drop literals implied by the rest.
        let mut minimized: Vec<Lit> = vec![learnt[0]];
        'lits: for &q in &learnt[1..] {
            let v = q.var().index();
            match self.reason[v] {
                None => minimized.push(q), // decision: keep
                Some(r) => {
                    for &x in &self.clauses[r as usize].lits {
                        let xv = x.var().index();
                        if xv != v && !self.seen[xv] && self.level[xv] > 0 {
                            minimized.push(q);
                            continue 'lits;
                        }
                    }
                    // all antecedents already in the clause (or level 0): drop
                }
            }
        }
        let mut learnt = minimized;

        // Backjump level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        for v in to_clear {
            self.seen[v] = false;
        }
        (learnt, bt)
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.saved_phase[v] = l.is_positive();
            self.assign[v] = None;
            self.reason[v] = None;
            self.order.push(v as u32, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v as usize].is_none() {
                return Some(Var(v));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Collect learnt clause indices sorted by activity ascending.
        let mut learnts: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && c.lits.len() > 2 && !self.is_locked(i)
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .expect("activities are finite")
        });
        for &i in learnts.iter().take(learnts.len() / 2) {
            self.clauses[i].deleted = true;
            self.num_learnts -= 1;
        }
    }

    fn is_locked(&self, ci: usize) -> bool {
        let first = self.clauses[ci].lits[0];
        self.lit_value(first) == Some(true) && self.reason[first.var().index()] == Some(ci as u32)
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumptions: the formula is checked for
    /// satisfiability with every assumption literal forced true. The
    /// clause database (including learnt clauses) persists across calls.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.last_stop = None;
        if !self.ok {
            return SolveResult::Unsat;
        }
        if let Some(cause) = self.stop_cause_now() {
            self.last_stop = Some(cause);
            return SolveResult::Unknown;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let budget_start = self.stats.conflicts;
        let mut restart_idx = 0u64;
        let mut conflicts_until_restart = luby(restart_idx) * RESTART_BASE;
        let mut conflicts_this_restart = 0u64;

        let result = loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.backtrack_to(bt);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.unchecked_enqueue(asserting, None);
                } else {
                    let ci = self.attach_clause(learnt, true);
                    self.unchecked_enqueue(asserting, Some(ci));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLAUSE_DECAY;
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        self.last_stop = Some(StopCause::ConflictBudget);
                        break SolveResult::Unknown;
                    }
                }
                if !self.consume_shared_conflict() {
                    self.last_stop = Some(StopCause::ConflictBudget);
                    break SolveResult::Unknown;
                }
                if let Some(cause) = self.stop_cause_now() {
                    self.last_stop = Some(cause);
                    break SolveResult::Unknown;
                }
                if self.num_learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.5;
                }
            } else {
                if conflicts_this_restart >= conflicts_until_restart
                    && self.decision_level() > assumptions.len() as u32
                {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = luby(restart_idx) * RESTART_BASE;
                    conflicts_this_restart = 0;
                    self.backtrack_to(assumptions.len() as u32);
                }
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    // Establish the next assumption as a pseudo-decision.
                    let p = assumptions[dl];
                    assert!(p.var().0 < self.num_vars, "unknown assumption variable");
                    match self.lit_value(p) {
                        Some(true) => {
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            break SolveResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                } else if let Some(v) = self.pick_branch_var() {
                    self.stats.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let phase = self.saved_phase[v.index()];
                    let lit = if phase { v.positive() } else { v.negative() };
                    self.unchecked_enqueue(lit, None);
                } else {
                    // All variables assigned: SAT.
                    let values = self.assign.iter().map(|a| a.unwrap_or(false)).collect();
                    break SolveResult::Sat(Model { values });
                }
            }
        };
        self.backtrack_to(0);
        result
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, … (0-based index).
fn luby(i: u64) -> u64 {
    let mut x = i + 1; // 1-based position
    loop {
        let bits = 64 - u64::leading_zeros(x) as u64; // 2^(bits-1) ≤ x < 2^bits
        if x == (1u64 << bits) - 1 {
            return 1u64 << (bits - 1);
        }
        x = x - (1u64 << (bits - 1)) + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    #[test]
    fn stop_cause_names_the_budget() {
        let mut s = pigeonhole(8);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop_cause(), Some(StopCause::ConflictBudget));
        // Lifting the budget clears the cause along with the verdict.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.last_stop_cause(), None);
    }

    #[test]
    fn stop_cause_names_the_interrupt_and_deadline() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop_cause(), Some(StopCause::Interrupt));
        assert_eq!(s.last_stop_cause().unwrap().label(), "interrupt");
        flag.store(false, Ordering::Relaxed);
        s.set_deadline(Some(Instant::now()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_stop_cause(), Some(StopCause::Deadline));
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        let m = match s.solve() {
            SolveResult::Sat(m) => m,
            other => panic!("expected sat, got {other:?}"),
        };
        assert!(m.value(a));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        assert!(!s.add_clause([!a]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        s.add_clause([v[0]]);
        for w in v.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        let m = s.solve().model().cloned().expect("sat");
        for l in v {
            assert!(m.value(l));
        }
    }

    #[test]
    fn example4_of_paper() {
        // Φ = (x1 + x2 + ¬x3)(¬x1 + x3)(¬x2 + x3): satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], !v[2]]);
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[1], v[2]]);
        let m = s.solve().model().cloned().expect("sat");
        // Verify the model satisfies the formula.
        assert!(m.value(v[0]) || m.value(v[1]) || !m.value(v[2]));
        assert!(!m.value(v[0]) || m.value(v[2]));
        assert!(!m.value(v[1]) || m.value(v[2]));
    }

    /// Pigeonhole principle PHP(h+1, h): unsatisfiable, requires real search.
    fn pigeonhole(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let var: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_lit()).collect())
            .collect();
        for row in &var {
            s.add_clause(row.clone());
        }
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                for (&a, &b) in var[p1].iter().zip(&var[p2]) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=5 {
            let mut s = pigeonhole(holes);
            assert_eq!(s.solve(), SolveResult::Unsat, "PHP({holes})");
            assert!(s.stats().conflicts > 0);
        }
    }

    #[test]
    fn assumptions_do_not_poison_solver() {
        let mut s = Solver::new();
        let a = s.new_lit();
        let b = s.new_lit();
        s.add_clause([a, b]);
        assert_eq!(s.solve_with_assumptions(&[!a, !b]), SolveResult::Unsat);
        let m = s.solve_with_assumptions(&[!a]).model().cloned().unwrap();
        assert!(m.value(b));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_of_fixed_lit() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        assert!(s.solve_with_assumptions(&[a]).is_sat());
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        let mut s = pigeonhole(7);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn shared_pool_is_a_strict_total_budget() {
        let pool = Arc::new(AtomicU64::new(5));
        let mut a = pigeonhole(7);
        let mut b = pigeonhole(7);
        a.set_shared_conflict_pool(Some(pool.clone()));
        b.set_shared_conflict_pool(Some(pool.clone()));
        assert_eq!(a.solve(), SolveResult::Unknown);
        // The first solver drained the pool; the second cannot even start.
        assert_eq!(pool.load(Ordering::Relaxed), 0);
        assert_eq!(b.solve(), SolveResult::Unknown);
        // Detaching the pool restores unbounded search.
        b.set_shared_conflict_pool(None);
        assert_eq!(b.solve(), SolveResult::Unsat);
    }

    #[test]
    fn interrupt_flag_stops_before_and_during_search() {
        let flag = Arc::new(AtomicBool::new(true));
        let mut s = pigeonhole(7);
        s.set_interrupt(Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        flag.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn expired_deadline_returns_unknown() {
        let mut s = pigeonhole(7);
        s.set_deadline(Some(Instant::now()));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_deadline(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_handled() {
        let mut s = Solver::new();
        let a = s.new_lit();
        let b = s.new_lit();
        s.add_clause([a, !a, b]); // tautology: ignored
        s.add_clause([b, b, b]); // collapses to unit
        let m = s.solve().model().cloned().unwrap();
        assert!(m.value(b));
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = pigeonhole(4);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert!(st.to_string().contains("conflicts"));
    }

    #[test]
    fn many_vars_stress_random_3sat_sat_instances() {
        // Deterministic LCG-generated planted-solution instances.
        let mut seed = 0xdeadbeefu64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for _ in 0..10 {
            let n = 40;
            let mut s = Solver::new();
            let vars: Vec<Lit> = (0..n).map(|_| s.new_lit()).collect();
            let planted: Vec<bool> = (0..n).map(|_| rnd() % 2 == 0).collect();
            for _ in 0..160 {
                // Build a clause satisfied by the planted assignment.
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let v = rnd() % n;
                    let pol = rnd() % 2 == 0;
                    clause.push(if pol { vars[v] } else { !vars[v] });
                }
                let sat_by_planted = clause
                    .iter()
                    .any(|l| planted[l.var().index()] == l.is_positive());
                if !sat_by_planted {
                    // Flip one literal to satisfy it.
                    let l = clause[0];
                    clause[0] = if planted[l.var().index()] {
                        l.var().positive()
                    } else {
                        l.var().negative()
                    };
                }
                s.add_clause(clause);
            }
            let m = s.solve().model().cloned().expect("planted instance is sat");
            assert_eq!(m.len(), n);
        }
    }
}
