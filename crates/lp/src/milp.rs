//! Branch-and-bound mixed-integer linear programming over binary variables.

use dpv_trace::{CounterId, TraceHandle};

use crate::{BasisSnapshot, CancelToken, LinearProgram, LpSolution, LpStatus, VarId, SOLVER_EPS};

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// An optimal (or, for feasibility problems, some) integer-feasible
    /// solution was found.
    Optimal,
    /// No integer-feasible solution exists.
    Infeasible,
    /// The relaxation is unbounded in the optimisation direction.
    Unbounded,
    /// The node limit was exhausted before the search completed. The
    /// incumbent (if any) is returned, but optimality/infeasibility is not
    /// proven. Verification callers must treat this as "unknown".
    NodeLimit,
    /// An LP relaxation ran out of its simplex pivot budget
    /// ([`LpStatus::IterationLimit`]) — numerical trouble in the model. The
    /// search stops conservatively; like [`MilpStatus::NodeLimit`] this is
    /// "unknown", never a verdict, so a degenerate model cannot abort the
    /// verification process.
    IterationLimit,
    /// A [`CancelToken`] tripped (explicit cancellation or an expired
    /// deadline) before the search completed. The incumbent (if any) is
    /// returned; like [`MilpStatus::NodeLimit`] this is "unknown", never a
    /// verdict.
    Cancelled,
}

/// Search statistics of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Number of LP relaxations solved.
    pub nodes_explored: usize,
    /// Number of nodes pruned (by incumbent bound, or — for enumeration
    /// backends — by infeasibility of the assignment's LP).
    pub nodes_pruned: usize,
    /// LP relaxations re-solved warm from a parent basis (dual simplex).
    pub warm_solves: usize,
    /// LP relaxations solved cold (two full simplex phases).
    pub cold_solves: usize,
    /// Warm starts that were *offered* a basis but declined it — the dual
    /// re-solve bailed (stale certificate, cancellation mid-pivot, …) and
    /// fell back to a cold solve. Every decline is also counted in
    /// [`SolveStats::cold_solves`]; the split makes warm-hit accounting
    /// exact: `warm_solves + warm_declined` is the number of solves that
    /// actually had a snapshot in hand.
    pub warm_declined: usize,
    /// Total simplex pivots across every LP solve of the run.
    pub simplex_iterations: usize,
}

impl SolveStats {
    /// Fraction of LP solves taken warm (zero when nothing was solved).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_solves + self.cold_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_solves as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: Self) {
        self.nodes_explored += rhs.nodes_explored;
        self.nodes_pruned += rhs.nodes_pruned;
        self.warm_solves += rhs.warm_solves;
        self.cold_solves += rhs.cold_solves;
        self.warm_declined += rhs.warm_declined;
        self.simplex_iterations += rhs.simplex_iterations;
    }
}

impl std::ops::Add for SolveStats {
    type Output = SolveStats;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Outcome status.
    pub status: MilpStatus,
    /// Best integer-feasible assignment found (empty if none).
    pub values: Vec<f64>,
    /// Objective of `values` (meaningful only when a solution exists).
    pub objective: f64,
    /// Search statistics.
    pub stats: SolveStats,
}

impl MilpSolution {
    /// Returns `true` when an integer-feasible assignment was found.
    pub fn has_solution(&self) -> bool {
        !self.values.is_empty()
    }
}

/// Picks the binary variable to branch on at a node whose relaxation is
/// optimal, or `None` when the relaxation is integral over the unfixed
/// binaries.
///
/// For **feasibility-only** problems (all-zero objective — the query safety
/// verification issues) the *most* fractional unfixed binary is chosen: its
/// relaxation value is closest to 1/2, so fixing it perturbs the relaxation
/// the most and drives infeasible subtrees to contradiction soonest, which
/// measurably shrinks refutation trees compared to PR-1's first-fractional
/// rule. For **optimisation** problems the first fractional binary is kept:
/// diving along the relaxation's suggestion finds strong incumbents early,
/// and the incumbent bound — not contradiction depth — prunes the tree.
/// Solves one node's LP relaxation against `scratch`, warm-starting from the
/// rolling basis in `warm` when enabled, and falls back to (and refreshes the
/// basis from) a cold solve otherwise. Shared by the serial and parallel
/// branch-and-bound engines so their statistics mean the same thing.
///
/// Any dual-feasible basis of the *same* matrix and objective warm-starts any
/// node — dual feasibility does not depend on the right-hand side — so the
/// rolling "most recent basis" works across backtracks and even across
/// work-stealing, not just parent→child edges.
pub(crate) fn solve_node_lp(
    scratch: &LinearProgram,
    warm: &mut Option<BasisSnapshot>,
    warm_enabled: bool,
    stats: &mut SolveStats,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
) -> LpSolution {
    /// Warm re-solves per snapshot before a forced cold refactorisation.
    /// The implicit `B⁻¹` columns accumulate floating-point drift with
    /// every pivot; the Farkas certificate already guards against *wrong*
    /// verdicts, but a periodic fresh factorisation keeps the certificate's
    /// bail-out rate — and hence the warm hit rate — high on deep search
    /// trees.
    const REFACTOR_INTERVAL: usize = 256;
    if warm
        .as_ref()
        .is_some_and(|snapshot| snapshot.warm_uses() >= REFACTOR_INTERVAL)
    {
        *warm = None;
        trace.add(CounterId::Refactorisations, 1);
    }
    let mut warm_used = false;
    let solution = if warm_enabled {
        let snapshot_offered = warm.is_some();
        match warm
            .as_mut()
            .and_then(|snap| scratch.solve_from_basis_cancellable(snap, cancel))
        {
            Some(solution) => {
                stats.warm_solves += 1;
                warm_used = true;
                solution
            }
            None => {
                if snapshot_offered {
                    stats.warm_declined += 1;
                }
                let (solution, snapshot) = scratch.solve_with_snapshot_cancellable(cancel);
                stats.cold_solves += 1;
                *warm = snapshot;
                solution
            }
        }
    } else {
        let solution = scratch.solve_cancellable(cancel);
        stats.cold_solves += 1;
        solution
    };
    stats.simplex_iterations += solution.iterations;
    trace.lp_node(warm_used, solution.iterations as u64);
    solution
}

pub(crate) fn select_branching_variable(
    binaries: &[VarId],
    fixings: &[(VarId, f64)],
    values: &[f64],
    feasibility_only: bool,
) -> Option<VarId> {
    let mut unfixed = binaries
        .iter()
        .copied()
        .filter(|&b| fixings.iter().all(|(v, _)| *v != b));
    if feasibility_only {
        unfixed
            .map(|b| {
                let v = values[b];
                (b, (v - v.round()).abs())
            })
            .filter(|&(_, frac)| frac > 1e-6)
            // Fractionalities are differences of finite relaxation values, so
            // a NaN here would indicate solver trouble; an arbitrary-but-total
            // tie-break keeps branching deterministic instead of panicking.
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(b, _)| b)
    } else {
        unfixed.find(|&b| (values[b] - values[b].round()).abs() > 1e-6)
    }
}

/// A mixed-integer linear program: a [`LinearProgram`] in which a subset of
/// variables is required to take values in `{0, 1}`.
///
/// ```
/// use dpv_lp::{ConstraintOp, MilpProblem, MilpStatus};
///
/// // max x + y with x + y <= 1.5 and both binary → optimum 1.
/// let mut milp = MilpProblem::new();
/// let x = milp.add_binary();
/// let y = milp.add_binary();
/// milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
/// milp.lp_mut().add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.5);
/// let solution = milp.solve();
/// assert_eq!(solution.status, MilpStatus::Optimal);
/// assert!((solution.objective - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MilpProblem {
    lp: LinearProgram,
    binaries: Vec<VarId>,
    node_limit: usize,
}

impl Default for MilpProblem {
    fn default() -> Self {
        Self::new()
    }
}

impl MilpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self {
            lp: LinearProgram::new(),
            binaries: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Wraps an existing LP; binary restrictions can then be added with
    /// [`MilpProblem::mark_binary`].
    pub fn from_lp(lp: LinearProgram) -> Self {
        Self {
            lp,
            binaries: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Adds a continuous variable with the given bounds.
    pub fn add_variable(&mut self, lower: f64, upper: f64) -> VarId {
        self.lp.add_variable(lower, upper)
    }

    /// Adds a binary variable (bounds `[0, 1]`, integrality enforced by the
    /// branch-and-bound).
    pub fn add_binary(&mut self) -> VarId {
        let var = self.lp.add_variable(0.0, 1.0);
        self.binaries.push(var);
        var
    }

    /// Marks an existing variable as binary and clamps its bounds to `[0, 1]`.
    pub fn mark_binary(&mut self, var: VarId) {
        self.lp.tighten_bounds(var, 0.0, 1.0);
        if !self.binaries.contains(&var) {
            self.binaries.push(var);
        }
    }

    /// The binary variables.
    pub fn binaries(&self) -> &[VarId] {
        &self.binaries
    }

    /// Read access to the underlying LP.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// Mutable access to the underlying LP (objective, constraints, bounds).
    pub fn lp_mut(&mut self) -> &mut LinearProgram {
        &mut self.lp
    }

    /// Limits the number of LP relaxations the branch-and-bound may solve.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// The current node limit. Alternative backends (parallel
    /// branch-and-bound, external engines) honour the same budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Checks integer feasibility of an assignment.
    pub fn is_feasible(&self, values: &[f64], eps: f64) -> bool {
        self.lp.is_feasible(values, eps)
            && self
                .binaries
                .iter()
                .all(|&b| (values[b] - values[b].round()).abs() <= eps)
    }

    /// Solves the MILP by best-effort depth-first branch-and-bound.
    ///
    /// For pure feasibility problems (zero objective) the search stops at the
    /// first integer-feasible node.
    ///
    /// Node evaluation is allocation-free with respect to the model: instead
    /// of cloning the whole [`LinearProgram`] per node, a single scratch
    /// program is reused — binary bounds are tightened to the node's fixings
    /// on descent and restored from a saved snapshot on backtrack. Each
    /// node's relaxation is additionally **warm-started** from the most
    /// recent solved basis ([`LinearProgram::solve_from_basis`]): consecutive
    /// nodes differ only in binary bounds, so a dual-simplex repair replaces
    /// the two cold phases; [`SolveStats`] records the warm/cold split.
    pub fn solve(&self) -> MilpSolution {
        self.solve_impl(true, &mut None, None, &TraceHandle::disabled())
    }

    /// [`MilpProblem::solve`] polling a [`CancelToken`] in the node loop and
    /// inside every LP relaxation; a tripped token returns
    /// [`MilpStatus::Cancelled`] (with the incumbent found so far) promptly
    /// instead of searching on.
    pub fn solve_cancellable(&self, cancel: Option<&CancelToken>) -> MilpSolution {
        self.solve_impl(true, &mut None, cancel, &TraceHandle::disabled())
    }

    /// [`MilpProblem::solve`] with warm starting disabled: every node pays a
    /// cold two-phase solve. Kept as the PR-2 reference path for benchmarks
    /// and equivalence tests ([`crate::ColdBranchAndBoundBackend`]).
    pub fn solve_cold(&self) -> MilpSolution {
        self.solve_impl(false, &mut None, None, &TraceHandle::disabled())
    }

    /// [`MilpProblem::solve`] with an externally owned rolling basis.
    ///
    /// The caller's `seed` primes the first node's warm start (when `Some`)
    /// and on return holds the last solved basis, so consecutive MILPs that
    /// share a structure — e.g. instantiations of one `EncodingTemplate`
    /// across obligations or requests — can chain their dual-simplex repairs
    /// across *problem* boundaries, not just across nodes of one search tree.
    ///
    /// Soundness does not depend on the seed matching: a stale or foreign
    /// basis fails [`LinearProgram::solve_from_basis`]'s structure check or
    /// its primal/Farkas validation and the node silently falls back to a
    /// cold two-phase solve (counted in [`SolveStats::cold_solves`]).
    pub fn solve_seeded(&self, seed: &mut Option<BasisSnapshot>) -> MilpSolution {
        self.solve_impl(true, seed, None, &TraceHandle::disabled())
    }

    /// [`MilpProblem::solve_seeded`] with cooperative cancellation (see
    /// [`MilpProblem::solve_cancellable`]).
    pub fn solve_seeded_cancellable(
        &self,
        seed: &mut Option<BasisSnapshot>,
        cancel: Option<&CancelToken>,
    ) -> MilpSolution {
        self.solve_impl(true, seed, cancel, &TraceHandle::disabled())
    }

    /// [`MilpProblem::solve_seeded_cancellable`] recording per-node solver
    /// telemetry (branch-and-bound nodes, warm/cold LP split, simplex
    /// pivots, refactorisations, sampled progress events) through a
    /// [`TraceHandle`]. With a disabled handle — the default everywhere
    /// else — this is exactly `solve_seeded_cancellable`: tracing is
    /// observational and never alters the search.
    pub fn solve_traced(
        &self,
        seed: &mut Option<BasisSnapshot>,
        cancel: Option<&CancelToken>,
        trace: &TraceHandle,
    ) -> MilpSolution {
        self.solve_impl(true, seed, cancel, trace)
    }

    fn solve_impl(
        &self,
        warm_enabled: bool,
        warm: &mut Option<BasisSnapshot>,
        cancel: Option<&CancelToken>,
        trace: &TraceHandle,
    ) -> MilpSolution {
        let feasibility_only = self.lp.objective().iter().all(|&c| c == 0.0);
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        // Each stack entry is a list of (binary var, fixed value) decisions.
        let mut stack: Vec<Vec<(VarId, f64)>> = vec![Vec::new()];
        let mut hit_limit = false;
        // The single scratch LP all nodes are evaluated against, plus the
        // pristine binary bounds to restore between nodes, plus the rolling
        // warm-start basis refreshed after every solved relaxation.
        let mut scratch = self.lp.clone();
        let saved_bounds: Vec<(VarId, f64, f64)> = self
            .binaries
            .iter()
            .map(|&b| {
                let (lo, hi) = self.lp.bounds(b);
                (b, lo, hi)
            })
            .collect();

        while let Some(fixings) = stack.pop() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                let (values, objective) = match incumbent {
                    Some((values, objective)) => (values, objective),
                    None => (Vec::new(), 0.0),
                };
                return MilpSolution {
                    status: MilpStatus::Cancelled,
                    values,
                    objective,
                    stats,
                };
            }
            if stats.nodes_explored >= self.node_limit {
                hit_limit = true;
                break;
            }
            stats.nodes_explored += 1;

            for &(var, lo, hi) in &saved_bounds {
                scratch.set_bounds(var, lo, hi);
            }
            // A fixing that falls outside the variable's original bounds
            // (possible when a binary was pre-fixed, e.g. a stable ReLU
            // phase) makes the node infeasible without solving anything.
            let mut conflict = false;
            for &(var, value) in &fixings {
                let (lo, hi) = self.lp.bounds(var);
                if value < lo - SOLVER_EPS || value > hi + SOLVER_EPS {
                    conflict = true;
                    break;
                }
                scratch.set_bounds(var, value, value);
            }
            if conflict {
                continue;
            }
            let solution = solve_node_lp(&scratch, warm, warm_enabled, &mut stats, cancel, trace);
            match solution.status {
                LpStatus::Infeasible => continue,
                LpStatus::IterationLimit | LpStatus::Cancelled => {
                    // The relaxation could not be solved (budget exhausted or
                    // cancellation); neither pruning nor branching is
                    // justified. Stop conservatively.
                    let (values, objective) = match incumbent {
                        Some((values, objective)) => (values, objective),
                        None => (Vec::new(), 0.0),
                    };
                    return MilpSolution {
                        status: if solution.status == LpStatus::Cancelled {
                            MilpStatus::Cancelled
                        } else {
                            MilpStatus::IterationLimit
                        },
                        values,
                        objective,
                        stats,
                    };
                }
                LpStatus::Unbounded => {
                    // With every binary fixed the relaxation *is* an integer
                    // assignment, so an unbounded ray there proves the MILP
                    // itself unbounded (this also covers a binary-free
                    // problem at the root). With binaries still free we
                    // cannot prune, so branch further.
                    if fixings.len() == self.binaries.len() {
                        return MilpSolution {
                            status: MilpStatus::Unbounded,
                            values: Vec::new(),
                            objective: 0.0,
                            stats,
                        };
                    }
                }
                LpStatus::Optimal => {
                    // Bound pruning (only valid for optimisation problems).
                    if let Some((_, best)) = &incumbent {
                        let worse = if self.lp.is_maximization() {
                            solution.objective <= *best + SOLVER_EPS
                        } else {
                            solution.objective >= *best - SOLVER_EPS
                        };
                        if worse {
                            stats.nodes_pruned += 1;
                            continue;
                        }
                    }
                }
            }

            let fractional = if solution.status == LpStatus::Optimal {
                select_branching_variable(
                    &self.binaries,
                    &fixings,
                    &solution.values,
                    feasibility_only,
                )
            } else {
                // Unbounded relaxation: branch on any unfixed binary.
                self.binaries
                    .iter()
                    .copied()
                    .find(|&b| fixings.iter().all(|(v, _)| *v != b))
            };

            match fractional {
                None if solution.status == LpStatus::Optimal => {
                    // Integer feasible.
                    let objective = solution.objective;
                    let better = match &incumbent {
                        None => true,
                        Some((_, best)) => {
                            if self.lp.is_maximization() {
                                objective > *best
                            } else {
                                objective < *best
                            }
                        }
                    };
                    if better {
                        incumbent = Some((solution.values.clone(), objective));
                    }
                    if feasibility_only {
                        break;
                    }
                }
                None => {
                    // Unreachable: an unbounded relaxation with every binary
                    // fixed already returned `Unbounded` above, so there is
                    // always an unfixed binary to branch on here.
                }
                Some(branch_var) => {
                    // Depth-first: explore the branch suggested by the
                    // relaxation last so it is popped first.
                    let suggested = if solution.status == LpStatus::Optimal {
                        solution.values[branch_var].round().clamp(0.0, 1.0)
                    } else {
                        1.0
                    };
                    let other = 1.0 - suggested;
                    let mut first = fixings.clone();
                    first.push((branch_var, other));
                    let mut second = fixings;
                    second.push((branch_var, suggested));
                    stack.push(first);
                    stack.push(second);
                }
            }
        }

        match incumbent {
            Some((values, objective)) => MilpSolution {
                status: if hit_limit {
                    MilpStatus::NodeLimit
                } else {
                    MilpStatus::Optimal
                },
                values,
                objective,
                stats,
            },
            None => MilpSolution {
                status: if hit_limit {
                    MilpStatus::NodeLimit
                } else {
                    MilpStatus::Infeasible
                },
                values: Vec::new(),
                objective: 0.0,
                stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp;

    #[test]
    fn knapsack_is_solved_exactly() {
        // max 10a + 6b + 4c  s.t.  a + b + c <= 2 (binaries) → 16.
        let mut milp = MilpProblem::new();
        let a = milp.add_binary();
        let b = milp.add_binary();
        let c = milp.add_binary();
        milp.lp_mut()
            .set_objective(&[(a, 10.0), (b, 6.0), (c, 4.0)], true);
        milp.lp_mut()
            .add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert!(milp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn integrality_changes_the_optimum() {
        // LP relaxation optimum is fractional; MILP must find the integer one.
        // max x + y  s.t.  2x + 2y <= 3, binaries → integer optimum 1.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let relaxed = milp.lp().solve();
        assert!((relaxed.objective - 1.5).abs() < 1e-6);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp_detected() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        assert_eq!(milp.solve().status, MilpStatus::Infeasible);
    }

    #[test]
    fn feasibility_problem_stops_at_first_solution() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let z = milp.add_variable(-1.0, 1.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], ConstraintOp::Ge, 1.5);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.has_solution());
        assert!(milp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn mixed_integer_with_continuous_variables() {
        // max 3x + 2y + w: x,y binary, w in [0, 10], w <= 4x + 2y.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let w = milp.add_variable(0.0, 10.0);
        milp.lp_mut()
            .set_objective(&[(x, 3.0), (y, 2.0), (w, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(w, 1.0), (x, -4.0), (y, -2.0)], ConstraintOp::Le, 0.0);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(
            (sol.objective - 11.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn node_limit_reports_unknown() {
        let mut milp = MilpProblem::new();
        for _ in 0..6 {
            let _ = milp.add_binary();
        }
        // Encourage branching with a constraint that keeps the relaxation fractional.
        let vars: Vec<_> = milp.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Eq, 2.5);
        milp.set_node_limit(1);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::NodeLimit);
    }

    #[test]
    fn mark_binary_restricts_existing_variable() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(0.0, 5.0);
        milp.mark_binary(x);
        assert_eq!(milp.lp().bounds(x), (0.0, 1.0));
        assert_eq!(milp.binaries(), &[x]);
        milp.mark_binary(x);
        assert_eq!(milp.binaries().len(), 1);
    }

    #[test]
    fn unbounded_milp_with_binaries_is_reported_unbounded() {
        // Regression: an unbounded MILP whose only integer structure is an
        // unrelated binary used to terminate with no incumbent and be
        // misreported as Infeasible. The continuous direction w → ∞ is
        // feasible for every assignment of the binary, so the MILP is
        // genuinely unbounded.
        let mut milp = MilpProblem::new();
        let b = milp.add_binary();
        let w = milp.add_variable(0.0, f64::INFINITY);
        milp.lp_mut().set_objective(&[(w, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(w, 1.0), (b, -1.0)], ConstraintOp::Ge, 0.0);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Unbounded);
        assert!(!sol.has_solution());
    }

    #[test]
    fn unbounded_lp_without_binaries_is_still_reported() {
        let mut milp = MilpProblem::new();
        let w = milp.add_variable(0.0, f64::INFINITY);
        milp.lp_mut().set_objective(&[(w, 1.0)], true);
        assert_eq!(milp.solve().status, MilpStatus::Unbounded);
    }

    #[test]
    fn solve_stats_aggregate_with_add_assign() {
        let mut total = SolveStats::default();
        total += SolveStats {
            nodes_explored: 3,
            nodes_pruned: 1,
            warm_solves: 2,
            cold_solves: 1,
            warm_declined: 1,
            simplex_iterations: 9,
        };
        total += SolveStats {
            nodes_explored: 5,
            nodes_pruned: 2,
            warm_solves: 4,
            cold_solves: 1,
            warm_declined: 0,
            simplex_iterations: 11,
        };
        assert_eq!(total.nodes_explored, 8);
        assert_eq!(total.nodes_pruned, 3);
        assert_eq!(total.warm_solves, 6);
        assert_eq!(total.cold_solves, 2);
        assert_eq!(total.warm_declined, 1);
        assert_eq!(total.simplex_iterations, 20);
        assert!((total.warm_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SolveStats::default().warm_hit_rate(), 0.0);
        let sum = total
            + SolveStats {
                nodes_explored: 2,
                ..SolveStats::default()
            };
        assert_eq!(sum.nodes_explored, 10);
    }

    #[test]
    fn warm_starts_carry_the_majority_of_node_solves() {
        // A fractional equality over six binaries forces a real tree; after
        // the cold root every node re-solve differs only in binary bounds,
        // so the rolling basis keeps almost every solve warm.
        let mut milp = MilpProblem::new();
        for _ in 0..6 {
            let _ = milp.add_binary();
        }
        let vars: Vec<_> = milp.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Eq, 2.5);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Infeasible);
        assert!(sol.stats.warm_solves + sol.stats.cold_solves >= 3);
        assert!(
            sol.stats.warm_solves > sol.stats.cold_solves,
            "expected a warm majority: {:?}",
            sol.stats
        );
        assert!(sol.stats.simplex_iterations > 0);
    }

    #[test]
    fn seeded_solve_reuses_the_callers_basis_across_problems() {
        // Two problems sharing a structure (same binaries, same rows, only a
        // rhs apart): the basis handed out by the first solve must prime the
        // second one, replacing its cold root solve with a warm repair.
        let build = |rhs: f64| {
            let mut milp = MilpProblem::new();
            for _ in 0..4 {
                let _ = milp.add_binary();
            }
            let vars: Vec<_> = milp.binaries().to_vec();
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Ge, rhs);
            milp
        };
        let mut seed = None;
        let first = build(2.0).solve_seeded(&mut seed);
        assert_eq!(first.status, MilpStatus::Optimal);
        assert!(seed.is_some(), "seeded solve must hand the basis back");
        let second = build(3.0).solve_seeded(&mut seed);
        assert_eq!(second.status, MilpStatus::Optimal);
        assert_eq!(
            second.stats.cold_solves, 0,
            "structurally identical follow-up should be fully warm: {:?}",
            second.stats
        );
        // And the seeded result must agree with an unseeded solve.
        let reference = build(3.0).solve();
        assert_eq!(second.status, reference.status);
    }

    #[test]
    fn foreign_seed_degrades_to_cold_without_changing_the_verdict() {
        // A basis from a structurally different problem (different variable
        // count) must be rejected by the structure guard: the solve falls
        // back to cold and still returns the reference verdict.
        let mut donor = MilpProblem::new();
        for _ in 0..6 {
            let _ = donor.add_binary();
        }
        let vars: Vec<_> = donor.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        donor
            .lp_mut()
            .add_constraint(&coeffs, ConstraintOp::Ge, 1.0);
        let mut seed = None;
        let _ = donor.solve_seeded(&mut seed);
        assert!(seed.is_some());

        let mut other = MilpProblem::new();
        let x = other.add_binary();
        let y = other.add_binary();
        other
            .lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let seeded = other.solve_seeded(&mut seed);
        let reference = other.solve();
        assert_eq!(seeded.status, reference.status);
        assert_eq!(seeded.status, MilpStatus::Infeasible);
        // The rejection is not silent: the offered-but-declined basis shows
        // up in `warm_declined`, and a fully owned solve declines nothing.
        assert!(
            seeded.stats.warm_declined >= 1,
            "foreign basis rejection must be recorded: {:?}",
            seeded.stats
        );
        assert_eq!(reference.stats.warm_declined, 0);
    }

    #[test]
    fn warm_and_cold_solves_agree_on_status_and_objective() {
        let mut milp = MilpProblem::new();
        let a = milp.add_binary();
        let b = milp.add_binary();
        let c = milp.add_binary();
        let w = milp.add_variable(0.0, 2.0);
        milp.lp_mut()
            .set_objective(&[(a, 3.0), (b, 5.0), (c, 4.0), (w, 1.0)], true);
        milp.lp_mut().add_constraint(
            &[(a, 2.0), (b, 3.0), (c, 1.0), (w, 1.0)],
            ConstraintOp::Le,
            4.0,
        );
        let warm = milp.solve();
        let cold = milp.solve_cold();
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert_eq!(cold.stats.warm_solves, 0);
        assert!(cold.stats.cold_solves >= 1);
    }

    #[test]
    fn iteration_limit_surfaces_as_milp_status() {
        // A starved pivot budget must degrade to IterationLimit ("unknown"),
        // not abort the process — the regression the old panic caused.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        milp.lp_mut().set_iteration_limit(Some(0));
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::IterationLimit);
    }

    #[test]
    fn node_limit_is_exposed() {
        let mut milp = MilpProblem::new();
        assert_eq!(milp.node_limit(), 200_000);
        milp.set_node_limit(7);
        assert_eq!(milp.node_limit(), 7);
    }

    #[test]
    fn solve_leaves_the_problem_bounds_untouched() {
        // The scratch-LP rework must not mutate the caller's model: bounds
        // observed after a solve are the bounds that went in.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let before: Vec<_> = (0..2).map(|v| milp.lp().bounds(v)).collect();
        let _ = milp.solve();
        let after: Vec<_> = (0..2).map(|v| milp.lp().bounds(v)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn solve_stats_are_recorded() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let sol = milp.solve();
        assert!(sol.stats.nodes_explored >= 1);
    }
}
