//! Dense two-phase bounded-variable simplex with warm-start support.
//!
//! The implementation favours clarity and robustness over speed: the
//! verification instances produced by `dpv-core` stay small (hundreds of
//! variables). Pivot choices follow Bland-style smallest-index rules, and
//! a pivot budget backstops termination: running out is reported as
//! [`LpStatus::IterationLimit`], never as a verdict.
//!
//! # Standard form and variable bounds
//!
//! Every user variable maps onto non-negative standard-form variables
//! (shifted by its lower bound, mirrored at its upper bound, or split when
//! free). A variable with both bounds finite keeps its width as an
//! **implicit** upper bound: `0 ≤ z_j ≤ u_j` with `u_j = hi − lo`, and no
//! tableau row. Every nonbasic variable sits at one of its bounds, recorded
//! by an *at-upper* flag; slack and free-split variables have `u = ∞` and
//! stay at zero when nonbasic. The primal phases use the bounded ratio test
//! (a basic variable may leave at either bound, and the entering variable
//! may simply flip to its other bound without a pivot). The dual simplex
//! picks a leaving row whose basic value is below 0 or above its `u`, and
//! prices at-upper columns with the opposite sign. A fixed variable
//! (`u = 0`, a branch-and-bound fixing) never enters the basis.
//!
//! # Tableau layout
//!
//! The tableau is one row-major `Vec<f64>`, one row per user constraint,
//! with columns in this order: the structural variables, one slack/surplus
//! column per `≤`/`≥` row, one identity column per `=` row, and the
//! right-hand side, which holds the **current value** of each row's basic
//! variable (nonbasic variables at their bounds). `=` rows are the only rows
//! without a slack, so their identity column doubles as their phase-1
//! artificial variable; every other row starts with its slack basic when the
//! slack's coefficient is `+1`, and otherwise (a `≥` row, or a `≤` row
//! negated for a negative rhs) with a **logical** artificial that has no
//! column of its own.
//!
//! Basis entries are logical indices: columns below `artificial_base` are
//! their own index, and the artificial of row `r` is `artificial_base + r`
//! whether or not it has a column. Artificials never re-enter the basis, so
//! no pivot ever reads an artificial column.
//!
//! # Implicit `B⁻¹`
//!
//! Row operations act on every column alike, so each tableau column is
//! `B⁻¹` times its build-time column. Column `k` of `B⁻¹` is therefore
//! readable from any column that started as `±e_k`: the identity column of
//! an `=` row, or the slack column of any other row scaled by its
//! build-time coefficient (`±1`, so the scaling is exact). With no bound
//! rows, `B⁻¹` is `m × m` over the constraint rows only.
//!
//! # Warm starts
//!
//! Branch-and-bound and the refinement loop re-solve the *same* constraint
//! matrix under different variable bounds thousands of times. A cold solve
//! pays for two full simplex phases every time; the warm path
//! ([`LinearProgram::solve_from_basis`]) instead reuses the final tableau of
//! a previous solve (a [`BasisSnapshot`], which keeps the at-upper flags):
//!
//! * a bound-only change alters *only* the standard-form right-hand side `b`
//!   and the implicit upper bounds `u`, never the coefficient matrix or the
//!   standard-form cost vector — so the reduced costs are unchanged. Each
//!   nonbasic boxed variable is moved to the bound its reduced cost prefers,
//!   which keeps the basis **dual feasible**, and the basic values are
//!   recomputed from the live constraints as `B⁻¹(b − Σ_{j at upper} A_j·u_j)`,
//!   an O(m²) refresh instead of a rebuild-and-re-factor;
//! * a **dual simplex** phase then repairs primal feasibility (basic values
//!   outside `[0, u]`), after which a short primal clean-up polishes any
//!   residual reduced-cost noise.
//!
//! # Soundness backstops
//!
//! The snapshot encodes a structural fingerprint (variable-bound finiteness
//! pattern, constraint counts, objective); whenever it does not match the
//! program being solved — or the numerics look off — the warm path declines
//! and the caller falls back to a cold solve, so warm starting is purely an
//! optimisation and never changes results. A warm optimum is re-validated
//! as primal feasible for the actual program. A warm *infeasibility* is
//! accepted only with a boxed Farkas certificate recomputed from the live
//! constraints: the dual's row gives multipliers `w` with
//! `min over z ∈ [0, u] of (w·A)·z > w·b`.

use crate::{CancelToken, ConstraintOp, LinearProgram, LpSolution, LpStatus, SOLVER_EPS};

/// How each user-facing variable maps onto the non-negative standard-form
/// variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + z[idx]`, with `z[idx] ≤ upper − lower` when the upper
    /// bound is finite.
    Shifted { idx: usize, lower: f64 },
    /// `x = upper - z[idx]` (used when only the upper bound is finite)
    Mirrored { idx: usize, upper: f64 },
    /// `x = z[pos] - z[neg]` (free variable)
    Split { pos: usize, neg: usize },
}

/// The structural shape of a variable's mapping — the part of [`VarMap`] that
/// must be *identical* between two programs for a basis to be transferable.
/// Bound **values** may differ (that is the point of warm starting); bound
/// **finiteness** may not, because it decides the standard-form layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    /// Finite lower and upper bound (shifted variable with an implicit
    /// upper bound).
    Boxed,
    /// Finite lower bound only (shifted variable, unbounded above).
    LowerOnly,
    /// Finite upper bound only (mirrored variable).
    UpperOnly,
    /// No finite bounds (split into a positive/negative pair).
    Free,
}

fn var_kind(lo: f64, hi: f64) -> VarKind {
    match (lo.is_finite(), hi.is_finite()) {
        (true, true) => VarKind::Boxed,
        (true, false) => VarKind::LowerOnly,
        (false, true) => VarKind::UpperOnly,
        (false, false) => VarKind::Free,
    }
}

struct StandardForm {
    /// Objective for the standard variables (minimisation).
    cost: Vec<f64>,
    /// Constraint rows `a·z (op) rhs` over the standard variables, one per
    /// user constraint.
    rows: Vec<(Vec<f64>, ConstraintOp, f64)>,
    /// Upper bound of each standard variable (`∞` unless boxed).
    upper: Vec<f64>,
    /// Mapping from user variables to standard variables.
    mapping: Vec<VarMap>,
    /// Number of standard variables.
    num_vars: usize,
    /// Constant offset added to the objective by the variable shifts.
    offset: f64,
}

/// Builds the variable mapping alone (shared by the cold standardisation and
/// the warm-path compatibility check / rhs refresh).
fn build_mapping(lp: &LinearProgram) -> (Vec<VarMap>, usize) {
    let n = lp.num_variables();
    let mut mapping = Vec::with_capacity(n);
    let mut num_vars = 0usize;
    for i in 0..n {
        let (lo, hi) = (lp.lower[i], lp.upper[i]);
        if lo.is_finite() {
            mapping.push(VarMap::Shifted {
                idx: num_vars,
                lower: lo,
            });
            num_vars += 1;
        } else if hi.is_finite() {
            mapping.push(VarMap::Mirrored {
                idx: num_vars,
                upper: hi,
            });
            num_vars += 1;
        } else {
            mapping.push(VarMap::Split {
                pos: num_vars,
                neg: num_vars + 1,
            });
            num_vars += 2;
        }
    }
    (mapping, num_vars)
}

/// Standard-form cost vector (minimisation) and the constant objective offset
/// introduced by the variable shifts.
fn standard_cost(lp: &LinearProgram, mapping: &[VarMap], num_vars: usize) -> (Vec<f64>, f64) {
    let sign = if lp.maximize { -1.0 } else { 1.0 };
    let mut cost = vec![0.0; num_vars];
    let mut offset = 0.0;
    for (i, map) in mapping.iter().enumerate() {
        let c = sign * lp.objective[i];
        if c == 0.0 {
            continue;
        }
        match *map {
            VarMap::Shifted { idx, lower } => {
                cost[idx] += c;
                offset += c * lower;
            }
            VarMap::Mirrored { idx, upper } => {
                cost[idx] -= c;
                offset += c * upper;
            }
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
        }
    }
    (cost, offset)
}

/// Implicit upper bound of each of the first `columns` standard-form
/// columns: `hi − lo` for a boxed variable, `∞` for every other structural
/// variable and for the slack columns that follow them.
fn standard_upper(lp: &LinearProgram, mapping: &[VarMap], columns: usize) -> Vec<f64> {
    let mut upper = vec![f64::INFINITY; columns];
    for (i, map) in mapping.iter().enumerate() {
        if let VarMap::Shifted { idx, lower } = *map {
            if lp.upper[i].is_finite() {
                upper[idx] = lp.upper[i] - lower;
            }
        }
    }
    upper
}

/// Standard-form right-hand side of each constraint row, computed sparsely
/// without materialising any coefficient rows. With `at_upper` given, every
/// flagged boxed variable is moved to the rhs at its upper bound, giving
/// `b − Σ_{j at upper} A_j·u_j`: the system the basic variables solve.
fn standard_rhs(lp: &LinearProgram, mapping: &[VarMap], at_upper: Option<&[bool]>) -> Vec<f64> {
    let mut rhs = Vec::with_capacity(lp.constraints.len());
    for constraint in &lp.constraints {
        let mut b = constraint.rhs;
        for (var, coeff) in &constraint.coeffs {
            match mapping[*var] {
                VarMap::Shifted { idx, lower } => {
                    if at_upper.is_some_and(|flags| flags[idx]) {
                        b -= coeff * lp.upper[*var];
                    } else {
                        b -= coeff * lower;
                    }
                }
                VarMap::Mirrored { upper, .. } => b -= coeff * upper,
                VarMap::Split { .. } => {}
            }
        }
        rhs.push(b);
    }
    rhs
}

/// Builds the standard form: all variables non-negative, boxed ones with an
/// implicit upper bound, objective minimised.
fn standardize(lp: &LinearProgram) -> StandardForm {
    let (mapping, num_vars) = build_mapping(lp);
    let (cost, offset) = standard_cost(lp, &mapping, num_vars);
    let upper = standard_upper(lp, &mapping, num_vars);

    let mut rows = Vec::with_capacity(lp.constraints.len());
    for constraint in &lp.constraints {
        let mut row = vec![0.0; num_vars];
        let mut rhs = constraint.rhs;
        for (var, coeff) in &constraint.coeffs {
            match mapping[*var] {
                VarMap::Shifted { idx, lower } => {
                    row[idx] += coeff;
                    rhs -= coeff * lower;
                }
                VarMap::Mirrored { idx, upper } => {
                    row[idx] -= coeff;
                    rhs -= coeff * upper;
                }
                VarMap::Split { pos, neg } => {
                    row[pos] += coeff;
                    row[neg] -= coeff;
                }
            }
        }
        rows.push((row, constraint.op, rhs));
    }

    StandardForm {
        cost,
        rows,
        upper,
        mapping,
        num_vars,
        offset,
    }
}

/// Fingerprint of a program's standard-form *structure*: everything the warm
/// path must see unchanged for a stored basis to remain meaningful. Bound
/// values and constraint right-hand sides are deliberately excluded — those
/// are exactly the edits warm starting exists for.
#[derive(Debug, Clone, PartialEq)]
struct StructureFingerprint {
    var_kinds: Vec<VarKind>,
    num_constraints: usize,
    /// Total number of constraint coefficients, a cheap proxy for "the
    /// coefficient matrix is unchanged" (full equality is the caller's
    /// documented precondition).
    nnz: usize,
    /// Standard-form cost vector — dual feasibility of the stored basis is
    /// only guaranteed while the objective is untouched.
    cost: Vec<f64>,
}

fn fingerprint(lp: &LinearProgram, cost: &[f64]) -> StructureFingerprint {
    StructureFingerprint {
        var_kinds: (0..lp.num_variables())
            .map(|i| var_kind(lp.lower[i], lp.upper[i]))
            .collect(),
        num_constraints: lp.constraints.len(),
        nnz: lp.constraints.iter().map(|c| c.coeffs.len()).sum(),
        cost: cost.to_vec(),
    }
}

/// Where each column of `B⁻¹` lives in a narrow tableau, and the build-time
/// row signs that relate it to the original standard-form rows.
#[derive(Debug, Clone)]
struct InverseColumns {
    /// Per standard-form row `k`: the tableau column that started as
    /// `±e_k` and the `±1` it started with, so that column `k` of `B⁻¹` is
    /// `sign · T[·][col]` — the row's slack column, or for an `=` row its
    /// identity column (sign `+1`).
    cols: Vec<(usize, f64)>,
    /// Sign applied to each row when the tableau was built (rows with a
    /// negative rhs are negated so the initial basis is non-negative).
    signs: Vec<f64>,
}

impl InverseColumns {
    /// Entry `(r, k)` of `B⁻¹`, read from tableau row `r`.
    fn entry(&self, tableau_row: &[f64], k: usize) -> f64 {
        let (col, sign) = self.cols[k];
        sign * tableau_row[col]
    }

    /// The multipliers `w` that express tableau row `r` as a combination of
    /// the original (un-negated) standard-form rows: `w_k = B⁻¹[r][k] ·
    /// sign_k`.
    fn row_weights(&self, tableau_row: &[f64]) -> Vec<f64> {
        (0..self.cols.len())
            .map(|k| self.entry(tableau_row, k) * self.signs[k])
            .collect()
    }
}

/// The final tableau of a solved [`LinearProgram`], reusable as a warm start
/// for re-solves after bound-only changes (see
/// [`LinearProgram::solve_from_basis`]).
///
/// A snapshot is only handed out when the solve ended in a state whose basis
/// is dual feasible and artificial-free at nonzero levels — i.e. a state the
/// dual simplex can safely continue from.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    /// Row-major `m × width` tableau values, one row per constraint, laid
    /// out as described in the module docs: structural, slack and `=`-row
    /// identity columns, then the basic values. The accumulated row
    /// operations are read through `inverse`.
    data: Vec<f64>,
    /// Row stride of `data`: `artificial_base + n_eq + 1`.
    width: usize,
    /// Logical basic variable of each row (artificial of row `r` is
    /// `artificial_base + r`).
    basis: Vec<usize>,
    /// Per column below `artificial_base`: nonbasic at its upper bound.
    at_upper: Vec<bool>,
    /// Where the columns of `B⁻¹` live, plus the build-time row signs.
    inverse: InverseColumns,
    /// Number of structural standard-form variables.
    n: usize,
    /// Number of structural plus slack columns; logical indices at or above
    /// it are artificials.
    artificial_base: usize,
    /// Structural fingerprint the target program must match.
    structure: StructureFingerprint,
    /// Number of warm re-solves taken from this snapshot (statistics only).
    warm_uses: usize,
}

impl BasisSnapshot {
    /// How many warm re-solves this snapshot has served so far.
    pub fn warm_uses(&self) -> usize {
        self.warm_uses
    }
}

/// Outcome of one simplex phase.
enum PhaseOutcome {
    /// Optimal for the phase cost; carries the objective value.
    Optimal(f64),
    /// The phase cost is unbounded below.
    Unbounded,
    /// The iteration budget ran out (numerical trouble / adversarial model).
    IterationLimit,
    /// The caller's [`CancelToken`] tripped mid-phase.
    Cancelled,
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    /// Primal feasibility restored (the subsequent primal clean-up pass
    /// recomputes the objective, so none is carried here).
    Feasible,
    /// The dual is unbounded along `row`'s direction — the primal is
    /// infeasible *if* the row still certifies it against the un-drifted
    /// problem data (see `certify_infeasible_row`). `above` is true when
    /// the row's basic variable exceeds its upper bound rather than
    /// falling below zero.
    Infeasible { row: usize, above: bool },
    /// The iteration budget ran out.
    IterationLimit,
    /// The caller's [`CancelToken`] tripped mid-phase.
    Cancelled,
}

/// Dense simplex tableau with an explicit basis and bounded variables.
struct Tableau {
    /// Row-major `m × width` values; the last column of each row is the
    /// current value of the row's basic variable.
    data: Vec<f64>,
    /// Row stride of `data`: `artificial_base + n_eq + 1`.
    width: usize,
    /// Logical basic variable of each row: columns below `artificial_base`
    /// are their own index, the artificial of row `r` is
    /// `artificial_base + r`.
    basis: Vec<usize>,
    /// Number of structural plus slack columns. Only columns below it may
    /// enter the basis, in either phase, so artificials only ever leave.
    artificial_base: usize,
    /// Upper bound of each column below `artificial_base` (`∞` unless the
    /// column is a boxed structural variable; artificials are unbounded).
    upper: Vec<f64>,
    /// Per column below `artificial_base`: nonbasic at its upper bound
    /// (always `false` for basic columns).
    at_upper: Vec<bool>,
    /// The most recent pivot row after scaling — one buffer reused by every
    /// pivot's elimination and by the caller's reduced-cost update.
    pivot_row: Vec<f64>,
    /// Pivots performed so far (reported as `LpSolution::iterations`).
    iterations: usize,
    /// Remaining budget of pivots and bound flips.
    budget: usize,
    /// Cooperative cancellation handle, polled every [`CANCEL_POLL_MASK`]+1
    /// pivots.
    cancel: Option<CancelToken>,
}

/// Poll the cancel token when `iterations & CANCEL_POLL_MASK == 0` — every
/// 64 pivots, cheap enough to disappear in the pivot cost while keeping the
/// reaction latency to an expired deadline well below a millisecond.
const CANCEL_POLL_MASK: usize = 63;

/// Violation below which a basic value counts as inside its bounds in the
/// dual simplex.
const DUAL_FEASIBILITY_EPS: f64 = 1e-9;

impl Tableau {
    fn rows(&self) -> usize {
        self.basis.len()
    }

    fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.width..(row + 1) * self.width]
    }

    fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.width + col]
    }

    fn rhs(&self, row: usize) -> f64 {
        self.at(row, self.width - 1)
    }

    /// Upper bound of a logical variable (artificials are unbounded).
    fn upper_of(&self, var: usize) -> f64 {
        self.upper.get(var).copied().unwrap_or(f64::INFINITY)
    }

    /// Value of a nonbasic column: its upper bound when flagged, else zero.
    fn nonbasic_value(&self, col: usize) -> f64 {
        if self.at_upper[col] {
            self.upper[col]
        } else {
            0.0
        }
    }

    /// True when the caller's token tripped; only polled at the
    /// [`CANCEL_POLL_MASK`] stride so the atomic/clock reads stay off the
    /// per-pivot hot path.
    fn cancelled(&self) -> bool {
        self.iterations & CANCEL_POLL_MASK == 0
            && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Takes one unit of the pivot/flip budget; `false` when it is spent.
    fn spend(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        true
    }

    /// Pivots `col` into the basis on `row`, leaving the scaled pivot row
    /// in `self.pivot_row`. The leaving variable becomes nonbasic at its
    /// upper bound when `leave_upper`, else at zero.
    ///
    /// The value column is eliminated as a displacement: the pivot row's
    /// value is first measured from the leaving variable's new bound, so
    /// after elimination it is the entering variable's displacement from
    /// its old bound, to which that bound is then added.
    fn pivot(&mut self, row: usize, col: usize, leave_upper: bool) {
        let width = self.width;
        let leaving = self.basis[row];
        let leave_value = if leave_upper {
            self.upper[leaving]
        } else {
            0.0
        };
        let enter_value = self.nonbasic_value(col);
        let pivot = &mut self.data[row * width..(row + 1) * width];
        let pivot_value = pivot[col];
        debug_assert!(
            pivot_value.abs() > SOLVER_EPS,
            "pivot on a (near-)zero element"
        );
        pivot[width - 1] -= leave_value;
        let inv = 1.0 / pivot_value;
        for value in pivot.iter_mut() {
            *value *= inv;
        }
        self.pivot_row.copy_from_slice(pivot);
        for (r, other) in self.data.chunks_exact_mut(width).enumerate() {
            if r == row {
                continue;
            }
            let factor = other[col];
            if factor == 0.0 {
                continue;
            }
            for (o, p) in other.iter_mut().zip(&self.pivot_row) {
                *o -= factor * p;
            }
        }
        self.data[row * width + width - 1] += enter_value;
        self.at_upper[col] = false;
        if leaving < self.artificial_base {
            self.at_upper[leaving] = leave_upper;
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Moves nonbasic `col` to its other bound without a pivot, updating the
    /// basic values along its column.
    fn flip(&mut self, col: usize) {
        let width = self.width;
        // x_B = β − T[·][col]·x_col, and x_col moves by ±u.
        let delta = if self.at_upper[col] {
            self.upper[col]
        } else {
            -self.upper[col]
        };
        for row in self.data.chunks_exact_mut(width) {
            let a = row[col];
            if a != 0.0 {
                row[width - 1] += delta * a;
            }
        }
        self.at_upper[col] = !self.at_upper[col];
    }

    /// Applies the last pivot's elimination step to a reduced-cost row.
    fn eliminate_reduced(&self, reduced: &mut [f64], col: usize) {
        let factor = reduced[col];
        if factor != 0.0 {
            for (r, p) in reduced.iter_mut().zip(&self.pivot_row) {
                *r -= factor * p;
            }
        }
    }

    /// Phase cost of a logical variable: `cost` on the leading columns (zero
    /// on the rest below `artificial_base`) and `artificial_cost` on every
    /// artificial variable.
    fn cost_of(&self, var: usize, cost: &[f64], artificial_cost: f64) -> f64 {
        if var < cost.len() {
            cost[var]
        } else if var >= self.artificial_base {
            artificial_cost
        } else {
            0.0
        }
    }

    /// Reduced-cost row `c - c_B B⁻¹ A` over the columns below
    /// `artificial_base`.
    fn reduced_costs(&self, cost: &[f64], artificial_cost: f64) -> Vec<f64> {
        let mut reduced = vec![0.0; self.artificial_base];
        reduced[..cost.len()].copy_from_slice(cost);
        for (row_idx, &basic) in self.basis.iter().enumerate() {
            let cb = self.cost_of(basic, cost, artificial_cost);
            if cb == 0.0 {
                continue;
            }
            for (r, value) in reduced.iter_mut().zip(self.row(row_idx)) {
                *r -= cb * value;
            }
        }
        reduced
    }

    /// Phase objective at the current basic solution.
    fn objective(&self, cost: &[f64], artificial_cost: f64) -> f64 {
        let mut value = 0.0;
        for (row, &basic) in self.basis.iter().enumerate() {
            let c = self.cost_of(basic, cost, artificial_cost);
            if c != 0.0 {
                value += c * self.rhs(row);
            }
        }
        for (j, &c) in cost.iter().enumerate() {
            if self.at_upper[j] && c != 0.0 {
                value += c * self.upper[j];
            }
        }
        value
    }

    /// Runs the primal simplex on the given phase cost (minimisation; see
    /// [`Tableau::reduced_costs`]) with the bounded ratio test. Entering
    /// columns are restricted to indices below `artificial_base`, and fixed
    /// columns (`u = 0`) never enter.
    fn optimize(&mut self, cost: &[f64], artificial_cost: f64) -> PhaseOutcome {
        let mut reduced = self.reduced_costs(cost, artificial_cost);
        loop {
            if self.cancelled() {
                return PhaseOutcome::Cancelled;
            }
            // Bland's rule over moves: the smallest index among columns that
            // improve the objective by rising from zero, else the smallest
            // among those that improve it by falling from their upper
            // bound. Ranking both moves by column index alone took 1.7–3.6×
            // as many cold-solve pivots on the big-M encodings measured.
            let improves = |j: usize, from_upper: bool| {
                self.upper[j] > 0.0
                    && self.at_upper[j] == from_upper
                    && if from_upper {
                        reduced[j] > SOLVER_EPS
                    } else {
                        reduced[j] < -SOLVER_EPS
                    }
            };
            let entering = (0..self.artificial_base)
                .find(|&j| improves(j, false))
                .or_else(|| (0..self.artificial_base).find(|&j| improves(j, true)));
            let Some(col) = entering else {
                return PhaseOutcome::Optimal(self.objective(cost, artificial_cost));
            };
            let direction = if self.at_upper[col] { -1.0 } else { 1.0 };
            // Bounded ratio test: a basic variable blocks at zero when it
            // decreases and at its upper bound when it increases; ties are
            // broken by the smallest basic variable index.
            let mut leaving: Option<(usize, f64, bool)> = None;
            for row in 0..self.rows() {
                let a = direction * self.at(row, col);
                let (ratio, to_upper) = if a > SOLVER_EPS {
                    (self.rhs(row) / a, false)
                } else if a < -SOLVER_EPS {
                    let upper = self.upper_of(self.basis[row]);
                    if upper == f64::INFINITY {
                        continue;
                    }
                    ((upper - self.rhs(row)) / -a, true)
                } else {
                    continue;
                };
                let better = match leaving {
                    None => true,
                    Some((best_row, best_ratio, _)) => {
                        ratio < best_ratio - SOLVER_EPS
                            || (ratio < best_ratio + SOLVER_EPS
                                && self.basis[row] < self.basis[best_row])
                    }
                };
                if better {
                    leaving = Some((row, ratio, to_upper));
                }
            }
            // The entering column reaching its own other bound first is a
            // bound flip: no basis change, a strict objective decrease.
            let flip_ratio = self.upper[col];
            let pivot = match leaving {
                Some((row, ratio, to_upper)) if ratio < flip_ratio => Some((row, to_upper)),
                _ if flip_ratio < f64::INFINITY => None,
                _ => return PhaseOutcome::Unbounded,
            };
            if !self.spend() {
                return PhaseOutcome::IterationLimit;
            }
            match pivot {
                Some((row, to_upper)) => {
                    self.pivot(row, col, to_upper);
                    self.eliminate_reduced(&mut reduced, col);
                }
                None => self.flip(col),
            }
        }
    }

    /// Moves every nonbasic boxed column to the bound its reduced cost
    /// prefers (upper when negative, zero when positive), which makes the
    /// basis dual feasible for them whatever their bounds are now. The
    /// basic values are stale until the caller refreshes them.
    fn align_bounds_with(&mut self, reduced: &[f64]) {
        for (j, &d) in reduced.iter().enumerate() {
            if self.upper[j] < f64::INFINITY {
                if d < -SOLVER_EPS {
                    self.at_upper[j] = true;
                } else if d > SOLVER_EPS {
                    self.at_upper[j] = false;
                }
            }
        }
        for &basic in &self.basis {
            if basic < self.artificial_base {
                self.at_upper[basic] = false;
            }
        }
    }

    /// Runs the **dual** simplex: starting from a dual-feasible basis whose
    /// basic values may lie outside their bounds, pivots until the basis is
    /// primal feasible. Returns `Feasible` when primal feasibility is
    /// restored, `Infeasible` when a row proves the program **infeasible**
    /// (the dual is unbounded), `IterationLimit` when the budget runs out.
    ///
    /// Pivot rules: the verification LPs are heavily degenerate (zero
    /// objectives make every dual ratio tie at zero), where pure Bland
    /// index rules stall for hundreds of pivots. The fast phase therefore
    /// picks the **most-violated row** and breaks ratio ties by the
    /// **largest pivot magnitude** (numerically stable, empirically a few
    /// pivots per bound change); if that phase ever stalls past `2·m + 32`
    /// pivots, the loop switches to Bland's dual rule, whose termination
    /// guarantee then applies. The overall budget still backstops
    /// everything — running out makes the warm caller re-solve cold.
    fn dual_optimize(&mut self, reduced: &mut [f64]) -> DualOutcome {
        let heuristic_budget = 2 * self.rows() + 32;
        let mut pivots = 0usize;
        loop {
            if self.cancelled() {
                return DualOutcome::Cancelled;
            }
            let blands = pivots >= heuristic_budget;
            // Leaving row: the largest bound violation (fast phase), or the
            // smallest basic index among violated rows (Bland phase).
            let mut leaving: Option<(usize, f64, bool)> = None;
            for row in 0..self.rows() {
                let value = self.rhs(row);
                let (violation, above) = if value < -DUAL_FEASIBILITY_EPS {
                    (-value, false)
                } else {
                    let upper = self.upper_of(self.basis[row]);
                    if value > upper + DUAL_FEASIBILITY_EPS {
                        (value - upper, true)
                    } else {
                        continue;
                    }
                };
                let better = match leaving {
                    None => true,
                    Some((best_row, best_violation, _)) => {
                        if blands {
                            self.basis[row] < self.basis[best_row]
                        } else {
                            violation > best_violation
                        }
                    }
                };
                if better {
                    leaving = Some((row, violation, above));
                }
            }
            let Some((row, _, above)) = leaving else {
                return DualOutcome::Feasible;
            };
            // Entering column: one whose move towards its other bound pulls
            // the basic value back inside its bounds, minimising
            // |reduced[j]| / |a[row][j]|; ties by the largest |pivot| (fast
            // phase) or the smallest index (Bland phase). The row's own
            // basic column and fixed columns are skipped.
            let row_sign = if above { -1.0 } else { 1.0 };
            let basic = self.basis[row];
            let mut entering: Option<(usize, f64, f64)> = None;
            for (j, (&a, &red)) in self
                .row(row)
                .iter()
                .zip(reduced.iter())
                .take(self.artificial_base)
                .enumerate()
            {
                if j == basic || self.upper[j] == 0.0 {
                    continue;
                }
                let (a, red) = if self.at_upper[j] {
                    (-row_sign * a, -red)
                } else {
                    (row_sign * a, red)
                };
                if a < -SOLVER_EPS {
                    let ratio = red.max(0.0) / -a;
                    let better = match entering {
                        None => true,
                        Some((_, best_ratio, best_mag)) => {
                            if ratio < best_ratio - 1e-9 {
                                true
                            } else if ratio > best_ratio + 1e-9 {
                                false
                            } else {
                                // Tie on the ratio.
                                !blands && a.abs() > best_mag
                            }
                        }
                    };
                    if better {
                        entering = Some((j, ratio, a.abs()));
                    }
                }
            }
            let Some((col, _, _)) = entering else {
                // No column can move the violated basic value back towards
                // its bounds: primal infeasible (subject to the caller's
                // drift-free certificate check).
                return DualOutcome::Infeasible { row, above };
            };
            if !self.spend() {
                return DualOutcome::IterationLimit;
            }
            pivots += 1;
            self.pivot(row, col, above);
            self.eliminate_reduced(reduced, col);
        }
    }
}

/// Builds the initial narrow tableau of a standard form (iteration budget
/// and cancel token still unset, every nonbasic column at zero) together
/// with its inverse-column map.
fn build_tableau(std_form: &StandardForm) -> (Tableau, InverseColumns) {
    let m = std_form.rows.len();
    let n = std_form.num_vars;
    let n_slack = std_form
        .rows
        .iter()
        .filter(|(_, op, _)| *op != ConstraintOp::Eq)
        .count();
    let artificial_base = n + n_slack;
    let width = artificial_base + (m - n_slack) + 1;
    let mut data = vec![0.0; m * width];
    let mut basis = vec![usize::MAX; m];
    let mut cols = Vec::with_capacity(m);
    let mut signs = Vec::with_capacity(m);

    let mut slack_cursor = n;
    let mut identity_cursor = artificial_base;
    for (row_idx, (coeffs, op, rhs)) in std_form.rows.iter().enumerate() {
        let row = &mut data[row_idx * width..(row_idx + 1) * width];
        row[..n].copy_from_slice(coeffs);
        // Make the rhs non-negative, remembering the sign for warm rhs
        // refreshes.
        let sign = if *rhs < 0.0 { -1.0 } else { 1.0 };
        if sign < 0.0 {
            for value in &mut row[..n] {
                *value = -*value;
            }
        }
        signs.push(sign);
        row[width - 1] = sign * rhs;
        let (col, coeff) = match op {
            ConstraintOp::Le => (slack_cursor, sign),
            ConstraintOp::Ge => (slack_cursor, -sign),
            // An `=` row's identity column (also its phase-1 artificial).
            ConstraintOp::Eq => (identity_cursor, 1.0),
        };
        if *op == ConstraintOp::Eq {
            identity_cursor += 1;
        } else {
            slack_cursor += 1;
        }
        row[col] = coeff;
        cols.push((col, coeff));
        // Initial basic variable: a slack with +1 coefficient, or the row's
        // (logical) artificial.
        basis[row_idx] = if col < artificial_base && coeff > 0.5 {
            col
        } else {
            artificial_base + row_idx
        };
    }

    let mut upper = std_form.upper.clone();
    upper.resize(artificial_base, f64::INFINITY);
    let tableau = Tableau {
        data,
        width,
        basis,
        artificial_base,
        upper,
        at_upper: vec![false; artificial_base],
        pivot_row: vec![0.0; width],
        iterations: 0,
        budget: 0,
        cancel: None,
    };
    (tableau, InverseColumns { cols, signs })
}

/// Verifies a dual-simplex infeasibility declaration against the
/// **un-drifted** problem data. The triggering tableau row is a linear
/// combination `w` of the original standard-form equations (recovered from
/// the implicit inverse columns and the build-time row signs, and negated
/// when the row's basic variable was `above` its upper bound); for any
/// feasible `z` it implies `(w·A)·z = w·b` exactly, because `A`, `b` and the
/// upper bounds `u` are recomputed from the live constraints rather than
/// read from the (possibly drifted) tableau. If even the smallest value of
/// `(w·A)·z` over the box `0 ≤ z ≤ u` exceeds `w·b`, no `z` in the box can
/// satisfy the system — a Farkas certificate that holds no matter how
/// degraded the tableau's numerics are. A column with `u = ∞` must have a
/// non-negative coefficient (within the tolerance). A failed check means
/// the declaration was an artefact of drift and the caller must fall back
/// to a cold solve.
fn certify_infeasible_row(
    lp: &LinearProgram,
    mapping: &[VarMap],
    tableau_row: &[f64],
    inverse: &InverseColumns,
    above: bool,
    upper: &[f64],
    b: &[f64],
) -> bool {
    let mut w = inverse.row_weights(tableau_row);
    if above {
        for weight in &mut w {
            *weight = -*weight;
        }
    }

    let scale = 1.0 + w.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
    let tol = 1e-8 * scale;

    // v = w · A over the structural columns, recomputed sparsely from the
    // live constraints. A slack column is `±e_k` with `u = ∞`, so its
    // coefficient `±w_k` must be non-negative on its own.
    let mut v = vec![0.0; upper.len()];
    for (constraint, &weight) in lp.constraints.iter().zip(&w) {
        let slack = match constraint.op {
            ConstraintOp::Le => weight,
            ConstraintOp::Ge => -weight,
            ConstraintOp::Eq => 0.0,
        };
        if slack < -tol {
            return false;
        }
        if weight != 0.0 {
            for (var, coeff) in &constraint.coeffs {
                match mapping[*var] {
                    VarMap::Shifted { idx, .. } => v[idx] += weight * coeff,
                    VarMap::Mirrored { idx, .. } => v[idx] -= weight * coeff,
                    VarMap::Split { pos, neg } => {
                        v[pos] += weight * coeff;
                        v[neg] -= weight * coeff;
                    }
                }
            }
        }
    }

    // min over 0 ≤ z ≤ u of v·z: a negative coefficient takes its upper
    // bound, which must then be finite.
    let mut box_min = 0.0;
    for (&coeff, &u) in v.iter().zip(upper) {
        if coeff < 0.0 {
            if u < f64::INFINITY {
                box_min += coeff * u;
            } else if coeff < -tol {
                return false;
            }
        }
    }
    let rhs_dot: f64 = w.iter().zip(b).map(|(wk, bk)| wk * bk).sum();
    rhs_dot < box_min - tol
}

/// Maps standard-variable values (basic values from the value column,
/// nonbasic columns at their flagged bound) back to the user variables.
fn extract_values(lp: &LinearProgram, mapping: &[VarMap], tableau: &Tableau) -> Vec<f64> {
    let mut z: Vec<f64> = (0..tableau.artificial_base)
        .map(|j| tableau.nonbasic_value(j))
        .collect();
    for (row, &basic) in tableau.basis.iter().enumerate() {
        if basic < tableau.artificial_base {
            z[basic] = tableau.rhs(row);
        }
    }
    let mut values = vec![0.0; lp.num_variables()];
    for (i, map) in mapping.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { idx, lower } => lower + z[idx],
            VarMap::Mirrored { idx, upper } => upper - z[idx],
            VarMap::Split { pos, neg } => z[pos] - z[neg],
        };
    }
    values
}

/// Translates the standard-form optimum back into the user objective.
fn user_objective(lp: &LinearProgram, optimum: f64, offset: f64) -> f64 {
    let std_objective = optimum + offset;
    if lp.maximize {
        -std_objective
    } else {
        std_objective
    }
}

/// Pivot budget of one solve: the caller's limit, or the program's
/// [`LinearProgram::estimated_iteration_budget`].
fn iteration_budget(lp: &LinearProgram) -> usize {
    lp.max_iterations
        .unwrap_or_else(|| lp.estimated_iteration_budget())
}

/// Solves a [`LinearProgram`] with the two-phase primal simplex method and,
/// when the final basis supports it, returns a [`BasisSnapshot`] for warm
/// re-solves.
pub(crate) fn solve_with_snapshot(
    lp: &LinearProgram,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    solve_cold(lp, true, cancel)
}

/// Two-phase cold solve. With `want_snapshot` false the snapshot (and its
/// fingerprint allocations) is skipped entirely — the cheap path for
/// callers that immediately discard it, like the exhaustive oracle and the
/// warm-start-free reference engine.
fn solve_cold(
    lp: &LinearProgram,
    want_snapshot: bool,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    if lp.num_variables() == 0 {
        // Vacuous program: feasible iff every constraint holds for the empty
        // assignment (only constant constraints are possible).
        let feasible = lp.constraints.iter().all(|c| match c.op {
            ConstraintOp::Le => 0.0 <= c.rhs + SOLVER_EPS,
            ConstraintOp::Ge => 0.0 >= c.rhs - SOLVER_EPS,
            ConstraintOp::Eq => c.rhs.abs() <= SOLVER_EPS,
        });
        let solution = if feasible {
            LpSolution {
                status: LpStatus::Optimal,
                values: Vec::new(),
                objective: 0.0,
                iterations: 0,
                warm_started: false,
            }
        } else {
            LpSolution::non_optimal(LpStatus::Infeasible)
        };
        return (solution, None);
    }

    let std_form = standardize(lp);
    let (mut tableau, inverse) = build_tableau(&std_form);
    let artificial_base = tableau.artificial_base;
    tableau.budget = iteration_budget(lp);
    tableau.cancel = cancel.cloned();
    let stopped = |status: LpStatus, tableau: &Tableau| {
        let mut solution = LpSolution::non_optimal(status);
        solution.iterations = tableau.iterations;
        (solution, None)
    };

    // Phase 1: minimise the sum of basic artificial variables.
    let needs_phase1 = tableau.basis.iter().any(|&b| b >= artificial_base);
    if needs_phase1 {
        match tableau.optimize(&[], 1.0) {
            PhaseOutcome::Optimal(optimum) => {
                if optimum > 1e-6 {
                    return stopped(LpStatus::Infeasible, &tableau);
                }
            }
            // Phase 1 is never unbounded (cost bounded below by zero), so
            // this arm is reachable only through numerical trouble.
            PhaseOutcome::Unbounded => return stopped(LpStatus::Infeasible, &tableau),
            PhaseOutcome::IterationLimit => return stopped(LpStatus::IterationLimit, &tableau),
            PhaseOutcome::Cancelled => return stopped(LpStatus::Cancelled, &tableau),
        }
        // Drive any artificial variable that is still basic (at level ~0)
        // out of the basis where possible; a row where no structural pivot
        // exists is redundant and keeps its artificial at level zero.
        for row in 0..tableau.rows() {
            if tableau.basis[row] >= artificial_base {
                let pivot_col = (0..artificial_base).find(|&j| tableau.at(row, j).abs() > 1e-7);
                if let Some(col) = pivot_col {
                    tableau.pivot(row, col, false);
                }
            }
        }
        // Entering-column selection is capped at `artificial_base`, so no
        // artificial can re-enter the basis in phase 2; unlike the classic
        // "zero the artificial columns" trick this keeps B⁻¹ intact for
        // warm restarts.
    }

    // Phase 2: minimise the real objective.
    let optimum = match tableau.optimize(&std_form.cost, 0.0) {
        PhaseOutcome::Optimal(optimum) => optimum,
        PhaseOutcome::Unbounded => return stopped(LpStatus::Unbounded, &tableau),
        PhaseOutcome::IterationLimit => return stopped(LpStatus::IterationLimit, &tableau),
        PhaseOutcome::Cancelled => return stopped(LpStatus::Cancelled, &tableau),
    };

    let values = extract_values(lp, &std_form.mapping, &tableau);
    let objective = user_objective(lp, optimum, std_form.offset);
    let iterations = tableau.iterations;

    // A snapshot is only useful when no artificial sits in the basis at a
    // meaningful level; redundant rows keep theirs at ~0, which the warm
    // path re-checks against the refreshed rhs.
    let snapshot = want_snapshot.then(|| BasisSnapshot {
        data: tableau.data,
        width: tableau.width,
        basis: tableau.basis,
        at_upper: tableau.at_upper,
        inverse,
        n: std_form.num_vars,
        artificial_base,
        structure: fingerprint(lp, &std_form.cost),
        warm_uses: 0,
    });

    (
        LpSolution {
            status: LpStatus::Optimal,
            values,
            objective,
            iterations,
            warm_started: false,
        },
        snapshot,
    )
}

/// Backwards-compatible cold solve.
pub(crate) fn solve(lp: &LinearProgram, cancel: Option<&CancelToken>) -> LpSolution {
    solve_cold(lp, false, cancel).0
}

/// Recomputes every basic value from the live data: row `r`'s value becomes
/// `Σ_k B⁻¹[r][k] · sign_k · b̃_k`, where `b̃ = b − Σ_{j at upper} A_j·u_j`
/// is the standard-form rhs with the at-upper columns moved across.
fn refresh_rhs(tableau: &mut Tableau, inverse: &InverseColumns, shifted_b: &[f64]) {
    let width = tableau.width;
    for row in tableau.data.chunks_exact_mut(width) {
        let mut value = 0.0;
        for (k, (b_k, sign)) in shifted_b.iter().zip(inverse.signs.iter()).enumerate() {
            let g = inverse.entry(row, k);
            if g != 0.0 {
                value += g * sign * b_k;
            }
        }
        row[width - 1] = value;
    }
}

/// Warm re-solve from a previous basis after bound-only (and constraint-rhs)
/// changes. Returns `None` when the snapshot does not structurally match the
/// program or the numerics force a cold fallback; in that case the snapshot
/// must be considered stale and replaced by the caller.
pub(crate) fn solve_from_basis(
    lp: &LinearProgram,
    snapshot: &mut BasisSnapshot,
    cancel: Option<&CancelToken>,
) -> Option<LpSolution> {
    if lp.num_variables() == 0 {
        return None;
    }
    let (mapping, num_vars) = build_mapping(lp);
    if num_vars != snapshot.n || lp.constraints.len() != snapshot.basis.len() {
        return None;
    }
    let (cost, offset) = standard_cost(lp, &mapping, num_vars);
    if fingerprint(lp, &cost) != snapshot.structure {
        return None;
    }
    let upper = standard_upper(lp, &mapping, snapshot.artificial_base);

    let mut tableau = Tableau {
        data: std::mem::take(&mut snapshot.data),
        width: snapshot.width,
        basis: std::mem::take(&mut snapshot.basis),
        artificial_base: snapshot.artificial_base,
        upper,
        at_upper: std::mem::take(&mut snapshot.at_upper),
        pivot_row: vec![0.0; snapshot.width],
        iterations: 0,
        budget: iteration_budget(lp),
        cancel: cancel.cloned(),
    };
    let restore = |snapshot: &mut BasisSnapshot, tableau: Tableau| {
        snapshot.data = tableau.data;
        snapshot.basis = tableau.basis;
        snapshot.at_upper = tableau.at_upper;
    };

    // The reduced costs depend on (A, c) only, so they survive the bound
    // edit; each nonbasic boxed column goes to the bound they prefer, and
    // the basic values are recomputed for the new bounds and rhs.
    let mut reduced = tableau.reduced_costs(&cost, 0.0);
    tableau.align_bounds_with(&reduced);
    let shifted_b = standard_rhs(lp, &mapping, Some(&tableau.at_upper));
    refresh_rhs(&mut tableau, &snapshot.inverse, &shifted_b);

    // A basic artificial (redundant row in the parent) must stay at level
    // zero under the new rhs; otherwise the rows have become inconsistent in
    // a way only a cold phase 1 can sort out.
    for (row, &basic) in tableau.basis.iter().enumerate() {
        if basic >= tableau.artificial_base && tableau.rhs(row).abs() > 1e-7 {
            return None;
        }
    }

    // Dual simplex repairs primal feasibility from the (still dual-feasible)
    // parent basis, then a primal clean-up pass polishes any reduced-cost
    // noise left by the refresh.
    match tableau.dual_optimize(&mut reduced) {
        DualOutcome::Feasible => {}
        DualOutcome::Infeasible { row, above } => {
            // Dual unbounded ⇔ primal infeasible — but only accept the
            // verdict when the triggering row still certifies it against
            // the un-drifted constraint data. Branch-and-bound *prunes* on
            // Infeasible, so a drift artefact here would silently cut off
            // feasible subtrees; a failed certificate bails to a cold solve
            // instead.
            let b = standard_rhs(lp, &mapping, None);
            if !certify_infeasible_row(
                lp,
                &mapping,
                tableau.row(row),
                &snapshot.inverse,
                above,
                &tableau.upper[..num_vars],
                &b,
            ) {
                return None;
            }
            // The tableau basis is still dual feasible, so the snapshot
            // remains valid for further warm solves.
            let iterations = tableau.iterations;
            snapshot.warm_uses += 1;
            restore(snapshot, tableau);
            let mut solution = LpSolution::non_optimal(LpStatus::Infeasible);
            solution.iterations = iterations;
            solution.warm_started = true;
            return Some(solution);
        }
        // A tripped cancel token also declines the warm solve: the cold
        // fallback polls the same token on entry and reports `Cancelled`
        // immediately, which keeps the decline/fallback contract uniform.
        DualOutcome::IterationLimit | DualOutcome::Cancelled => return None,
    }
    let optimum = match tableau.optimize(&cost, 0.0) {
        PhaseOutcome::Optimal(optimum) => optimum,
        // A dual-feasible start precludes an unbounded primal; reaching
        // either arm means numerical trouble — fall back to a cold solve.
        // Cancellation likewise declines to the cold path.
        PhaseOutcome::Unbounded | PhaseOutcome::IterationLimit | PhaseOutcome::Cancelled => {
            return None
        }
    };

    let values = extract_values(lp, &mapping, &tableau);
    // Cheap end-to-end validation: the warm optimum must be primal feasible
    // for the *actual* program. Guards against drift accumulated across many
    // rhs refreshes.
    if !lp.is_feasible(&values, 1e-6) {
        return None;
    }
    let objective = user_objective(lp, optimum, offset);
    let iterations = tableau.iterations;
    snapshot.warm_uses += 1;
    restore(snapshot, tableau);
    Some(LpSolution {
        status: LpStatus::Optimal,
        values,
        objective,
        iterations,
        warm_started: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearProgram;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_two_constraints() {
        // max x + y, x + 2y <= 4, 3x + y <= 6, x,y >= 0 → optimum 2.8 at (1.6, 1.2).
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.8);
        assert_close(sol.values[0], 1.6);
        assert_close(sol.values[1], 1.2);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y, x + y >= 4, x >= 1, y >= 0 → optimum at (4, 0) = 8.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 2.0), (y, 3.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 8.0);
        assert_close(sol.values[0], 4.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0)], true);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 3, x - y = 1 → x = 2, y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 1.0);
    }

    #[test]
    fn free_variables_are_supported() {
        // min x, with x free and x >= -5 as a row constraint → optimum -5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(f64::NEG_INFINITY, f64::INFINITY);
        lp.set_objective(&[(x, 1.0)], false);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, -5.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -5.0);
        assert_close(sol.values[0], -5.0);
    }

    #[test]
    fn negative_bounds_are_handled_by_shifting() {
        // max x + y with x in [-3, -1], y in [-2, 2], x + y <= -2.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-3.0, -1.0);
        let y = lp.add_variable(-2.0, 2.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, -2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -2.0);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn mirrored_variables_only_upper_bound() {
        // min x with x <= 4 (no lower bound) and x >= 1 via a row.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(f64::NEG_INFINITY, 4.0);
        lp.set_objective(&[(x, 1.0)], true);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn upper_bounds_limit_the_optimum() {
        // max x + 2y with x, y in [0, 1] and x + y <= 1.5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        let y = lp.add_variable(0.0, 1.0);
        lp.set_objective(&[(x, 1.0), (y, 2.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.5);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.5);
        assert_close(sol.values[1], 1.0);
        assert_close(sol.values[0], 0.5);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; Bland's rule must terminate.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        let z = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 0.75), (y, -150.0), (z, 0.02)], true);
        lp.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(z, 1.0)], ConstraintOp::Le, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn feasibility_only_problem_returns_a_point() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 1.0);
        let y = lp.add_variable(-1.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 0.5);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.2);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn empty_program_is_trivially_feasible() {
        let lp = LinearProgram::new();
        assert_eq!(lp.solve().status, LpStatus::Optimal);
    }

    #[test]
    fn iteration_limit_is_reported_not_panicked() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        lp.set_iteration_limit(Some(0));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::IterationLimit);
        lp.set_iteration_limit(None);
        assert_eq!(lp.solve().status, LpStatus::Optimal);
    }

    #[test]
    fn warm_restart_after_bound_tightening_matches_cold() {
        // max x + y, x + 2y <= 4, 3x + y <= 6, x,y in [0, 5].
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_eq!(cold.status, LpStatus::Optimal);
        let mut snapshot = snapshot.expect("optimal solve yields a snapshot");

        // Tighten x to [0, 1]: the warm solve must agree with a cold solve.
        lp.set_bounds(x, 0.0, 1.0);
        let warm = lp
            .solve_from_basis(&mut snapshot)
            .expect("bound-only change stays warm-startable");
        assert!(warm.warm_started);
        let cold2 = lp.solve();
        assert_eq!(warm.status, cold2.status);
        assert_close(warm.objective, cold2.objective);
        assert!(lp.is_feasible(&warm.values, 1e-6));
        assert_eq!(snapshot.warm_uses(), 1);

        // Restore the original bounds: warm again, back to the first optimum.
        lp.set_bounds(x, 0.0, 5.0);
        let warm2 = lp
            .solve_from_basis(&mut snapshot)
            .expect("restored bounds stay warm-startable");
        assert_close(warm2.objective, cold.objective);
    }

    #[test]
    fn warm_restart_detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_eq!(cold.status, LpStatus::Optimal);
        let mut snapshot = snapshot.expect("snapshot");
        lp.set_bounds(x, 0.0, 1.0);
        lp.set_bounds(y, 0.0, 1.0);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm.status, LpStatus::Infeasible);
        // The snapshot survives an infeasible node; loosening warm-solves again.
        lp.set_bounds(y, 0.0, 5.0);
        let warm2 = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm2.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&warm2.values, 1e-6));
    }

    #[test]
    fn warm_restart_declines_structural_changes() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0)], true);
        let (_, snapshot) = lp.solve_with_snapshot();
        let mut snapshot = snapshot.expect("snapshot");
        // Objective change breaks dual feasibility → decline.
        lp.set_objective(&[(x, -1.0)], true);
        assert!(lp.solve_from_basis(&mut snapshot).is_none());
    }

    #[test]
    fn warm_restart_declines_finiteness_pattern_changes() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        let (_, snapshot) = lp.solve_with_snapshot();
        let mut snapshot = snapshot.expect("snapshot");
        // Dropping the upper bound changes the standard-form layout.
        lp.set_bounds(x, 0.0, f64::INFINITY);
        assert!(lp.solve_from_basis(&mut snapshot).is_none());
    }

    #[test]
    fn infeasible_solves_produce_no_snapshot() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let (solution, snapshot) = lp.solve_with_snapshot();
        assert_eq!(solution.status, LpStatus::Infeasible);
        assert!(snapshot.is_none());
    }

    #[test]
    fn warm_restart_tracks_constraint_rhs_changes() {
        // The refinement template edits octagon-difference row rhs values;
        // those are part of the refreshed b vector, so warm solves see them.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0)], true);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_close(cold.objective, 4.0);
        let mut snapshot = snapshot.expect("snapshot");
        lp.set_constraint_rhs(0, 2.5);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_close(warm.objective, 2.5);
    }

    /// A program with every standard-form row kind: `≤`, `≥`, `=`, rows
    /// negated for a negative rhs (one `≤`, one `≥`), a free variable, a
    /// mirrored variable and boxed variables.
    fn every_row_kind() -> LinearProgram {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 3.0);
        let y = lp.add_variable(0.0, 4.0);
        let z = lp.add_variable(f64::NEG_INFINITY, 2.0);
        let f = lp.add_variable(f64::NEG_INFINITY, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, -2.0), (z, 0.5), (f, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        lp.add_constraint(&[(x, 1.0), (z, -1.0)], ConstraintOp::Ge, 0.5);
        lp.add_constraint(&[(y, 1.0), (z, 1.0), (f, -1.0)], ConstraintOp::Eq, 1.0);
        lp.add_constraint(&[(x, -1.0), (y, -1.0)], ConstraintOp::Le, -1.5);
        lp.add_constraint(&[(y, 1.0), (f, 1.0)], ConstraintOp::Ge, -6.0);
        lp.add_constraint(&[(f, 1.0)], ConstraintOp::Le, 3.0);
        lp
    }

    /// Checks `T = W·A`: every structural and slack column of the live
    /// tableau, and its rhs, is the row multipliers read back from the
    /// implicit inverse columns times the original (un-negated)
    /// standard-form rows of the program as it stands now. The build-time
    /// row signs are the snapshot's own: a bound edit can flip the sign of a
    /// row's standard-form rhs without the warm path rebuilding anything.
    fn assert_inverse_rebuilds_tableau(lp: &LinearProgram, snapshot: &BasisSnapshot) {
        let (initial, rebuilt) = build_tableau(&standardize(lp));
        assert_eq!(initial.width, snapshot.width);
        let inverse_col = |cols: &[(usize, f64)]| cols.iter().map(|&(c, _)| c).collect::<Vec<_>>();
        assert_eq!(
            inverse_col(&rebuilt.cols),
            inverse_col(&snapshot.inverse.cols)
        );
        let original = |k: usize, j: usize| rebuilt.signs[k] * initial.at(k, j);
        let width = snapshot.width;
        let columns: Vec<usize> = (0..snapshot.artificial_base).chain([width - 1]).collect();
        for (r, row) in snapshot.data.chunks_exact(width).enumerate() {
            let w = snapshot.inverse.row_weights(row);
            for &j in &columns {
                let mut rebuilt: f64 = w
                    .iter()
                    .enumerate()
                    .map(|(k, wk)| wk * original(k, j))
                    .sum();
                if j == width - 1 {
                    // The value column is W·(b − Σ_{j at upper} A_j·u_j).
                    rebuilt -= (0..snapshot.artificial_base)
                        .filter(|&c| snapshot.at_upper[c])
                        .map(|c| initial.upper[c] * row[c])
                        .sum::<f64>();
                }
                assert!(
                    (rebuilt - row[j]).abs() < 1e-9,
                    "T[{r}][{j}] = {} but W·A gives {rebuilt}",
                    row[j]
                );
            }
        }
    }

    #[test]
    fn implicit_inverse_rebuilds_the_tableau_for_every_row_kind() {
        let mut lp = every_row_kind();
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!(cold.iterations > 0);
        let mut snapshot = snapshot.expect("optimal solve yields a snapshot");
        // All row kinds are present: slack columns with both build-time
        // coefficients, negated rows, and one `=` identity column.
        let inverse = &snapshot.inverse;
        assert!(inverse.cols.iter().any(|&(_, c)| c > 0.0));
        assert!(inverse.cols.iter().any(|&(_, c)| c < 0.0));
        assert!(inverse.signs.iter().any(|&s| s < 0.0));
        assert_eq!(
            inverse
                .cols
                .iter()
                .filter(|&&(col, _)| col >= snapshot.artificial_base)
                .count(),
            1
        );
        assert_inverse_rebuilds_tableau(&lp, &snapshot);

        // After warm re-solves the refreshed rhs obeys the same identity.
        lp.set_bounds(0, 0.5, 1.0);
        lp.set_constraint_rhs(0, 2.0);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert!(warm.warm_started);
        assert_inverse_rebuilds_tableau(&lp, &snapshot);
        lp.set_bounds(1, 1.0, 1.5);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm.status, lp.solve().status);
        assert_inverse_rebuilds_tableau(&lp, &snapshot);
    }

    /// What the certificate of one warm infeasibility is checked with: the
    /// declaring tableau row, whether its basic value was above its upper
    /// bound, the variable mapping, the structural upper bounds and the
    /// standard-form rhs.
    struct FarkasRow {
        row: Vec<f64>,
        above: bool,
        mapping: Vec<VarMap>,
        upper: Vec<f64>,
        b: Vec<f64>,
    }

    /// Drives `lp`'s warm path up to the dual simplex from `snapshot` and
    /// returns the row it declared infeasible, with the data the
    /// certificate is checked against.
    fn warm_infeasible_row(lp: &LinearProgram, snapshot: &BasisSnapshot) -> FarkasRow {
        let (mapping, num_vars) = build_mapping(lp);
        let (cost, _) = standard_cost(lp, &mapping, num_vars);
        let upper = standard_upper(lp, &mapping, snapshot.artificial_base);
        let mut tableau = Tableau {
            data: snapshot.data.clone(),
            width: snapshot.width,
            basis: snapshot.basis.clone(),
            artificial_base: snapshot.artificial_base,
            upper,
            at_upper: snapshot.at_upper.clone(),
            pivot_row: vec![0.0; snapshot.width],
            iterations: 0,
            budget: 1000,
            cancel: None,
        };
        let mut reduced = tableau.reduced_costs(&cost, 0.0);
        tableau.align_bounds_with(&reduced);
        let shifted_b = standard_rhs(lp, &mapping, Some(&tableau.at_upper));
        refresh_rhs(&mut tableau, &snapshot.inverse, &shifted_b);
        match tableau.dual_optimize(&mut reduced) {
            DualOutcome::Infeasible { row, above } => FarkasRow {
                row: tableau.row(row).to_vec(),
                above,
                upper: tableau.upper[..num_vars].to_vec(),
                b: standard_rhs(lp, &mapping, None),
                mapping,
            },
            _ => panic!("expected the dual simplex to declare infeasibility"),
        }
    }

    #[test]
    fn certificate_accepts_farkas_rows_and_rejects_perturbed_ones() {
        // x + y ≥ 3, x + y = 3 and the negated −x − y ≤ −3 are each
        // feasible on [0, 5]² and infeasible on [0, 1]².
        let kinds = [
            (1.0, ConstraintOp::Ge, 3.0),
            (1.0, ConstraintOp::Eq, 3.0),
            (-1.0, ConstraintOp::Le, -3.0),
        ];
        for (coeff, op, rhs) in kinds {
            let mut lp = LinearProgram::new();
            let x = lp.add_variable(0.0, 5.0);
            let y = lp.add_variable(0.0, 5.0);
            lp.add_constraint(&[(x, coeff), (y, coeff)], op, rhs);
            let (cold, snapshot) = lp.solve_with_snapshot();
            assert_eq!(cold.status, LpStatus::Optimal);
            let mut snapshot = snapshot.expect("snapshot");
            lp.set_bounds(x, 0.0, 1.0);
            lp.set_bounds(y, 0.0, 1.0);

            let farkas = warm_infeasible_row(&lp, &snapshot);
            let certify = |row: &[f64]| {
                certify_infeasible_row(
                    &lp,
                    &farkas.mapping,
                    row,
                    &snapshot.inverse,
                    farkas.above,
                    &farkas.upper,
                    &farkas.b,
                )
            };
            let row = &farkas.row;
            assert!(certify(row), "{op:?}: a true Farkas row must certify");

            // Dropping the constraint's multiplier leaves `w = 0`, which
            // cannot prove infeasibility.
            let mut perturbed = row.clone();
            perturbed[snapshot.inverse.cols[0].0] = 0.0;
            assert!(!certify(&perturbed), "{op:?}: perturbed row certified");
            // A negated row has w·b > 0.
            let negated: Vec<f64> = row.iter().map(|v| -v).collect();
            assert!(!certify(&negated), "{op:?}: negated row certified");

            // The full warm path agrees and keeps the snapshot usable.
            let warm = lp.solve_from_basis(&mut snapshot).expect("certified");
            assert_eq!(warm.status, LpStatus::Infeasible);
        }
    }

    #[test]
    fn boxed_variables_add_no_tableau_rows() {
        let lp = every_row_kind();
        let (_, snapshot) = lp.solve_with_snapshot();
        let snapshot = snapshot.expect("optimal solve yields a snapshot");
        assert_eq!(snapshot.basis.len(), lp.num_constraints());
        assert_eq!(snapshot.data.len(), lp.num_constraints() * snapshot.width);
    }

    #[test]
    fn default_budget_is_the_estimated_budget() {
        let mut lp = every_row_kind();
        let (default, snapshot) = lp.solve_with_snapshot();
        let mut snapshot = snapshot.expect("snapshot");
        lp.set_iteration_limit(Some(lp.estimated_iteration_budget()));
        assert_eq!(lp.solve(), default);

        // The warm path draws on the same budget.
        lp.set_bounds(1, 1.0, 1.5);
        let mut explicit_snapshot = snapshot.clone();
        let explicit = lp.solve_from_basis(&mut explicit_snapshot);
        lp.set_iteration_limit(None);
        assert_eq!(lp.solve_from_basis(&mut snapshot), explicit);
    }

    /// Three warm infeasibilities whose only proof goes through upper
    /// bounds, with the edit that makes each infeasible and whether the
    /// dual's row ends above its basic variable's upper bound.
    fn upper_bound_refutations() -> Vec<(LinearProgram, LinearProgram, bool)> {
        let mut cases = Vec::new();
        // x + y ≥ 3 on [0, 5]², then on [0, 1]².
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let mut edited = lp.clone();
        edited.set_bounds(x, 0.0, 1.0);
        edited.set_bounds(y, 0.0, 1.0);
        cases.push((lp, edited, true));
        // x − y = 3 on [0, 5]², then x ≤ 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 3.0);
        let mut edited = lp.clone();
        edited.set_bounds(x, 0.0, 2.0);
        cases.push((lp, edited, true));
        // max x s.t. x ≤ y, y ∈ [0, 1] (optimum with y at its upper
        // bound), then x ≥ 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 10.0);
        let y = lp.add_variable(0.0, 1.0);
        lp.set_objective(&[(x, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.0);
        let mut edited = lp.clone();
        edited.set_bounds(x, 2.0, 10.0);
        cases.push((lp, edited, false));
        cases
    }

    #[test]
    fn certificate_uses_upper_bounds_and_rejects_perturbed_rows() {
        for (case, (lp, edited, above)) in upper_bound_refutations().into_iter().enumerate() {
            let (cold, snapshot) = lp.solve_with_snapshot();
            assert_eq!(cold.status, LpStatus::Optimal);
            let snapshot = snapshot.expect("snapshot");
            let farkas = warm_infeasible_row(&edited, &snapshot);
            assert_eq!(farkas.above, above, "case {case}: leaving direction");
            let certify = |row: &[f64], above: bool, upper: &[f64]| {
                certify_infeasible_row(
                    &edited,
                    &farkas.mapping,
                    row,
                    &snapshot.inverse,
                    above,
                    upper,
                    &farkas.b,
                )
            };
            let row = &farkas.row;
            assert!(
                certify(row, above, &farkas.upper),
                "case {case}: a true Farkas row must certify"
            );
            // Without the upper bounds (z ≥ 0 only) the row proves nothing.
            let unbounded = vec![f64::INFINITY; farkas.upper.len()];
            assert!(
                !certify(row, above, &unbounded),
                "case {case}: certified without upper bounds"
            );
            // Wider boxes make the program feasible again, so the same row
            // must stop certifying: a check that dropped the `u` term would
            // still accept it.
            let wider: Vec<f64> = farkas.upper.iter().map(|u| 2.0 * u).collect();
            assert!(
                !certify(row, above, &wider),
                "case {case}: certified against wider bounds"
            );
            // Perturbed rows: the constraint's multiplier dropped, the row
            // negated, and the leaving direction flipped.
            let mut perturbed = row.clone();
            perturbed[snapshot.inverse.cols[0].0] = 0.0;
            assert!(!certify(&perturbed, above, &farkas.upper), "case {case}");
            let negated: Vec<f64> = row.iter().map(|v| -v).collect();
            assert!(!certify(&negated, above, &farkas.upper), "case {case}");
            assert!(!certify(row, !above, &farkas.upper), "case {case}");

            // The full warm path agrees with a cold solve.
            let mut snapshot = snapshot.clone();
            let warm = edited.solve_from_basis(&mut snapshot).expect("certified");
            assert_eq!(warm.status, LpStatus::Infeasible);
            assert_eq!(edited.solve().status, LpStatus::Infeasible);
        }
    }
}
