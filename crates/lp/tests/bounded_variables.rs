//! Bounded-variable simplex against independent references.
//!
//! Variable bounds are held implicitly by the simplex (each nonbasic
//! variable at its lower or upper bound), so these fixtures lean on every
//! bound shape the standard form distinguishes: boxed variables with
//! negative lower bounds, fixed variables (`lo == hi`, what
//! branch-and-bound produces when it fixes a binary), variables bounded on
//! one side only (shifted or mirrored) and free variables (split), all
//! mixed in one model. Cold branch-and-bound, warm-chained
//! (`solve_with` with a seed) branch-and-bound and the cold `ExhaustiveBackend`
//! oracle must agree on status and objective.

use dpv_lp::{
    ConstraintOp, ExhaustiveBackend, LinearProgram, LpStatus, MilpProblem, MilpStatus,
    SolverBackend, VarId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-6;

/// The variables of a [`mixed_lp`], by bound shape.
struct Vars {
    /// `[lo, hi]` with `lo < 0 < hi`.
    boxed: Vec<VarId>,
    /// `lo == hi`.
    fixed: VarId,
    /// `[lo, ∞)`, capped by a row.
    lower_only: VarId,
    /// `(-∞, hi]`, capped by a row.
    upper_only: VarId,
    /// `(-∞, ∞)`, capped by two rows.
    free: VarId,
}

impl Vars {
    fn all(&self) -> Vec<VarId> {
        let mut all = self.boxed.clone();
        all.extend([self.fixed, self.lower_only, self.upper_only, self.free]);
        all
    }
}

/// A seeded LP over every bound shape, bounded through rows where the
/// variable bounds are not, with a random objective whose positive weights
/// push boxed variables to their upper bounds.
fn mixed_lp(rng: &mut StdRng, lp: &mut LinearProgram) -> Vars {
    let boxed: Vec<VarId> = (0..3)
        .map(|_| lp.add_variable(rng.gen_range(-3.0..-0.5), rng.gen_range(0.5..3.0)))
        .collect();
    let level = rng.gen_range(-1.0..1.0);
    let fixed = lp.add_variable(level, level);
    let lower_only = lp.add_variable(rng.gen_range(-2.0..0.0), f64::INFINITY);
    let upper_only = lp.add_variable(f64::NEG_INFINITY, rng.gen_range(0.0..2.0));
    let free = lp.add_variable(f64::NEG_INFINITY, f64::INFINITY);
    lp.add_constraint(&[(lower_only, 1.0)], ConstraintOp::Le, 4.0);
    lp.add_constraint(&[(upper_only, 1.0)], ConstraintOp::Ge, -4.0);
    lp.add_constraint(&[(free, 1.0)], ConstraintOp::Le, 3.0);
    lp.add_constraint(&[(free, 1.0)], ConstraintOp::Ge, -3.0);
    Vars {
        boxed,
        fixed,
        lower_only,
        upper_only,
        free,
    }
}

/// Random `≤`/`≥`/`=` rows over `vars`. `=` rows pass through the origin
/// shifted by a feasible-looking rhs; the rest have slack of either sign,
/// so both feasible and infeasible instances occur.
fn random_rows(rng: &mut StdRng, lp: &mut LinearProgram, vars: &[VarId], rows: usize) {
    for r in 0..rows {
        let mut coeffs: Vec<(VarId, f64)> = Vec::new();
        for &v in vars {
            if rng.gen_bool(0.6) {
                coeffs.push((v, rng.gen_range(-2.0..2.0)));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        let (op, rhs) = match r % 3 {
            0 => (ConstraintOp::Le, rng.gen_range(-1.0..4.0)),
            1 => (ConstraintOp::Ge, rng.gen_range(-4.0..1.0)),
            _ => (ConstraintOp::Eq, rng.gen_range(-0.5..0.5)),
        };
        lp.add_constraint(&coeffs, op, rhs);
    }
}

/// A seeded MILP: a [`mixed_lp`] plus three binaries that switch boxed
/// variables on and off (`x ≤ hi·b`, `x ≥ lo·b`), random rows, and a
/// random objective (maximised on even seeds).
fn mixed_milp(seed: u64) -> MilpProblem {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0_0bed);
    let mut milp = MilpProblem::new();
    let vars = mixed_lp(&mut rng, milp.lp_mut());
    let bins: Vec<VarId> = (0..3).map(|_| milp.add_binary()).collect();
    for (&x, &b) in vars.boxed.iter().zip(&bins) {
        let (lo, hi) = milp.lp().bounds(x);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (b, -hi)], ConstraintOp::Le, 0.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (b, -lo)], ConstraintOp::Ge, 0.0);
    }
    let mut all = vars.all();
    all.extend(&bins);
    random_rows(&mut rng, milp.lp_mut(), &all, 4);
    let objective: Vec<(VarId, f64)> = all.iter().map(|&v| (v, rng.gen_range(-1.0..2.0))).collect();
    milp.lp_mut()
        .set_objective(&objective, seed.is_multiple_of(2));
    milp
}

/// Same status; same objective when an optimum exists.
fn assert_agree(label: &str, got: (MilpStatus, f64), want: (MilpStatus, f64)) {
    assert_eq!(got.0, want.0, "{label}: status");
    if want.0 == MilpStatus::Optimal {
        assert!(
            (got.1 - want.1).abs() < TOL,
            "{label}: objective {} vs {}",
            got.1,
            want.1
        );
    }
}

/// A bound edit that keeps every variable's bound finiteness: narrow,
/// shift or fix one boxed variable, or widen it again once fixed.
fn edit_bounds(rng: &mut StdRng, milp: &mut MilpProblem, var: VarId) {
    let (lo, hi) = milp.lp().bounds(var);
    if lo == hi {
        milp.lp_mut().set_bounds(var, lo - 1.0, hi + 1.0);
        return;
    }
    let (new_lo, new_hi) = match rng.gen_range(0..3) {
        0 => (lo, lo + (hi - lo) * rng.gen_range(0.2..0.9)),
        1 => {
            let shift = rng.gen_range(-1.0..1.0);
            (lo + shift, hi + shift)
        }
        _ => {
            let at = rng.gen_range(lo..hi);
            (at, at)
        }
    };
    milp.lp_mut().set_bounds(var, new_lo, new_hi);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Cold branch-and-bound, a warm chain over a sequence of bound edits
    /// and the exhaustive oracle agree on every problem of the chain.
    #[test]
    fn cold_warm_and_exhaustive_solves_agree(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut milp = mixed_milp(seed);
        let oracle = ExhaustiveBackend::default();
        let mut chain = None;
        for step in 0..4 {
            let reference = oracle.solve(&milp);
            let want = (reference.status, reference.objective);
            let cold = milp.solve_cold();
            assert_agree(&format!("seed {seed} step {step} cold"), (cold.status, cold.objective), want);
            let default = milp.solve();
            assert_agree(&format!("seed {seed} step {step} default"), (default.status, default.objective), want);
            let warm = milp.solve_with(&mut dpv_lp::MilpOptions {
                seed: Some(&mut chain),
                ..Default::default()
            });
            assert_agree(&format!("seed {seed} step {step} seeded"), (warm.status, warm.objective), want);
            if warm.status == MilpStatus::Optimal {
                prop_assert!(milp.is_feasible(&warm.values, TOL));
            }
            prop_assert_eq!(warm.stats.warm_declined, 0);
            let var = rng.gen_range(0..3);
            edit_bounds(&mut rng, &mut milp, var);
        }
    }

    /// An LP whose optimum holds boxed variables at their upper bound is
    /// re-solved warm after each of those bounds moves (down, up, and
    /// collapsed onto a fixed value); warm and cold solves agree.
    #[test]
    fn warm_resolves_track_moved_upper_bounds(seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        let vars = mixed_lp(&mut rng, &mut lp);
        random_rows(&mut rng, &mut lp, &vars.all(), 3);
        let objective: Vec<(VarId, f64)> =
            vars.all().iter().map(|&v| (v, rng.gen_range(0.2..2.0))).collect();
        lp.set_objective(&objective, true);
        let (cold, snapshot) = lp.solve_with_snapshot();
        if let Some(mut snapshot) = snapshot {
            let at_upper: Vec<VarId> = vars
                .boxed
                .iter()
                .copied()
                .filter(|&v| (cold.values[v] - lp.bounds(v).1).abs() < 1e-9)
                .collect();
            for var in at_upper {
                let (lo, hi) = lp.bounds(var);
                for (new_lo, new_hi) in [(lo, hi - 0.25 * (hi - lo)), (lo, hi + 0.5), (hi, hi), (lo, hi)] {
                    lp.set_bounds(var, new_lo, new_hi);
                    let reference = lp.solve();
                    let warm = lp
                        .solve_from_basis(&mut snapshot)
                        .expect("a bound-only edit stays warm");
                    prop_assert!(warm.warm_started);
                    prop_assert_eq!(warm.status, reference.status);
                    if reference.status == LpStatus::Optimal {
                        prop_assert!((warm.objective - reference.objective).abs() < TOL,
                            "seed {}: warm {} vs cold {}", seed, warm.objective, reference.objective);
                        prop_assert!(lp.is_feasible(&warm.values, TOL));
                    }
                }
            }
        } else {
            prop_assert_ne!(cold.status, LpStatus::Optimal);
        }
    }
}

/// The fixture family really exercises what it claims: fixed variables
/// stay at their value, and some optima hold a boxed variable at its upper
/// bound or a negative lower bound.
#[test]
fn fixtures_reach_upper_bounds_and_negative_lower_bounds() {
    let (mut at_upper, mut at_negative_lower) = (0, 0);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        let vars = mixed_lp(&mut rng, &mut lp);
        random_rows(&mut rng, &mut lp, &vars.all(), 3);
        let objective: Vec<(VarId, f64)> = vars
            .all()
            .iter()
            .map(|&v| (v, rng.gen_range(-2.0..2.0)))
            .collect();
        lp.set_objective(&objective, true);
        let solution = lp.solve();
        if solution.status != LpStatus::Optimal {
            continue;
        }
        assert!(lp.is_feasible(&solution.values, TOL));
        assert_eq!(solution.values[vars.fixed], lp.bounds(vars.fixed).0);
        for &v in &vars.boxed {
            let (lo, hi) = lp.bounds(v);
            at_upper += usize::from((solution.values[v] - hi).abs() < 1e-9);
            at_negative_lower += usize::from((solution.values[v] - lo).abs() < 1e-9);
        }
    }
    assert!(
        at_upper > 10,
        "only {at_upper} boxed optima at an upper bound"
    );
    assert!(
        at_negative_lower > 10,
        "only {at_negative_lower} boxed optima at a negative lower bound"
    );
}
