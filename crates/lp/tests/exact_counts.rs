//! Exact solver-count pins.
//!
//! Every assertion here is on a deterministic count (`SolveStats` fields)
//! or on the exact bit pattern of an objective. Tableau layout changes that
//! claim to keep every pivot identical — same entering column, same leaving
//! row, same arithmetic on every value the pivot rules read — must pass this
//! file unedited; a changed count means the pivot sequence changed.
//!
//! The fixtures cover every standard-form row kind: `Le` and `Ge` rows,
//! rows whose standard-form rhs is negative (negated at tableau build),
//! `Eq` rows (which carry their own inverse column) and the bound rows of
//! boxed variables.

use dpv_lp::{encode_relu_big_m, ConstraintOp, MilpProblem, MilpStatus, SolveStats, VarId};

/// SplitMix64 stream mapped into `[lo, hi)`: fixture weights independent of
/// any RNG crate.
struct Stream(u64);

impl Stream {
    fn next(&mut self, lo: f64, hi: f64) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// A one-hidden-layer ReLU network `x → relu(W x + b) → v·h + c` encoded as
/// a MILP over the root input box `[-1, 1]^inputs`, with big-M constants
/// from interval arithmetic on that box. Returns the problem, the input
/// variables and the output variable.
fn relu_network(seed: u64, inputs: usize, hidden: usize) -> (MilpProblem, Vec<VarId>, VarId) {
    let mut rng = Stream(seed);
    let mut milp = MilpProblem::new();
    let xs: Vec<VarId> = (0..inputs).map(|_| milp.add_variable(-1.0, 1.0)).collect();
    let mut out_terms = Vec::new();
    let mut out_lo = 0.0;
    let mut out_hi = 0.0;
    for _ in 0..hidden {
        let weights: Vec<f64> = (0..inputs).map(|_| rng.next(-1.0, 1.0)).collect();
        let bias = rng.next(-0.5, 0.5);
        let radius: f64 = weights.iter().map(|w| w.abs()).sum();
        let (lo, hi) = (bias - radius, bias + radius);
        // Pre-activation as an equality row with a negative-leaning rhs.
        let pre = milp.add_variable(lo, hi);
        let mut row: Vec<(VarId, f64)> = xs.iter().copied().zip(weights).collect();
        row.push((pre, -1.0));
        milp.lp_mut().add_constraint(&row, ConstraintOp::Eq, -bias);
        let post = milp.add_variable(0.0, f64::INFINITY);
        encode_relu_big_m(&mut milp, pre, post, lo, hi);
        let v = rng.next(-1.0, 1.0);
        out_terms.push((post, v));
        if v > 0.0 {
            out_hi += v * hi.max(0.0);
        } else {
            out_lo += v * hi.max(0.0);
        }
    }
    let c = rng.next(-0.2, 0.2);
    let y = milp.add_variable(out_lo + c, out_hi + c);
    out_terms.push((y, -1.0));
    milp.lp_mut()
        .add_constraint(&out_terms, ConstraintOp::Eq, -c);
    // A `Ge` row and a negative-rhs `Le` row on the inputs.
    milp.lp_mut()
        .add_constraint(&[(xs[0], 1.0), (xs[1], 1.0)], ConstraintOp::Ge, -1.5);
    milp.lp_mut()
        .add_constraint(&[(xs[0], -1.0), (xs[1], 1.0)], ConstraintOp::Le, -0.1);
    (milp, xs, y)
}

fn stats(
    nodes_explored: usize,
    nodes_pruned: usize,
    warm_solves: usize,
    cold_solves: usize,
    warm_declined: usize,
    simplex_iterations: usize,
) -> SolveStats {
    SolveStats {
        nodes_explored,
        nodes_pruned,
        warm_solves,
        cold_solves,
        warm_declined,
        simplex_iterations,
    }
}

#[test]
fn maximising_a_relu_network_output_has_pinned_counts() {
    let (mut milp, _, y) = relu_network(7, 3, 8);
    milp.lp_mut().set_objective(&[(y, 1.0)], true);
    let solution = milp.solve();
    assert_eq!(solution.status, MilpStatus::Optimal);
    assert_eq!(solution.stats, stats(15, 6, 14, 1, 0, 82));
    assert_eq!(solution.objective.to_bits(), 4607929682961303675);
}

#[test]
fn minimising_with_seeded_warm_chain_has_pinned_counts() {
    // Two problems of one structure, only the input box apart: the first
    // solve's final basis primes the second solve's root node.
    let (mut first, xs, y) = relu_network(11, 3, 8);
    first.lp_mut().set_objective(&[(y, 1.0)], false);
    let mut second = first.clone();
    second.lp_mut().set_bounds(xs[0], -0.25, 0.75);
    second.lp_mut().set_bounds(xs[2], -1.0, 0.0);

    let mut seed = None;
    let a = first.solve_seeded(&mut seed);
    assert_eq!(a.status, MilpStatus::Optimal);
    assert_eq!(a.stats, stats(7, 3, 6, 1, 0, 63));
    assert_eq!(a.objective.to_bits(), 13833256107542023656);
    assert!(seed.is_some());

    let b = second.solve_seeded(&mut seed);
    assert_eq!(b.status, MilpStatus::Optimal);
    // Fully warm: the seed replaced the root's cold two-phase solve.
    assert_eq!(b.stats, stats(19, 4, 19, 0, 0, 93));
    assert_eq!(b.objective.to_bits(), 13832520215968582053);
}

#[test]
fn refuting_an_unreachable_threshold_has_pinned_counts() {
    // Feasibility query `y ≥ 1.2`, just above the network's true maximum
    // (1.1659…, pinned by the maximisation test above):
    // every leaf is infeasible, and every warm leaf is pruned only after
    // its Farkas row re-certifies against the live constraints (a failed
    // certificate would show up in `warm_declined`).
    let (mut milp, _, y) = relu_network(7, 3, 8);
    milp.lp_mut()
        .add_constraint(&[(y, 1.0)], ConstraintOp::Ge, 1.2);
    let solution = milp.solve();
    assert_eq!(solution.status, MilpStatus::Infeasible);
    assert_eq!(solution.stats, stats(37, 0, 36, 1, 0, 225));
}
