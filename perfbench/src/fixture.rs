//! Seeded fixtures shared by the workloads: the paper's pipeline at its
//! default cut (`paper-cold`, `resident-stream`, `monitor-frames`) and the
//! earlier-cut refutation fixture (`deep-refute`), plus the reference
//! verdicts every served report is checked against.

use dpv_absint::{AbstractDomain, BoxDomain};
use dpv_core::{
    split_box, AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty, RiskCondition,
    ShardedVerificationConfig, StartRegion, Verdict, VerificationProblem, VerificationStrategy,
    Workflow, WorkflowConfig,
};
use dpv_lp::{BranchAndBoundBackend, MilpStatus, SolveStats, SolverBackend};
use dpv_monitor::ActivationEnvelope;
use dpv_nn::{Layer, Network};
use dpv_scenegen::{DatasetBundle, GeneratorConfig, PropertyKind};
use dpv_serve::{RegionSpec, RequestReport, VerificationRequest};
use dpv_shard::{ShardConfig, ShardedEnvelope};
use dpv_tensor::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tolerance for concrete re-execution of counterexamples.
pub const CEX_TOL: f64 = 1e-6;

/// Mixes a workload seed with a stream label into an independent RNG seed.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e9b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_b133_111b);
    z ^ (z >> 31)
}

/// Verdict class used for reference comparisons (counterexample points
/// legitimately differ between a whole-shard and a sub-box solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Safe,
    Unsafe,
}

fn class_of(verdict: &Verdict) -> Option<Class> {
    match verdict {
        Verdict::Safe => Some(Class::Safe),
        Verdict::Unsafe(_) => Some(Class::Unsafe),
        Verdict::Unknown(_) => None,
    }
}

/// Everything needed to build and check requests over one trained pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub perception: Network,
    pub cut_layer: usize,
    pub characterizer: Characterizer,
    /// Monolithic activation envelope (the paper's assume-guarantee `S̃`).
    pub envelope: ActivationEnvelope,
    /// Cluster-partitioned envelope, when the fixture is sharded.
    pub sharded: Option<ShardedEnvelope>,
    /// Reachable interval of output 0 over the monolithic envelope box.
    pub output_lo: f64,
    pub output_hi: f64,
}

impl Pipeline {
    /// The region spec every request over this pipeline uses: box shards
    /// (so they can be subdivided) or the single envelope box.
    pub fn region(&self) -> RegionSpec {
        match &self.sharded {
            Some(envelope) => RegionSpec::Sharded {
                envelope: envelope.clone(),
                use_difference_constraints: false,
            },
            None => RegionSpec::Single(StartRegion::Box(self.envelope.box_only())),
        }
    }

    pub fn request(&self, risks: Vec<RiskCondition>, subdivision: u32) -> VerificationRequest {
        VerificationRequest {
            perception: self.perception.clone(),
            cut_layer: self.cut_layer,
            characterizer: self.characterizer.clone(),
            risks,
            region: self.region(),
            subdivision,
            deadline: None,
        }
    }

    /// The strategy whose start region contains every shard and sub-box.
    pub fn strategy(&self) -> VerificationStrategy {
        VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope: self.envelope.clone(),
            use_difference_constraints: false,
        })
    }

    /// Reference family verdict classes through the core path, serial
    /// backend, no server.
    pub fn reference(&self, risks: &[RiskCondition]) -> Result<Vec<Class>, String> {
        let backend = BranchAndBoundBackend;
        risks
            .iter()
            .map(|risk| {
                let problem = VerificationProblem::new(
                    self.perception.clone(),
                    self.cut_layer,
                    self.characterizer.clone(),
                    risk.clone(),
                )
                .map_err(|e| e.to_string())?;
                let verdict = match &self.sharded {
                    Some(envelope) => {
                        problem
                            .verify_sharded_with(
                                envelope,
                                &ShardedVerificationConfig {
                                    use_difference_constraints: false,
                                    workers: 1,
                                },
                                &backend,
                            )
                            .map_err(|e| e.to_string())?
                            .verdict
                    }
                    None => {
                        problem
                            .verify_with(&self.strategy(), &backend)
                            .map_err(|e| e.to_string())?
                            .verdict
                    }
                };
                class_of(&verdict)
                    .ok_or_else(|| format!("reference for {} is Unknown", risk.name()))
            })
            .collect()
    }
}

/// One obligation of a request, reconstructed in the server's documented
/// order (family-major, then shard, then sub-box).
#[derive(Debug, Clone)]
pub struct ObligationSpec {
    pub family: usize,
    pub region: StartRegion,
}

fn bisect(root: &BoxDomain, levels: u32, out: &mut Vec<BoxDomain>) {
    if levels == 0 {
        out.push(root.clone());
        return;
    }
    let (left, right) = split_box(root);
    bisect(&left, levels - 1, out);
    bisect(&right, levels - 1, out);
}

/// The sub-regions of one obligation root: `levels` widest-dimension
/// bisections of a box, left child first; octagons are never subdivided.
pub fn sub_regions(root: &StartRegion, levels: u32) -> Vec<StartRegion> {
    match root {
        StartRegion::Box(b) => {
            let mut leaves = Vec::new();
            bisect(b, levels, &mut leaves);
            leaves.into_iter().map(StartRegion::Box).collect()
        }
        octagon => vec![octagon.clone()],
    }
}

/// Every obligation of a request, in the server's obligation-index order.
pub fn obligations(request: &VerificationRequest) -> Result<Vec<ObligationSpec>, String> {
    let mut out = Vec::new();
    for (family, risk) in request.risks.iter().enumerate() {
        let roots = match &request.region {
            RegionSpec::Single(region) => vec![region.clone()],
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => VerificationProblem::new(
                request.perception.clone(),
                request.cut_layer,
                request.characterizer.clone(),
                risk.clone(),
            )
            .and_then(|problem| problem.shard_regions(envelope, *use_difference_constraints))
            .map_err(|e| e.to_string())?,
        };
        for root in &roots {
            out.extend(
                sub_regions(root, request.subdivision)
                    .into_iter()
                    .map(|region| ObligationSpec { family, region }),
            );
        }
    }
    Ok(out)
}

/// Checks a served report against the reference classes: no obligation is
/// `Unknown`, every family verdict has the reference class, and every
/// `Unsafe` obligation's counterexample re-executes concretely inside its
/// own sub-region (`confirm_counterexample` plus sub-region containment).
fn check_report(
    pipeline: &Pipeline,
    request: &VerificationRequest,
    specs: &[ObligationSpec],
    expected: &[Class],
    report: &RequestReport,
) -> Result<(), String> {
    if report.obligations.len() != specs.len() || report.verdicts.len() != expected.len() {
        return Err(format!(
            "report shape {}x{} does not match the request ({}x{})",
            report.verdicts.len(),
            report.obligations.len(),
            expected.len(),
            specs.len()
        ));
    }
    for (family, (verdict, want)) in report.verdicts.iter().zip(expected).enumerate() {
        if class_of(&verdict.verdict) != Some(*want) {
            return Err(format!(
                "family {family} ({}) verdict {:?} differs from reference {want:?}",
                verdict.risk,
                class_of(&verdict.verdict)
            ));
        }
    }
    let strategy = pipeline.strategy();
    let problems: Vec<VerificationProblem> = request
        .risks
        .iter()
        .map(|risk| {
            VerificationProblem::new(
                request.perception.clone(),
                request.cut_layer,
                request.characterizer.clone(),
                risk.clone(),
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    for (outcome, spec) in report.obligations.iter().zip(specs) {
        match &outcome.verdict {
            Verdict::Safe => {}
            Verdict::Unknown(reason) => {
                return Err(format!(
                    "obligation {} is Unknown ({reason})",
                    outcome.index
                ))
            }
            Verdict::Unsafe(cex) => {
                let confirmed = problems[spec.family]
                    .confirm_counterexample(&strategy, cex, CEX_TOL)
                    .map_err(|e| e.to_string())?;
                if !confirmed || !spec.region.contains(cex.activation.as_slice(), CEX_TOL) {
                    return Err(format!(
                        "obligation {} counterexample does not re-execute",
                        outcome.index
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A request plus everything needed to check a report of it.
#[derive(Debug, Clone)]
pub struct Checked {
    pub pipeline: Pipeline,
    pub request: VerificationRequest,
    pub specs: Vec<ObligationSpec>,
    pub expected: Vec<Class>,
}

impl Checked {
    /// Builds the request and its reference classes through the core path.
    pub fn new(
        pipeline: Pipeline,
        risks: Vec<RiskCondition>,
        subdivision: u32,
    ) -> Result<Self, String> {
        let expected = pipeline.reference(&risks)?;
        Self::with_expected(pipeline, risks, subdivision, expected)
    }

    pub fn with_expected(
        pipeline: Pipeline,
        risks: Vec<RiskCondition>,
        subdivision: u32,
        expected: Vec<Class>,
    ) -> Result<Self, String> {
        let request = pipeline.request(risks, subdivision);
        let specs = obligations(&request)?;
        Ok(Self {
            pipeline,
            request,
            specs,
            expected,
        })
    }

    pub fn check(&self, report: &RequestReport) -> Result<(), String> {
        check_report(
            &self.pipeline,
            &self.request,
            &self.specs,
            &self.expected,
            report,
        )
    }
}

/// The verdict surface two reports must agree on (timings excluded).
pub fn view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, Verdict)> {
    report
        .obligations
        .iter()
        .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// paper fixture: WorkflowConfig::bench(), cut 6, 4 box shards, 4 risk families

/// Trains the paper pipeline from `train_seed` and shards its envelope with
/// the k-means seed `layout_seed`.
pub fn paper_pipeline(train_seed: u64, layout_seed: u64) -> Result<Pipeline, String> {
    let config = WorkflowConfig {
        seed: train_seed,
        ..WorkflowConfig::bench()
    };
    let outcome = Workflow::new(config.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let bundle = DatasetBundle::generate(&GeneratorConfig {
        scene: config.scene,
        samples: config.training_samples,
        seed: config.seed ^ 0x11,
        threads: 1,
    });
    let sharded = ShardedEnvelope::from_inputs(
        &outcome.perception,
        outcome.cut_layer,
        &bundle.images,
        config.envelope_margin,
        &ShardConfig::fixed(4).with_seed(layout_seed),
    )
    .map_err(|e| e.to_string())?;
    let (_, tail) = outcome
        .perception
        .split_at(outcome.cut_layer)
        .map_err(|e| e.to_string())?;
    let out = outcome
        .envelope
        .box_only()
        .propagate(tail.layers())
        .to_box()[0];
    Ok(Pipeline {
        perception: outcome.perception,
        cut_layer: outcome.cut_layer,
        characterizer: outcome.bend_characterizer,
        envelope: outcome.envelope,
        sharded: Some(sharded),
        output_lo: out.lo,
        output_hi: out.hi,
    })
}

/// The seeded threshold shift of a workload's base risk family: small
/// enough to keep the per-request work of the families, large enough that
/// every seed asks a different question.
pub fn base_jitter(seed: u64) -> f64 {
    StdRng::seed_from_u64(sub_seed(seed, 12)).gen_range(0.0..0.01)
}

/// The four waypoint risk families, shifted by `jitter`: far-left and far-right sit outside the reachable interval
/// (Safe); straight and mid cut through it (Unsafe).
pub fn paper_risks(pipeline: &Pipeline, jitter: f64) -> Vec<RiskCondition> {
    let (lo, hi) = (pipeline.output_lo, pipeline.output_hi);
    let mid = 0.5 * (lo + hi);
    vec![
        RiskCondition::new("far-left").output_le(0, lo - 0.05 - jitter),
        RiskCondition::new("straight")
            .output_le(0, 0.1 + jitter)
            .output_ge(0, -0.1 - jitter),
        RiskCondition::new("mid").output_le(0, mid + jitter),
        RiskCondition::new("far-right").output_ge(0, hi + 0.05 + jitter),
    ]
}

/// Training seed of the solver workloads' checkpoint. Per-request solver
/// work moves up to 2x between checkpoints trained from different seeds
/// (569 to 1,128 branch-and-bound nodes per `paper-cold` request over six
/// seeds), so `paper-cold`, `deep-refute` and `resident-stream` verify one
/// fixed checkpoint (still trained at set-up, so `setup_s` pays for it) and
/// take every other input from the workload seed. `monitor-frames`, whose
/// per-frame work does not depend on the weights, trains from the seed.
pub const CHECKPOINT_SEED: u64 = 42;

/// Subdivision of the paper fixture: 4 families x 4 shards x 2^4 sub-boxes.
pub const PAPER_SUBDIVISION: u32 = 4;

/// A checkpoint perturbed in one dense or convolutional layer: a synthetic
/// retrain step.
pub fn retrain(prior: &Network, layer: usize, eps: f64) -> Network {
    let mut next = prior.clone();
    let weights = match &mut next.layers_mut()[layer] {
        Layer::Dense(d) => d.weights_mut(),
        Layer::Conv2d(c) => c.weights_mut(),
        _ => panic!("layer {layer} has no weights"),
    };
    let (rows, cols) = (weights.rows(), weights.cols());
    for r in 0..rows {
        for c in 0..cols {
            weights[(r, c)] += eps * (1.0 + ((r + c) % 7) as f64 * 0.1);
        }
    }
    next
}

// ---------------------------------------------------------------------------
// deep-refute fixture: cut 4, envelope margin 0.25, thresholds in the gap

/// Cut layer of the refutation fixture (24 ReLU binaries once widened).
pub const DEEP_CUT: usize = 4;
const DEEP_MARGIN: f64 = 0.25;
/// How the two Safe families' thresholds are placed: the proof work each
/// refutation is placed at and the work the bisection spends on it, both in
/// pivot equivalents (see [`proof_work`]), and each probe's node budget (a
/// runaway tree means `t` is too high).
const DEEP_PLACEMENT: [Placement; 2] = [
    Placement {
        target_work: 4_750,
        budget_work: 40_000,
        node_limit: 200,
    },
    Placement {
        target_work: 20_500,
        budget_work: 150_000,
        node_limit: 500,
    },
];
/// Pivot equivalents of one branch-and-bound node: solve time tracks pivots
/// plus a per-node cost.
const NODE_WORK: usize = 30;
/// Upper end of the seeded downward shift of each placed threshold.
/// Proof cost is not monotone in the threshold: on one envelope and
/// characterizer, probes 0.0003 apart cost 13,467 and 26,234 pivot
/// equivalents. So the envelope scenes, the
/// characterizer and the placement come from the checkpoint seed, and the
/// workload seed only lowers each threshold by less than this, which keeps
/// the family Safe and its proof tree the same size.
const DEEP_JITTER: f64 = 1e-6;

struct Placement {
    target_work: usize,
    budget_work: usize,
    node_limit: usize,
}

/// The deep-refute fixture: the request over the two Safe families and what
/// placing their thresholds cost.
pub struct DeepFixture {
    pub checked: Checked,
    /// Rendered scenes the envelope was built from.
    pub images: Vec<Vector>,
    /// Serial reference tree sizes of the two placed families.
    pub reference_nodes: Vec<usize>,
    /// Branch-and-bound nodes spent placing the thresholds.
    pub placement_nodes: usize,
}

/// Builds the fixture from `train_seed` (checkpoint, envelope scenes,
/// characterizer, placement); `seed` only shifts the thresholds (see
/// [`DEEP_JITTER`]).
pub fn deep_fixture(train_seed: u64, seed: u64) -> Result<DeepFixture, String> {
    let config = WorkflowConfig {
        training_samples: 120,
        characterizer_samples: 120,
        validation_samples: 80,
        perception_epochs: 8,
        scenario_samples: 0,
        violation_samples: 0,
        seed: train_seed,
        ..WorkflowConfig::small()
    };
    let outcome = Workflow::new(config.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let bundle = DatasetBundle::generate(&GeneratorConfig {
        scene: config.scene,
        samples: 150,
        seed: sub_seed(train_seed, 3),
        threads: 1,
    });
    let mut rng = StdRng::seed_from_u64(sub_seed(train_seed, 4));
    let examples =
        dpv_scenegen::property_examples(&config.scene, PropertyKind::BendsRight, 160, &mut rng);
    let characterizer = Characterizer::train(
        InputProperty::new("bends_right", "scene oracle"),
        &outcome.perception,
        DEEP_CUT,
        &examples,
        &CharacterizerConfig::small(),
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let envelope =
        ActivationEnvelope::from_inputs(&outcome.perception, DEEP_CUT, &bundle.images, DEEP_MARGIN)
            .map_err(|e| e.to_string())?;
    let (_, tail) = outcome
        .perception
        .split_at(DEEP_CUT)
        .map_err(|e| e.to_string())?;
    let out = envelope.box_only().propagate(tail.layers()).to_box()[0];
    let pipeline = Pipeline {
        perception: outcome.perception,
        cut_layer: DEEP_CUT,
        characterizer,
        envelope,
        sharded: None,
        output_lo: out.lo,
        output_hi: out.hi,
    };

    // Upper end of the search: the lowest output any recorded activation
    // that fires the characterizer reaches (the exact minimum is below it).
    let mut upper = f64::INFINITY;
    for image in &bundle.images {
        let activation = pipeline.perception.activation_at(DEEP_CUT, image);
        if pipeline.characterizer.logit(&activation) >= 0.0 {
            upper = upper.min(tail.forward(&activation)[0]);
        }
    }
    if !upper.is_finite() {
        upper = out.hi;
    }

    let mut jitter = StdRng::seed_from_u64(sub_seed(seed, 13));
    let mut placement_nodes = 0;
    let mut lower = out.lo;
    let mut risks = Vec::new();
    let mut reference_nodes = Vec::new();
    for (i, placement) in DEEP_PLACEMENT.iter().enumerate() {
        // Proof cost grows with the threshold on the whole, so the larger
        // target is searched above the smaller one's threshold.
        let placed = place_threshold(&pipeline, lower, upper, placement, &mut placement_nodes)?;
        lower = placed;
        let threshold = placed - jitter.gen_range(0.0..DEEP_JITTER);
        let nodes = confirm_safe(&pipeline, threshold, &mut placement_nodes)?;
        risks.push(RiskCondition::new(format!("gap-{i}")).output_le(0, threshold));
        reference_nodes.push(nodes);
    }
    let expected = vec![Class::Safe; risks.len()];
    Ok(DeepFixture {
        checked: Checked::with_expected(pipeline, risks, 0, expected)?,
        images: bundle.images,
        reference_nodes,
        placement_nodes,
    })
}

/// Bisects a threshold `t` between the interval lower bound (refuted at the
/// root) and a concretely reached output (Unsafe) until its probes have spent
/// `placement.budget_work`, towards a serial proof that `output_0 <= t` is
/// unreachable costing `placement.target_work` ([`proof_work`]), and returns
/// the Safe probe whose proof came closest. [`confirm_safe`] then proves the
/// threshold Safe on the serial path, so the placement is sound without the
/// exact minimisation.
fn place_threshold(
    pipeline: &Pipeline,
    mut lo: f64,
    mut hi: f64,
    placement: &Placement,
    spent: &mut usize,
) -> Result<f64, String> {
    let root = StartRegion::Box(pipeline.envelope.box_only());
    // Closest Safe probe so far, by distance to the target.
    let mut best: Option<(f64, usize)> = None;
    let miss = |work: usize| work.abs_diff(placement.target_work);
    let mut used = 0;
    while used < placement.budget_work {
        let t = 0.5 * (lo + hi);
        let template = threshold_problem(pipeline, t)?
            .encoding_template(&root)
            .map_err(|e| e.to_string())?;
        let mut encoded = template
            .encoding()
            .instantiate(&root)
            .map_err(|e| e.to_string())?;
        encoded.milp.set_node_limit(placement.node_limit);
        let solution = BranchAndBoundBackend.solve(&encoded.milp);
        *spent += solution.stats.nodes_explored;
        let work = proof_work(&solution.stats);
        used += work;
        if solution.status != MilpStatus::Infeasible {
            hi = t;
            continue;
        }
        if best.is_none_or(|(_, w)| miss(work) < miss(w)) {
            best = Some((t, work));
        }
        if work < placement.target_work {
            lo = t;
        } else {
            hi = t;
        }
    }
    best.map(|(t, _)| t)
        .ok_or_else(|| "no Safe threshold found in the integrality gap".to_string())
}

/// The question `output_0 <= t` over the pipeline's cut.
fn threshold_problem(pipeline: &Pipeline, t: f64) -> Result<VerificationProblem, String> {
    VerificationProblem::new(
        pipeline.perception.clone(),
        pipeline.cut_layer,
        pipeline.characterizer.clone(),
        RiskCondition::new("probe").output_le(0, t),
    )
    .map_err(|e| e.to_string())
}

/// Cost of a proof in pivot equivalents: pivots plus [`NODE_WORK`] per node.
fn proof_work(stats: &SolveStats) -> usize {
    stats.simplex_iterations + NODE_WORK * stats.nodes_explored
}

/// The reference verdict of a threshold: `verify_with` on the serial backend
/// must say Safe. Returns the size of its proof tree.
fn confirm_safe(pipeline: &Pipeline, t: f64, spent: &mut usize) -> Result<usize, String> {
    let outcome = threshold_problem(pipeline, t)?
        .verify_with(&pipeline.strategy(), &BranchAndBoundBackend)
        .map_err(|e| e.to_string())?;
    *spent += outcome.nodes_explored;
    if !outcome.verdict.is_safe() {
        return Err(format!(
            "placed threshold {t} is not Safe on the serial path"
        ));
    }
    Ok(outcome.nodes_explored)
}
