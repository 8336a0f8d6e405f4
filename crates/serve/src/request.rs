//! Request description and its decomposition into proof obligations.

use std::sync::Arc;
use std::time::Duration;

use dpv_absint::{BoxDomain, Interval};
use dpv_core::{
    split_box, Characterizer, CoreError, RiskCondition, StartRegion, VerificationProblem,
};
use dpv_nn::Network;
use dpv_shard::ShardedEnvelope;

use crate::server::ServeError;

/// Where a request's proof obligations live at the cut layer.
#[derive(Debug, Clone)]
pub enum RegionSpec {
    /// One start region — the monolithic assume-guarantee shape (or a
    /// Lemma-2 abstraction box). Box regions may be subdivided; an
    /// octagon is solved as a single root obligation.
    Single(StartRegion),
    /// A cluster-partitioned envelope: one obligation root per shard.
    Sharded {
        /// The sharded activation envelope (built at the request's cut
        /// layer, with the cut layer's dimension).
        envelope: ShardedEnvelope,
        /// Encode each shard's adjacent-difference constraints (`true`,
        /// octagon regions) or only its box part (`false`).
        use_difference_constraints: bool,
    },
}

/// A verification request: the things a client would ship to a resident
/// verifier — perception network, cut layer, characterizer, a *family* of
/// risk conditions to check under the same region, and the region itself.
///
/// The server decomposes a request into
/// `families × shards × sub-boxes` proof obligations. `subdivision`
/// bisects every **box** obligation root `subdivision` times along its
/// widest dimension (via [`dpv_core::split_box`], the same deterministic
/// rule the refinement work-list uses), yielding `2^subdivision` sub-box
/// obligations per root; octagon roots are never subdivided.
#[derive(Debug, Clone)]
pub struct VerificationRequest {
    /// The full perception network (split at `cut_layer` server-side).
    pub perception: Network,
    /// The cut layer (zero-based) the characterizer and regions live at.
    pub cut_layer: usize,
    /// The input-property characterizer `h_φ`.
    pub characterizer: Characterizer,
    /// The risk-property family: every condition is verified over the
    /// same region set. Must be non-empty.
    pub risks: Vec<RiskCondition>,
    /// The start region(s) at the cut layer.
    pub region: RegionSpec,
    /// Bisection levels applied to each box obligation root.
    pub subdivision: u32,
    /// Optional wall-clock budget for the whole request, measured on the
    /// monotonic clock from the moment [`crate::ObligationServer::serve`]
    /// is entered. When it expires, in-flight solves are cancelled
    /// cooperatively and unsolved obligations are skipped; every affected
    /// obligation reports `Unknown("deadline-exceeded")` (see
    /// [`crate::FailureReason`]) and already-computed verdicts are never
    /// lost. `None` means no deadline.
    pub deadline: Option<Duration>,
}

/// One proof obligation: a `(problem, template root, sub-region)` triple
/// plus its deterministic coordinates in the request.
#[derive(Debug, Clone)]
pub(crate) struct Obligation {
    /// Position in the request's global obligation order (family-major,
    /// then shard, then sub-box) — the fold order.
    pub index: usize,
    /// Index into [`VerificationRequest::risks`].
    pub family: usize,
    /// Shard index (0 for [`RegionSpec::Single`]).
    pub shard: usize,
    /// Sub-box index within the shard (0 for unsubdivided roots).
    pub sub_box: usize,
    /// The verification problem for this family member.
    pub problem: Arc<VerificationProblem>,
    /// The region to solve.
    pub region: StartRegion,
}

/// All obligations of one `(family, shard)` pair — they share one
/// encoding template rooted at `root`, which is what makes admission
/// batchable.
#[derive(Debug, Clone)]
pub(crate) struct ObligationGroup {
    pub problem: Arc<VerificationProblem>,
    pub root: StartRegion,
    pub obligations: Vec<Obligation>,
}

/// Deterministically enumerates the sub-boxes of `root` after `levels`
/// widest-dimension bisections, left child before right child.
fn bisect(root: &BoxDomain, levels: u32, out: &mut Vec<BoxDomain>) {
    if levels == 0 {
        out.push(root.clone());
        return;
    }
    let (left, right) = split_box(root);
    bisect(&left, levels - 1, out);
    bisect(&right, levels - 1, out);
}

fn invalid(field: &'static str, reason: String) -> ServeError {
    ServeError::InvalidRequest { field, reason }
}

/// Every interval finite with `lo ≤ hi`; `what` names the bound family in
/// the error.
fn check_intervals(what: &str, intervals: &[Interval]) -> Result<(), ServeError> {
    for (i, interval) in intervals.iter().enumerate() {
        if !interval.lo.is_finite() || !interval.hi.is_finite() {
            return Err(invalid(
                "region",
                format!(
                    "{what} {i} is not finite: [{}, {}]",
                    interval.lo, interval.hi
                ),
            ));
        }
        if interval.lo > interval.hi {
            return Err(invalid(
                "region",
                format!("{what} {i} is inverted: [{}, {}]", interval.lo, interval.hi),
            ));
        }
    }
    Ok(())
}

fn check_region(region: &StartRegion) -> Result<(), ServeError> {
    match region {
        StartRegion::Box(b) => check_intervals("bound", b.bounds()),
        StartRegion::Octagon(o) => {
            check_intervals("bound", o.bounds())?;
            check_intervals("difference bound", o.diffs())
        }
    }
}

impl VerificationRequest {
    /// Admission checks on the caller-supplied shapes and numbers that
    /// encoding and solving assume: at least one risk condition, every
    /// risk threshold and coefficient finite, a cut layer inside the
    /// network, a characterizer attached at that layer and as wide as it,
    /// every parameter of the verified tail and of the characterizer finite,
    /// every region bound finite with `lower ≤ upper`, and a region as wide
    /// as the cut layer. Costs one pass over the regions, the risks and the
    /// weights encoding reads; the perception head before the cut is not
    /// walked.
    ///
    /// # Errors
    /// [`ServeError::InvalidRequest`] naming the field at fault.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.risks.is_empty() {
            return Err(invalid(
                "risks",
                "a verification request needs at least one risk condition".into(),
            ));
        }
        for risk in &self.risks {
            for inequality in risk.inequalities() {
                if !inequality.rhs.is_finite() {
                    return Err(invalid(
                        "risks",
                        format!(
                            "risk `{}` has a non-finite threshold {}",
                            risk.name(),
                            inequality.rhs
                        ),
                    ));
                }
                if inequality.coeffs.iter().any(|c| !c.is_finite()) {
                    return Err(invalid(
                        "risks",
                        format!("risk `{}` has a non-finite coefficient", risk.name()),
                    ));
                }
            }
        }
        if self.cut_layer >= self.perception.len() {
            return Err(invalid(
                "cut_layer",
                format!(
                    "cut layer {} is out of range for a {}-layer network",
                    self.cut_layer,
                    self.perception.len()
                ),
            ));
        }
        let cut_width = self.perception.layer_output_dim(self.cut_layer);
        if self.characterizer.cut_layer() != self.cut_layer {
            return Err(invalid(
                "characterizer",
                format!(
                    "characterizer is attached at layer {} but the request cuts at {}",
                    self.characterizer.cut_layer(),
                    self.cut_layer
                ),
            ));
        }
        if self.characterizer.feature_dim() != cut_width {
            return Err(invalid(
                "characterizer",
                format!(
                    "characterizer expects {} features but cut layer {} has width {cut_width}",
                    self.characterizer.feature_dim(),
                    self.cut_layer
                ),
            ));
        }
        // Encoding reads the parameters of the verified tail and of the
        // characterizer; a non-finite one would panic in the interval
        // arithmetic of bound propagation.
        let tail = &self.perception.layers()[self.cut_layer + 1..];
        if let Some(i) = tail.iter().position(|l| !l.has_finite_parameters()) {
            return Err(invalid(
                "perception",
                format!(
                    "layer {} (in the verified tail) has a non-finite parameter",
                    self.cut_layer + 1 + i
                ),
            ));
        }
        let head = self.characterizer.network().layers();
        if let Some(i) = head.iter().position(|l| !l.has_finite_parameters()) {
            return Err(invalid(
                "characterizer",
                format!("characterizer layer {i} has a non-finite parameter"),
            ));
        }
        let region_dim = match &self.region {
            RegionSpec::Single(region) => {
                check_region(region)?;
                region.dim()
            }
            RegionSpec::Sharded { envelope, .. } => {
                for shard in envelope.shards() {
                    check_intervals("shard bound", shard.neuron_bounds())?;
                    check_intervals("shard difference bound", shard.diff_bounds())?;
                }
                envelope.dim()
            }
        };
        if region_dim != cut_width {
            return Err(invalid(
                "region",
                format!(
                    "region has dimension {region_dim} but cut layer {} has width {cut_width}",
                    self.cut_layer
                ),
            ));
        }
        Ok(())
    }

    /// The shard roots of the request, in shard-index order.
    fn shard_roots(&self, problem: &VerificationProblem) -> Result<Vec<StartRegion>, CoreError> {
        match &self.region {
            // `validate` has already matched the region's width to the cut.
            RegionSpec::Single(region) => Ok(vec![region.clone()]),
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => problem.shard_regions(envelope, *use_difference_constraints),
        }
    }

    /// Decomposes the request into obligation groups in deterministic
    /// order: family-major, then shard, then sub-box. Obligation indices
    /// are assigned in exactly this order, which is also the fold order.
    pub(crate) fn decompose(&self) -> Result<Vec<ObligationGroup>, CoreError> {
        let mut groups = Vec::new();
        let mut index = 0usize;
        for (family, risk) in self.risks.iter().enumerate() {
            let problem = Arc::new(VerificationProblem::new(
                self.perception.clone(),
                self.cut_layer,
                self.characterizer.clone(),
                risk.clone(),
            )?);
            let roots = self.shard_roots(&problem)?;
            for (shard, root) in roots.into_iter().enumerate() {
                let sub_regions: Vec<StartRegion> = match &root {
                    StartRegion::Box(b) => {
                        let mut leaves = Vec::new();
                        bisect(b, self.subdivision, &mut leaves);
                        leaves.into_iter().map(StartRegion::Box).collect()
                    }
                    octagon => vec![octagon.clone()],
                };
                let obligations = sub_regions
                    .into_iter()
                    .enumerate()
                    .map(|(sub_box, region)| {
                        let obligation = Obligation {
                            index,
                            family,
                            shard,
                            sub_box,
                            problem: Arc::clone(&problem),
                            region,
                        };
                        index += 1;
                        obligation
                    })
                    .collect();
                groups.push(ObligationGroup {
                    problem: Arc::clone(&problem),
                    root,
                    obligations,
                });
            }
        }
        Ok(groups)
    }
}
