//! The traced run's per-layer measurements. Every workload reports every
//! layer: layers on the workload's own path are read from its operations
//! (server timelines, stream deltas, workload frames); layers off its path
//! are driven once through their public call on the workload's own fixture,
//! so each number is measured, never filled in. `README.md` maps each
//! metric to the end-to-end metric and workload it should move.

use std::time::{Duration, Instant};

use dpv_absint::AbstractDomain;
use dpv_core::{SolveOptions, StartRegion, Verdict, VerificationProblem};
use dpv_delta::{CheckpointDiff, DeltaPlanner, PlannedAction, PriorObligation};
use dpv_lp::{BranchAndBoundBackend, SolveStats};
use dpv_monitor::{ActivationEnvelope, RuntimeMonitor};
use dpv_nn::Network;
use dpv_scenegen::{render_scene, OddSampler, SceneConfig};
use dpv_serve::{RegionSpec, RequestReport, ServeStats, VerificationRequest};
use dpv_shard::{ShardedEnvelope, ShardedMonitor};
use dpv_tensor::Vector;
use dpv_trace::{EventKind, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{obligations, retrain, sub_regions, sub_seed, Checked, Class, Pipeline};
use crate::report::{mean, median, quantile, share, Outcome};
use crate::spans::Spans;
use crate::{serve_fresh, Run, WORKERS};

/// Frames per monitor batch.
pub const BATCH: usize = 16;
/// Frames rendered for the monitor-layer probe of solver workloads.
const PROBE_FRAMES: usize = 256;

// ---------------------------------------------------------------------------
// serve: timelines and server statistics

/// Accumulates the serve-layer view of traced requests.
#[derive(Debug, Default)]
pub struct ServeTrace {
    admission_s: Vec<f64>,
    queue_wait_ns: Vec<f64>,
    busy_ns: f64,
    capacity_ns: f64,
    stats: ServeStats,
    dropped_events: u64,
    /// Closed-loop latencies (s) of traced and untraced twins.
    pub traced: Vec<f64>,
    pub untraced: Vec<f64>,
}

impl ServeTrace {
    /// Folds in one traced report's timeline: admission is request begin
    /// to first enqueue (the whole request when nothing was enqueued),
    /// busy time is every solve-attempt span.
    pub fn add_report(&mut self, report: &RequestReport, workers: usize) {
        let Some(timeline) = &report.timeline else {
            return;
        };
        let (Some(began), Some(duration)) = (timeline.began_at_ns, timeline.duration_ns) else {
            return;
        };
        let first_enqueue = timeline
            .obligations
            .iter()
            .filter_map(|o| o.enqueued_at_ns)
            .min();
        let admission_ns = first_enqueue.map_or(duration, |at| at.saturating_sub(began));
        self.admission_s.push(admission_ns as f64 * 1e-9);
        for obligation in &timeline.obligations {
            if let Some(wait) = obligation.queue_wait_ns {
                self.queue_wait_ns.push(wait as f64);
            }
            for attempt in &obligation.attempts {
                if matches!(
                    attempt.kind,
                    EventKind::SolveAttempt
                        | EventKind::EscalatedRetry
                        | EventKind::CanonicalResolve
                ) {
                    self.busy_ns += attempt.dur_ns as f64;
                }
            }
        }
        self.capacity_ns += (workers as u64 * duration) as f64;
    }

    /// Folds in a server's lifetime statistics and dropped trace events.
    pub fn add_server(&mut self, stats: &ServeStats, dropped_events: u64) {
        self.stats.merge(stats);
        self.dropped_events += dropped_events;
    }

    pub fn metrics(&self, out: &mut Outcome) {
        let s = &self.stats;
        let requests = s.requests.max(1) as f64;
        out.push("serve.admission_ms", mean(&self.admission_s) * 1e3, "ms");
        out.push(
            "serve.queue_wait_p50_us",
            median(&self.queue_wait_ns) * 1e-3,
            "us",
        );
        out.push(
            "serve.worker_busy_share",
            share(self.busy_ns, self.capacity_ns),
            "share",
        );
        out.push(
            "serve.dedup_hit_share",
            share(s.dedup_hits as f64, s.obligations as f64),
            "share",
        );
        let templates = (s.templates.hits + s.templates.misses) as f64;
        out.push(
            "serve.template_hit_share",
            share(s.templates.hits as f64, templates),
            "share",
        );
        let snapshots = (s.snapshots.hits + s.snapshots.misses) as f64;
        out.push(
            "serve.snapshot_hit_share",
            share(s.snapshots.hits as f64, snapshots),
            "share",
        );
        out.push(
            "serve.template_evictions",
            s.templates.evictions as f64 / requests,
            "1/req",
        );
        out.push(
            "serve.canonical_resolves",
            s.canonical_resolves as f64 / requests,
            "1/req",
        );
        out.push("serve.retries", s.retries as f64 / requests, "1/req");
        out.push(
            "trace.overhead_ratio",
            share(median(&self.traced), median(&self.untraced)),
            "ratio",
        );
        out.push("trace.dropped_events", self.dropped_events as f64, "count");
    }
}

// ---------------------------------------------------------------------------
// delta: checkpoint diff and plan

#[derive(Debug, Default)]
pub struct DeltaTrace {
    diff_s: Vec<f64>,
    plan_s: Vec<f64>,
    obligations: usize,
    reused: usize,
    absorbed: usize,
}

impl DeltaTrace {
    /// Diffs and plans `new` against a prior run (`prior_request` served as
    /// `prior`), as `serve_delta` does before it serves anything.
    pub fn probe(
        &mut self,
        spans: &mut Spans,
        prior_request: &VerificationRequest,
        prior: &RequestReport,
        new: &VerificationRequest,
    ) -> Result<(), String> {
        let prior_specs = obligations(prior_request)?;
        let regions: Vec<StartRegion> = obligations(new)?.into_iter().map(|o| o.region).collect();
        let prior_obligations: Vec<PriorObligation> = prior
            .obligations
            .iter()
            .zip(prior_specs)
            .map(|(o, spec)| PriorObligation {
                family: spec.family,
                region: spec.region,
                verdict: o.verdict.clone(),
            })
            .collect();
        let (diff, diff_s) = spans.time("delta", "CheckpointDiff::between", || {
            CheckpointDiff::between(&prior_request.perception, &new.perception)
        });
        let (plan, plan_s) = spans.time("delta", "DeltaPlanner::plan", || {
            DeltaPlanner::new().plan(
                &diff,
                new.cut_layer,
                &new.risks,
                &prior_obligations,
                &regions,
            )
        });
        let plan = plan.map_err(|e| e.to_string())?;
        self.diff_s.push(diff_s);
        self.plan_s.push(plan_s);
        self.obligations += plan.actions().len();
        self.reused += plan
            .actions()
            .iter()
            .filter(|a| **a == PlannedAction::Reuse)
            .count();
        self.absorbed += plan.absorbed_count();
        Ok(())
    }

    pub fn metrics(&self, out: &mut Outcome) {
        let n = self.obligations as f64;
        out.push("delta.diff_us", mean(&self.diff_s) * 1e6, "us");
        out.push("delta.plan_us", mean(&self.plan_s) * 1e6, "us");
        out.push("delta.reuse_share", share(self.reused as f64, n), "share");
        out.push(
            "delta.absorb_share",
            share(self.absorbed as f64, n),
            "share",
        );
    }
}

// ---------------------------------------------------------------------------
// core / absint / lp: serial replay of a workload's obligations

/// Exact counts of one serial replay; identical on every replay of the
/// same inputs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReplayCounts {
    pub unstable_relus: usize,
    pub lp: SolveStats,
}

#[derive(Debug, Default)]
pub struct ReplayTrace {
    fingerprint_s: Vec<f64>,
    template_s: Vec<f64>,
    propagate_s: Vec<f64>,
    instantiate_s: f64,
    instantiated: usize,
    solve_s: Vec<f64>,
    lp_s: f64,
    pub counts: ReplayCounts,
}

impl ReplayTrace {
    /// Replays every obligation of `request` on one thread, one public call
    /// at a time: problem assembly, fingerprint, template build, interval
    /// propagation of the root, batched sub-box bounds, instantiation, and
    /// the core template solve on the serial backend, whose family verdicts
    /// must match `expected` and whose `SolveStats` give the lp counts.
    ///
    /// Counts come only from this replay: with two workers the server's
    /// trees depend on scheduling (which basis a worker was seeded with),
    /// so nodes and pivots are not repeatable there.
    pub fn replay(
        &mut self,
        spans: &mut Spans,
        request: &VerificationRequest,
        expected: &[Class],
    ) -> Result<(), String> {
        let backend = BranchAndBoundBackend;
        let (_, tail) = request
            .perception
            .split_at(request.cut_layer)
            .map_err(|e| e.to_string())?;
        spans.open("bench", "replay");
        let result = (|| {
            for (family, risk) in request.risks.iter().enumerate() {
                let (problem, _) = spans.time("core", "VerificationProblem::new", || {
                    VerificationProblem::new(
                        request.perception.clone(),
                        request.cut_layer,
                        request.characterizer.clone(),
                        risk.clone(),
                    )
                });
                let problem = problem.map_err(|e| e.to_string())?;
                let roots = match &request.region {
                    RegionSpec::Single(region) => vec![region.clone()],
                    RegionSpec::Sharded {
                        envelope,
                        use_difference_constraints,
                    } => problem
                        .shard_regions(envelope, *use_difference_constraints)
                        .map_err(|e| e.to_string())?,
                };
                let mut family_unsafe = false;
                for root in &roots {
                    let (fp, seconds) = spans.time("core", "template_fingerprint", || {
                        problem.template_fingerprint(root)
                    });
                    fp.map_err(|e| e.to_string())?;
                    self.fingerprint_s.push(seconds);
                    let (template, seconds) = spans.time("core", "encoding_template", || {
                        problem.encoding_template(root)
                    });
                    let template = template.map_err(|e| e.to_string())?;
                    self.template_s.push(seconds);
                    let (_, seconds) = spans.time("absint", "BoxDomain::propagate", || {
                        root.box_domain().propagate(tail.layers())
                    });
                    self.propagate_s.push(seconds);

                    let regions = sub_regions(root, request.subdivision);
                    let boxes: Vec<_> = regions.iter().map(StartRegion::box_domain).collect();
                    let box_refs: Vec<_> = boxes.iter().collect();
                    let (bounds, seconds) = spans.time("core", "region_bounds_batch", || {
                        template.encoding().region_bounds_batch(&box_refs)
                    });
                    let bounds = bounds.map_err(|e| e.to_string())?;
                    self.instantiate_s += seconds;
                    for (region, bounds) in regions.iter().zip(&bounds) {
                        let (encoded, instantiate_s) =
                            spans.time("core", "instantiate_with", || {
                                template.encoding().instantiate_with(region, bounds)
                            });
                        let encoded = encoded.map_err(|e| e.to_string())?;
                        self.instantiate_s += instantiate_s;
                        self.instantiated += 1;
                        self.counts.unstable_relus += encoded.num_binaries;
                        // One solve per obligation. Its span counts as lp: it is
                        // branch-and-bound plus one `instantiate_with`, whose
                        // time (measured just above) is taken off `lp.us_per_node`.
                        let (solved, seconds) = spans.time("lp", "solve_with_template", || {
                            problem.solve_with_template(
                                &template,
                                region,
                                &mut SolveOptions::new().bounds(bounds).backend(&backend),
                            )
                        });
                        let (verdict, solution) = solved.map_err(|e| e.to_string())?;
                        self.solve_s.push(seconds);
                        self.lp_s += (seconds - instantiate_s).max(0.0);
                        self.counts.lp += solution.stats;
                        match verdict {
                            Verdict::Safe => {}
                            Verdict::Unsafe(_) => family_unsafe = true,
                            Verdict::Unknown(reason) => {
                                return Err(format!("replayed obligation is Unknown ({reason})"))
                            }
                        }
                    }
                }
                let class = if family_unsafe {
                    Class::Unsafe
                } else {
                    Class::Safe
                };
                if expected.get(family) != Some(&class) {
                    return Err(format!(
                        "replayed family {family} is {class:?}, reference {:?}",
                        expected.get(family)
                    ));
                }
            }
            Ok(())
        })();
        spans.close();
        result
    }

    pub fn metrics(&self, out: &mut Outcome) {
        let lp = &self.counts.lp;
        let nodes = lp.nodes_explored as f64;
        out.push("core.template_build_us", mean(&self.template_s) * 1e6, "us");
        out.push("core.fingerprint_us", mean(&self.fingerprint_s) * 1e6, "us");
        out.push(
            "core.instantiate_us",
            share(self.instantiate_s, self.instantiated as f64) * 1e6,
            "us",
        );
        out.push("core.solve_p50_us", median(&self.solve_s) * 1e6, "us");
        out.push("absint.propagate_us", mean(&self.propagate_s) * 1e6, "us");
        out.push(
            "absint.unstable_relus",
            self.counts.unstable_relus as f64,
            "count",
        );
        out.push("lp.nodes", nodes, "count");
        out.push("lp.pivots", lp.simplex_iterations as f64, "count");
        out.push(
            "lp.pivots_per_node",
            share(lp.simplex_iterations as f64, nodes),
            "ratio",
        );
        out.push("lp.us_per_node", share(self.lp_s, nodes) * 1e6, "us");
        let solves = (lp.warm_solves + lp.cold_solves) as f64;
        out.push(
            "lp.warm_share",
            share(lp.warm_solves as f64, solves),
            "share",
        );
        out.push("lp.warm_declined", lp.warm_declined as f64, "count");
    }
}

// ---------------------------------------------------------------------------
// monitor / shard / nn / scenegen

/// Renders `n` frames, three in-ODD to one out-of-ODD (every fourth frame
/// is out-of-ODD, so each batch of 16 holds the same mix).
pub fn render_frames(
    spans: &mut Spans,
    scene: &SceneConfig,
    n: usize,
    seed: u64,
) -> (Vec<Vector>, Vec<f64>) {
    let sampler = OddSampler::new(*scene);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frames = Vec::with_capacity(n);
    let mut seconds = Vec::with_capacity(n);
    for i in 0..n {
        let params = if i % 4 == 3 {
            sampler.sample_out_of_odd(&mut rng)
        } else {
            sampler.sample_in_odd(&mut rng)
        };
        let (frame, s) = spans.time("scenegen", "render_scene", || render_scene(&params, scene));
        frames.push(frame);
        seconds.push(s);
    }
    (frames, seconds)
}

#[derive(Debug, Default)]
pub struct MonitorTrace {
    pub render_s: Vec<f64>,
    forward_s: Vec<f64>,
    check_s: Vec<f64>,
    shard_s: Vec<f64>,
    /// Both monitors' time per batch.
    batch_s: Vec<f64>,
    frames: usize,
    in_odd: usize,
}

/// Both monitors over one pipeline.
pub struct Monitors {
    pub perception: Network,
    pub cut_layer: usize,
    pub monolithic: RuntimeMonitor,
    pub sharded: ShardedMonitor,
}

impl Monitors {
    pub fn new(
        perception: &Network,
        cut_layer: usize,
        envelope: &ActivationEnvelope,
        sharded: &ShardedEnvelope,
    ) -> Result<Self, String> {
        Ok(Self {
            perception: perception.clone(),
            cut_layer,
            monolithic: RuntimeMonitor::new(perception.clone(), cut_layer, envelope.clone())
                .map_err(|e| e.to_string())?,
            sharded: ShardedMonitor::new(perception.clone(), cut_layer, sharded.clone())
                .map_err(|e| e.to_string())?,
        })
    }
}

impl MonitorTrace {
    /// One batch through the forward pass alone, the monolithic monitor and
    /// the sharded monitor, each in its own span.
    pub fn batch(&mut self, spans: &mut Spans, monitors: &Monitors, batch: &[Vector]) {
        let (_, s) = spans.time("nn", "activation_matrix_at", || {
            monitors
                .perception
                .activation_matrix_at(monitors.cut_layer, batch)
        });
        self.forward_s.push(s);
        let (verdicts, s) = spans.time("monitor", "RuntimeMonitor::check_frames", || {
            monitors.monolithic.check_frames(batch)
        });
        self.check_s.push(s);
        let (_, s) = spans.time("shard", "ShardedMonitor::check_frames", || {
            monitors.sharded.check_frames(batch)
        });
        self.batch_s.push(self.check_s[self.check_s.len() - 1] + s);
        self.shard_s.push(s);
        self.frames += batch.len();
        self.in_odd += verdicts.iter().filter(|v| v.is_in_odd()).count();
    }

    pub fn metrics(&self, out: &mut Outcome) {
        out.push("monitor.check_us", median(&self.check_s) * 1e6, "us");
        out.push(
            "monitor.batch_p99_us",
            quantile(&self.batch_s, 0.99) * 1e6,
            "us",
        );
        out.push(
            "monitor.in_odd_share",
            share(self.in_odd as f64, self.frames as f64),
            "share",
        );
        out.push("shard.check_us", median(&self.shard_s) * 1e6, "us");
        out.push("nn.forward_us", median(&self.forward_s) * 1e6, "us");
        out.push("scenegen.render_us", mean(&self.render_s) * 1e6, "us");
    }
}

/// Self time per layer as a share of everything the spans covered.
pub fn self_shares(spans: &Spans, out: &mut Outcome) {
    let totals = spans.self_seconds();
    let all: f64 = totals.iter().map(|(_, s)| s).sum();
    for (layer, seconds) in totals {
        out.push(format!("{layer}.self_share"), share(seconds, all), "share");
    }
}

// ---------------------------------------------------------------------------
// the traced run's shared steps

/// Serves `checked.request` on fresh traced and untraced servers in
/// alternating order (so drift cancels) for `budget_s` and at least
/// `min_pairs` pairs; reports the serve-layer metrics and returns a report
/// of the request.
pub fn serve_twins(
    checked: &Checked,
    budget_s: f64,
    min_pairs: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<RequestReport, String> {
    let mut serve = ServeTrace::default();
    let budget = Duration::from_secs_f64(budget_s);
    let cap = budget + Duration::from_secs(30);
    let start = Instant::now();
    let mut prior: Option<RequestReport> = None;
    let mut pair = 0usize;
    while (start.elapsed() < budget || pair < min_pairs) && start.elapsed() < cap {
        for traced in [pair.is_multiple_of(2), !pair.is_multiple_of(2)] {
            spans.open("serve", "ObligationServer::serve");
            let (seconds, result, server) = serve_fresh(checked, traced.then(Tracer::enabled));
            spans.close();
            out.check(result.and_then(|report| {
                if traced {
                    serve.traced.push(seconds);
                    serve.add_report(&report, WORKERS);
                    serve.add_server(&server.stats(), server.trace_snapshot().dropped_events());
                } else {
                    serve.untraced.push(seconds);
                }
                checked.check(&report)?;
                prior = Some(report);
                Ok(())
            }));
        }
        pair += 1;
    }
    serve.metrics(out);
    prior.ok_or_else(|| "no request was served".to_string())
}

/// Plans a seeded tail retrain of the fixture against a served report.
pub fn delta_probe(
    run: &Run,
    checked: &Checked,
    prior: &RequestReport,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(sub_seed(run.seed, 11));
    let perception = &checked.pipeline.perception;
    let retrained = VerificationRequest {
        perception: retrain(perception, perception.len() - 1, rng.gen_range(1e-5..1e-4)),
        ..checked.request.clone()
    };
    let mut delta = DeltaTrace::default();
    delta.probe(spans, &checked.request, prior, &retrained)?;
    delta.metrics(out);
    Ok(())
}

/// Both monitors over freshly rendered probe frames of the fixture.
pub fn monitor_probe(
    run: &Run,
    pipeline: &Pipeline,
    sharded: &ShardedEnvelope,
    monitor: &mut MonitorTrace,
    spans: &mut Spans,
) -> Result<(), String> {
    let scene = dpv_core::WorkflowConfig::bench().scene;
    let (frames, render_s) = render_frames(spans, &scene, PROBE_FRAMES, sub_seed(run.seed, 6));
    monitor.render_s = render_s;
    let monitors = Monitors::new(
        &pipeline.perception,
        pipeline.cut_layer,
        &pipeline.envelope,
        sharded,
    )?;
    for batch in frames.chunks(BATCH) {
        monitor.batch(spans, &monitors, batch);
    }
    Ok(())
}

/// Replays `requests` serially twice; the exact counts must repeat.
pub fn replay_twice(
    spans: &mut Spans,
    requests: &[(&VerificationRequest, &Vec<Class>)],
    out: &mut Outcome,
) {
    let mut first = ReplayTrace::default();
    let mut second = ReplayTrace::default();
    let mut scratch = Spans::default();
    for (request, expected) in requests {
        out.check(first.replay(spans, request, expected));
        out.check(second.replay(&mut scratch, request, expected));
    }
    if first.counts != second.counts {
        out.setup_errors
            .push("serial replay counts differ between two replays".into());
    }
    eprintln!(
        "replay: {} nodes, {} pivots, {} unstable ReLUs",
        first.counts.lp.nodes_explored,
        first.counts.lp.simplex_iterations,
        first.counts.unstable_relus
    );
    first.metrics(out);
}

/// Self shares from the spans, and the span dump when asked for.
pub fn finish_spans(run: &Run, spans: &Spans, out: &mut Outcome) {
    self_shares(spans, out);
    if let Some(path) = &run.spans_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, spans.to_json()) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
}
