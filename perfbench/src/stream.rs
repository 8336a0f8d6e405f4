//! `resident-stream`: one long-lived server takes a seeded mix of requests
//! on the paper fixture — exact repeats (dedup cache), refits at another
//! subdivision (template cache, new sub-boxes), new risk thresholds
//! (template misses; together more templates than `template_capacity`, so
//! LRU eviction runs) and retrain deltas through `serve_delta` (head-only:
//! every verdict reused; tail: some absorbed, the rest re-proved).
//!
//! A *pass* is the whole seeded op sequence on a freshly built resident
//! server; a run repeats passes, so every pass does the same cache work.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dpv_core::RiskCondition;
use dpv_serve::{ObligationServer, RequestReport, VerificationRequest};
use dpv_trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{
    base_jitter, paper_pipeline, paper_risks, retrain, sub_seed, view, Checked, Class, Pipeline,
    CHECKPOINT_SEED, PAPER_SUBDIVISION,
};
use crate::layers::{
    finish_spans, monitor_probe, replay_twice, DeltaTrace, MonitorTrace, ServeTrace,
};
use crate::report::{end_to_end, Outcome};
use crate::spans::Spans;
use crate::{server, setup_repeated, Run, SETUP_REPEATS, WORKERS};

/// One round of a pass, in order. The kinds are fixed so that the 50th
/// and 90th latency percentiles fall inside one kind's band instead of on
/// the edge between two (repeats and head deltas take about 1 ms, refits at
/// subdivision 3 about 20 ms, tail deltas and new thresholds about 40 ms,
/// refits at subdivision 5 about 80 ms on two cores); the seed picks every
/// request's content.
const ROUND: [Kind; 10] = [
    Kind::NewThresholds,
    Kind::Repeat,
    Kind::Refit(3),
    Kind::HeadDelta,
    Kind::TailDelta,
    Kind::NewThresholds,
    Kind::Refit(5),
    Kind::Repeat,
    Kind::TailDelta,
    Kind::Refit(5),
];
/// Rounds per pass (the pass opens with a serve of the base request).
const ROUNDS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A fresh risk-threshold set: every template misses.
    NewThresholds,
    /// A request served earlier in this round or the previous one: dedup
    /// hits (the verdict cache still holds it).
    Repeat,
    /// A threshold set served earlier in the round, at another subdivision:
    /// template hits, new sub-boxes.
    Refit(u32),
    /// `serve_delta` of a perturbed first (convolutional) layer: every
    /// verdict reused.
    HeadDelta,
    /// `serve_delta` of a perturbed last layer: Safe verdicts absorbed,
    /// the rest re-proved.
    TailDelta,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Serve the request with this key.
    Serve(usize),
    /// `serve_delta` of this retrain case over the pass's base report.
    Delta(usize),
}

struct DeltaCase {
    request: VerificationRequest,
    /// A from-scratch serve of `request` on a fresh server.
    scratch: RequestReport,
}

pub struct Stream {
    pipeline: Pipeline,
    /// Distinct requests by `(variant, subdivision)`; key 0 is the base.
    requests: Vec<Checked>,
    deltas: Vec<DeltaCase>,
    ops: Vec<Op>,
}

impl Stream {
    fn setup(seed: u64) -> Result<Self, String> {
        let pipeline = paper_pipeline(CHECKPOINT_SEED, sub_seed(seed, 1))?;
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));

        // The op sequence and, per new-threshold op, a fresh risk variant.
        let mut variants: Vec<Vec<RiskCondition>> = vec![paper_risks(&pipeline, base_jitter(seed))];
        let mut keys: BTreeMap<(usize, u32), usize> = BTreeMap::new();
        keys.insert((0, PAPER_SUBDIVISION), 0);
        let mut ops = vec![Op::Serve(0)];
        let mut served: Vec<usize> = vec![0];
        let mut deltas_planned: Vec<Kind> = Vec::new();
        for _ in 0..ROUNDS {
            let round_start = served.len().saturating_sub(ROUND.len());
            let mut round_variants = Vec::new();
            for kind in ROUND {
                let pair = match kind {
                    Kind::NewThresholds => {
                        variants.push(paper_risks(&pipeline, rng.gen_range(0.004..0.006)));
                        round_variants.push(variants.len() - 1);
                        Some((variants.len() - 1, PAPER_SUBDIVISION))
                    }
                    Kind::Repeat => {
                        let recent = &served[round_start..];
                        let key = recent[rng.gen_range(0..recent.len())];
                        served.push(key);
                        ops.push(Op::Serve(key));
                        None
                    }
                    Kind::Refit(subdivision) => {
                        let fresh: Vec<usize> = round_variants
                            .iter()
                            .copied()
                            .filter(|&v| !keys.contains_key(&(v, subdivision)))
                            .collect();
                        if fresh.is_empty() {
                            return Err("a refit has no threshold set left to refit".into());
                        }
                        Some((fresh[rng.gen_range(0..fresh.len())], subdivision))
                    }
                    Kind::HeadDelta | Kind::TailDelta => {
                        ops.push(Op::Delta(deltas_planned.len()));
                        deltas_planned.push(kind);
                        None
                    }
                };
                if let Some(pair) = pair {
                    let next = keys.len();
                    let key = *keys.entry(pair).or_insert(next);
                    served.push(key);
                    ops.push(Op::Serve(key));
                }
            }
        }
        let classes: Vec<Vec<Class>> = variants
            .iter()
            .map(|risks| pipeline.reference(risks))
            .collect::<Result<_, _>>()?;
        let mut requests: Vec<Option<Checked>> = (0..keys.len()).map(|_| None).collect();
        for (&(variant, subdivision), &key) in &keys {
            requests[key] = Some(Checked::with_expected(
                pipeline.clone(),
                variants[variant].clone(),
                subdivision,
                classes[variant].clone(),
            )?);
        }
        let requests: Vec<Checked> = requests.into_iter().flatten().collect();

        // Retrain cases: head-only perturbations of the first (convolutional)
        // layer and small perturbations of the last layer. Threshold shifts
        // and tail perturbations are drawn from narrow ranges: how many
        // obligations a tail delta absorbs, and so what it costs, moves with
        // the perturbation size.
        let base = &requests[0];
        let last = pipeline.perception.len() - 1;
        let mut deltas = Vec::new();
        for kind in deltas_planned {
            let perception = if kind == Kind::HeadDelta {
                retrain(&pipeline.perception, 0, rng.gen_range(0.01..0.05))
            } else {
                retrain(&pipeline.perception, last, rng.gen_range(1e-5..1.5e-5))
            };
            let retrained = Pipeline {
                perception,
                ..pipeline.clone()
            };
            let checked = Checked::new(retrained, base.request.risks.clone(), PAPER_SUBDIVISION)?;
            let scratch = server(None)
                .serve(&checked.request)
                .map_err(|e| e.to_string())?;
            checked.check(&scratch)?;
            deltas.push(DeltaCase {
                request: checked.request,
                scratch,
            });
        }
        Ok(Self {
            pipeline,
            requests,
            deltas,
            ops,
        })
    }

    /// One pass on a fresh resident server. Returns the per-op latencies
    /// and obligations served; traced passes feed `serve` and `delta`.
    fn pass(
        &self,
        tracer: Option<Tracer>,
        spans: &mut Spans,
        mut layers: Option<(&mut ServeTrace, &mut DeltaTrace)>,
        out: &mut Outcome,
    ) -> (Vec<f64>, u64) {
        let server: ObligationServer = server(tracer);
        let base = &self.requests[0];
        let mut base_report: Option<RequestReport> = None;
        let mut latencies = Vec::with_capacity(self.ops.len());
        let mut items = 0u64;
        for op in &self.ops {
            match *op {
                Op::Serve(key) => {
                    let checked = &self.requests[key];
                    spans.open("serve", "ObligationServer::serve");
                    let start = Instant::now();
                    let result = server.serve(&checked.request);
                    let seconds = start.elapsed().as_secs_f64();
                    spans.close();
                    out.check(result.map_err(|e| e.to_string()).and_then(|report| {
                        latencies.push(seconds);
                        items += report.obligations.len() as u64;
                        if let Some((serve, _)) = layers.as_mut() {
                            serve.add_report(&report, WORKERS);
                        }
                        checked.check(&report)?;
                        if key == 0 && base_report.is_none() {
                            base_report = Some(report);
                        }
                        Ok(())
                    }));
                }
                Op::Delta(case) => {
                    let case = &self.deltas[case];
                    let Some(prior) = &base_report else {
                        out.check(Err("delta before the base request was served".into()));
                        continue;
                    };
                    spans.open("serve", "ObligationServer::serve_delta");
                    let start = Instant::now();
                    let result = server.serve_delta(&base.request, prior, &case.request);
                    let seconds = start.elapsed().as_secs_f64();
                    spans.close();
                    out.check(result.map_err(|e| e.to_string()).and_then(|delta| {
                        latencies.push(seconds);
                        items += delta.report.obligations.len() as u64;
                        if let Some((serve, plan)) = layers.as_mut() {
                            serve.add_report(&delta.report, WORKERS);
                            plan.probe(spans, &base.request, prior, &case.request)?;
                        }
                        let counts = delta.counts();
                        if counts.newly_degraded > 0 {
                            return Err(format!("{} obligations degraded", counts.newly_degraded));
                        }
                        if view(&delta.report) != view(&case.scratch) {
                            return Err("delta report differs from a from-scratch serve".into());
                        }
                        Ok(())
                    }));
                }
            }
        }
        if let Some((serve, _)) = layers {
            serve.add_server(&server.stats(), server.trace_snapshot().dropped_events());
        }
        (latencies, items)
    }
}

pub fn resident_stream(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if run.trace {
        let stream = Stream::setup(run.seed)?;
        traced(run, &stream, &mut out)?;
        return Ok(out);
    }
    let (stream, setup_s) = setup_repeated(
        SETUP_REPEATS,
        &mut out,
        || Stream::setup(run.seed),
        |s| format!("{:?} {}", s.ops, s.requests.len()),
    )?;
    let mut spans = Spans::default();
    let budget = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut items = 0u64;
    let mut passes = 0;
    while start.elapsed() < budget || passes < 2 {
        let (pass, served) = stream.pass(None, &mut spans, None, &mut out);
        latencies.extend(pass);
        items += served;
        passes += 1;
    }
    eprintln!(
        "resident-stream: {passes} passes of {} ops",
        stream.ops.len()
    );
    end_to_end(&mut out, setup_s, &latencies, items);
    Ok(out)
}

/// Traced and untraced passes alternate for half the run; then the serial
/// replay of every distinct request and the monitor probe.
fn traced(run: &Run, stream: &Stream, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans::default();
    let mut serve = ServeTrace::default();
    let mut delta = DeltaTrace::default();
    let budget = Duration::from_secs_f64(run.seconds * 0.5);
    let start = Instant::now();
    let mut pair = 0usize;
    while start.elapsed() < budget || pair < 2 {
        for traced in [pair.is_multiple_of(2), !pair.is_multiple_of(2)] {
            if traced {
                let (lat, _) = stream.pass(
                    Some(Tracer::enabled()),
                    &mut spans,
                    Some((&mut serve, &mut delta)),
                    out,
                );
                serve.traced.extend(lat);
            } else {
                let (lat, _) = stream.pass(None, &mut spans, None, out);
                serve.untraced.extend(lat);
            }
        }
        pair += 1;
    }
    serve.metrics(out);
    delta.metrics(out);
    let requests: Vec<(&VerificationRequest, &Vec<Class>)> = stream
        .requests
        .iter()
        .map(|c| (&c.request, &c.expected))
        .collect();
    replay_twice(&mut spans, &requests, out);
    let mut monitor = MonitorTrace::default();
    let sharded = stream
        .pipeline
        .sharded
        .as_ref()
        .ok_or("paper fixture is sharded")?;
    monitor_probe(run, &stream.pipeline, sharded, &mut monitor, &mut spans)?;
    monitor.metrics(out);
    finish_spans(run, &spans, out);
    Ok(())
}
