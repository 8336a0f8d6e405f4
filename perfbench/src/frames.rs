//! `monitor-frames`: frames rendered at set-up, three in-ODD to one
//! out-of-ODD, checked batch by batch by `RuntimeMonitor::check_frames`
//! and `ShardedMonitor::check_frames` — the "assume" half of the paper,
//! which never reaches the solver. One operation is one batch through both
//! monitors.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dpv_monitor::MonitorVerdict;
use dpv_tensor::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixture::{
    base_jitter, paper_pipeline, paper_risks, sub_seed, Checked, Pipeline, PAPER_SUBDIVISION,
};
use crate::layers::{
    delta_probe, finish_spans, render_frames, replay_twice, serve_twins, MonitorTrace, Monitors,
    BATCH,
};
use crate::report::{end_to_end, Outcome};
use crate::spans::Spans;
use crate::{setup_repeated, Run, SETUP_REPEATS};

/// Frames rendered at set-up (128 batches).
const FRAMES: usize = 2048;
/// One frame in this many joins the per-frame reference subset.
const REFERENCE_EVERY: u32 = 8;

struct Frames {
    pipeline: Pipeline,
    monitors: Monitors,
    frames: Vec<Vector>,
    render_s: Vec<f64>,
    /// Per-frame `check` verdicts (monolithic, sharded) of a seeded subset.
    reference: BTreeMap<usize, (MonitorVerdict, MonitorVerdict)>,
}

impl Frames {
    fn setup(seed: u64) -> Result<Self, String> {
        // Per-frame monitor work does not depend on the weights, so this
        // workload trains its checkpoint from the seed.
        let pipeline = paper_pipeline(sub_seed(seed, 7), sub_seed(seed, 1))?;
        let sharded = pipeline
            .sharded
            .as_ref()
            .ok_or("paper fixture is sharded")?;
        let monitors = Monitors::new(
            &pipeline.perception,
            pipeline.cut_layer,
            &pipeline.envelope,
            sharded,
        )?;
        let scene = dpv_core::WorkflowConfig::bench().scene;
        let (frames, render_s) =
            render_frames(&mut Spans::default(), &scene, FRAMES, sub_seed(seed, 6));
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 8));
        let reference = (0..FRAMES)
            .filter(|_| rng.gen_range(0..REFERENCE_EVERY) == 0)
            .map(|i| {
                (
                    i,
                    (
                        monitors.monolithic.check(&frames[i]),
                        monitors.sharded.check(&frames[i]),
                    ),
                )
            })
            .collect();
        Ok(Self {
            pipeline,
            monitors,
            frames,
            render_s,
            reference,
        })
    }

    /// Batched verdicts of batch `b` against the per-frame reference.
    fn check(
        &self,
        b: usize,
        monolithic: &[MonitorVerdict],
        sharded: &[MonitorVerdict],
    ) -> Result<(), String> {
        if monolithic.len() != BATCH || sharded.len() != BATCH {
            return Err(format!("batch {b} returned the wrong number of verdicts"));
        }
        for (i, (want_m, want_s)) in self.reference.range(b * BATCH..(b + 1) * BATCH) {
            let j = i - b * BATCH;
            if &monolithic[j] != want_m || &sharded[j] != want_s {
                return Err(format!(
                    "frame {i}: batched verdict differs from per-frame check"
                ));
            }
        }
        Ok(())
    }
}

pub fn monitor_frames(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if run.trace {
        let frames = Frames::setup(run.seed)?;
        traced(run, &frames, &mut out)?;
        return Ok(out);
    }
    let (frames, setup_s) = setup_repeated(
        SETUP_REPEATS,
        &mut out,
        || Frames::setup(run.seed),
        |f| format!("{:?}", f.reference),
    )?;
    let batches = FRAMES / BATCH;
    let budget = Duration::from_secs_f64(run.seconds);
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut b = 0usize;
    while start.elapsed() < budget || latencies.len() < 1000 {
        let batch = &frames.frames[b * BATCH..(b + 1) * BATCH];
        let t = Instant::now();
        let monolithic = frames.monitors.monolithic.check_frames(batch);
        let sharded = frames.monitors.sharded.check_frames(batch);
        latencies.push(t.elapsed().as_secs_f64());
        out.check(frames.check(b, &monolithic, &sharded));
        b = (b + 1) % batches;
    }
    let items = (latencies.len() * BATCH) as u64;
    end_to_end(&mut out, setup_s, &latencies, items);
    Ok(out)
}

/// The workload's batches with one span per layer call for half the run,
/// then the serve/delta/core layers on the paper request of the same
/// fixture (this workload never reaches them itself).
fn traced(run: &Run, frames: &Frames, out: &mut Outcome) -> Result<(), String> {
    let mut spans = Spans::default();
    let mut monitor = MonitorTrace::default();
    monitor.render_s = frames.render_s.clone();
    let budget = Duration::from_secs_f64(run.seconds * 0.5);
    let start = Instant::now();
    let mut b = 0usize;
    while start.elapsed() < budget {
        monitor.batch(
            &mut spans,
            &frames.monitors,
            &frames.frames[b * BATCH..(b + 1) * BATCH],
        );
        b = (b + 1) % (FRAMES / BATCH);
    }
    monitor.metrics(out);

    let pipeline = frames.pipeline.clone();
    let risks = paper_risks(&pipeline, base_jitter(run.seed));
    let checked = Checked::new(pipeline, risks, PAPER_SUBDIVISION)?;
    let prior = serve_twins(&checked, 0.0, 6, &mut spans, out)?;
    delta_probe(run, &checked, &prior, &mut spans, out)?;
    replay_twice(&mut spans, &[(&checked.request, &checked.expected)], out);
    finish_spans(run, &spans, out);
    Ok(())
}
