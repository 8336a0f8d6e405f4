//! `paper-cold` and `deep-refute`: every request runs on a freshly built
//! two-worker server, one client thread in a closed loop.

use std::time::{Duration, Instant};

use dpv_shard::{ShardConfig, ShardedEnvelope};

use crate::fixture::{
    base_jitter, deep_fixture, paper_pipeline, paper_risks, sub_seed, Checked, CHECKPOINT_SEED,
    DEEP_CUT, PAPER_SUBDIVISION,
};
use crate::layers::{
    delta_probe, finish_spans, monitor_probe, replay_twice, serve_twins, MonitorTrace,
};
use crate::report::{end_to_end, Outcome};
use crate::spans::Spans;
use crate::{serve_fresh, setup_repeated, Run, SETUP_REPEATS};

// ---------------------------------------------------------------------------
// fixtures

pub fn paper_setup(seed: u64) -> Result<Checked, String> {
    let pipeline = paper_pipeline(CHECKPOINT_SEED, sub_seed(seed, 1))?;
    let risks = paper_risks(&pipeline, base_jitter(seed));
    Checked::new(pipeline, risks, PAPER_SUBDIVISION)
}

// ---------------------------------------------------------------------------
// runs

/// The untraced closed loop: at least `min_ops` requests and at least
/// `seconds` of wall time (capped at `seconds + 60`).
fn measure(run: &Run, checked: &Checked, min_ops: usize, out: &mut Outcome) -> (Vec<f64>, u64) {
    let _ = serve_fresh(checked, None);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(run.seconds);
    let cap = budget + Duration::from_secs(60);
    let mut latencies = Vec::new();
    let mut items = 0u64;
    while (start.elapsed() < budget || latencies.len() < min_ops) && start.elapsed() < cap {
        let (seconds, result, server) = serve_fresh(checked, None);
        drop(server);
        out.check(result.and_then(|report| {
            latencies.push(seconds);
            items += report.obligations.len() as u64;
            checked.check(&report)
        }));
    }
    (latencies, items)
}

pub fn paper_cold(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if run.trace {
        let checked = paper_setup(run.seed)?;
        let sharded = checked
            .pipeline
            .sharded
            .clone()
            .ok_or("paper fixture is sharded")?;
        traced_fresh(run, &checked, &sharded, &mut out)?;
        return Ok(out);
    }
    let (checked, setup_s) = setup_repeated(
        SETUP_REPEATS,
        &mut out,
        || paper_setup(run.seed),
        |c| format!("{:?}", c.expected),
    )?;
    let (latencies, items) = measure(run, &checked, 100, &mut out);
    end_to_end(&mut out, setup_s, &latencies, items);
    Ok(out)
}

pub fn deep_refute(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if run.trace {
        let deep = deep_fixture(CHECKPOINT_SEED, run.seed)?;
        let sharded = ShardedEnvelope::from_inputs(
            &deep.checked.pipeline.perception,
            DEEP_CUT,
            &deep.images,
            deep.checked.pipeline.envelope.margin(),
            &ShardConfig::fixed(4).with_seed(sub_seed(run.seed, 1)),
        )
        .map_err(|e| e.to_string())?;
        traced_fresh(run, &deep.checked, &sharded, &mut out)?;
        return Ok(out);
    }
    let (deep, setup_s) = setup_repeated(
        SETUP_REPEATS,
        &mut out,
        || deep_fixture(CHECKPOINT_SEED, run.seed),
        |d| format!("{:?}", d.reference_nodes),
    )?;
    eprintln!(
        "deep-refute: serial reference trees {:?} nodes; placing the thresholds cost {} nodes",
        deep.reference_nodes, deep.placement_nodes
    );
    let (latencies, items) = measure(run, &deep.checked, 20, &mut out);
    end_to_end(&mut out, setup_s, &latencies, items);
    Ok(out)
}

/// Traced and untraced twins of the workload's request, alternating, for
/// half the run; then the off-path layers on the same fixture.
fn traced_fresh(
    run: &Run,
    checked: &Checked,
    sharded: &ShardedEnvelope,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut spans = Spans::default();
    let prior = serve_twins(checked, run.seconds * 0.5, 6, &mut spans, out)?;
    delta_probe(run, checked, &prior, &mut spans, out)?;
    replay_twice(&mut spans, &[(&checked.request, &checked.expected)], out);
    let mut monitor = MonitorTrace::default();
    monitor_probe(run, &checked.pipeline, sharded, &mut monitor, &mut spans)?;
    monitor.metrics(out);
    finish_spans(run, &spans, out);
    Ok(())
}
