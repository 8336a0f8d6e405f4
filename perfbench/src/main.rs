//! The repository benchmark.
//!
//! ```text
//! dpv-perfbench --workload <paper-cold|deep-refute|resident-stream|monitor-frames>
//!               --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! Builds the workload's inputs from the seed, runs it against the crates'
//! public APIs for about `--seconds`, checks every verdict, and prints one
//! JSON object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Progress and
//! diagnostics go to standard error.

mod cold;
mod fixture;
mod frames;
mod layers;
mod report;
mod spans;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dpv_serve::{ObligationServer, RequestReport, ServeConfig};
use dpv_trace::Tracer;

use crate::fixture::Checked;
use crate::report::Outcome;

/// Parsed command line.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
}

// ---------------------------------------------------------------------------
// harness shared by the workloads

/// Worker threads of every server; the benchmark is sized for two cores.
pub const WORKERS: usize = 2;
/// Set-up repeats per run (`setup_s` is their median).
pub const SETUP_REPEATS: usize = 3;

pub fn server(tracer: Option<Tracer>) -> ObligationServer {
    let builder = ObligationServer::builder().config(ServeConfig::with_workers(WORKERS));
    match tracer {
        Some(tracer) => builder.tracer(tracer),
        None => builder,
    }
    .build()
}

/// Runs `setup` `n` times and returns the last fixture with the median
/// set-up time. Every repeat must give the same `key` (its references), or
/// the run is marked incorrect.
pub fn setup_repeated<T>(
    n: usize,
    out: &mut Outcome,
    setup: impl Fn() -> Result<T, String>,
    key: impl Fn(&T) -> String,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut last: Option<T> = None;
    for _ in 0..n {
        let start = Instant::now();
        let fixture = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = &last {
            if key(previous) != key(&fixture) {
                out.setup_errors
                    .push("set-up is not deterministic for this seed".into());
            }
        }
        last = Some(fixture);
    }
    Ok((last.ok_or("no set-up ran")?, crate::report::median(&times)))
}

/// Serves `checked.request` on a fresh server; returns the latency of the
/// `serve` call alone (building and joining the pool is not timed).
pub fn serve_fresh(
    checked: &Checked,
    tracer: Option<Tracer>,
) -> (f64, Result<RequestReport, String>, ObligationServer) {
    let server = server(tracer);
    let start = Instant::now();
    let result = server.serve(&checked.request).map_err(|e| e.to_string());
    (start.elapsed().as_secs_f64(), result, server)
}

fn parse() -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => run.workload = value,
            "--seed" => run.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => run.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => run.trace = value == "1",
            "--spans-out" => run.spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(run)
}

fn main() -> ExitCode {
    let run = match parse() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match run.workload.as_str() {
        "paper-cold" => cold::paper_cold(&run),
        "deep-refute" => cold::deep_refute(&run),
        "resident-stream" => stream::resident_stream(&run),
        "monitor-frames" => frames::monitor_frames(&run),
        other => Err(format!("unknown workload {other:?}")),
    };
    let result = result.and_then(|outcome| {
        if outcome.attempted == 0 {
            return Err("no operation was measured".to_string());
        }
        match outcome.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(metric) => Err(format!("metric {} is not finite", metric.name)),
            None => Ok(outcome),
        }
    });
    match result {
        Ok(outcome) => {
            for failure in outcome.failures.iter().chain(&outcome.setup_errors) {
                eprintln!("FAILED: {failure}");
            }
            eprintln!(
                "{}: {} attempted, {} failed (failed_share {:.4})",
                run.workload,
                outcome.attempted,
                outcome.failed,
                report::share(outcome.failed as f64, outcome.attempted as f64)
            );
            for metric in &outcome.metrics {
                eprintln!(
                    "  {:<28} {:>14.4} {}",
                    metric.name, metric.value, metric.unit
                );
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", run.workload);
            ExitCode::FAILURE
        }
    }
}
