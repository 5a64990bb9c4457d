//! One simulation cell, timed and traced call by call: trace generation,
//! `PreparedTrace::new`, `Simulator::new`, warmup `run`, measurement
//! `run` — the same sequence `Runner::try_run` performs for the
//! experiment harness.

use std::time::Instant;

use eole_bench::{RunSpec, Runner};
use eole_core::config::{CoreConfig, ValuePredictorKind};
use eole_core::pipeline::{PreparedTrace, Simulator};
use eole_core::stats::SimStats;
use eole_workloads::{workload_by_name, Workload};

use crate::trace;

pub fn workload(name: &str) -> Workload {
    workload_by_name(name).expect("benchmark kernels are in the registry")
}

/// Generates `w`'s trace and prepares it.
pub fn prepare(w: &Workload, len: u64) -> Result<PreparedTrace, String> {
    let raw = trace::span_counted("workloads.trace", || {
        let raw = w.trace(len);
        let n = raw.as_ref().map_or(0, |t| t.insts.len() as u64);
        (raw, n)
    })
    .map_err(|e| format!("{}: trace: {e}", w.name))?;
    let n = raw.insts.len() as u64;
    Ok(trace::span("core.prepare", n, || PreparedTrace::new(raw)))
}

/// A finished cell: its statistics and the host seconds of each phase.
#[derive(Clone, Copy, Debug)]
pub struct CellRun {
    pub stats: SimStats,
    pub build_secs: f64,
    pub measure_secs: f64,
}

pub fn run_cell(trace: &PreparedTrace, spec: &RunSpec) -> Result<CellRun, String> {
    let fail =
        |phase: &str, e: eole_core::pipeline::SimError| format!("{}: {phase}: {e}", spec.label());
    let start = Instant::now();
    let mut sim = trace::span("core.build", 1, || {
        Simulator::new(trace, spec.effective_config())
    })
    .map_err(|e| fail("build", e))?;
    let build_secs = start.elapsed().as_secs_f64();
    trace::span_counted("core.warmup", || {
        let out = sim.run(spec.runner.warmup);
        (out, sim.committed_total())
    })
    .map_err(|e| fail("warmup", e))?;
    sim.begin_measurement();
    let start = Instant::now();
    trace::span_counted("core.measure", || {
        let out = sim.run(spec.runner.measure);
        (out, sim.stats().committed)
    })
    .map_err(|e| fail("measure", e))?;
    let measure_secs = start.elapsed().as_secs_f64();
    Ok(CellRun {
        stats: sim.stats(),
        build_secs,
        measure_secs,
    })
}

/// True if a cell committed its measurement window, overshooting by
/// less than one commit group.
pub fn window_ok(stats: &SimStats, runner: &Runner, config: &CoreConfig) -> bool {
    stats.committed >= runner.measure
        && stats.committed < runner.measure + config.commit_width as u64
}

/// The value predictors this benchmark times, by metric name.
pub const VP_KINDS: [&str; 2] = ["vtage2ds", "dvtage"];

/// Which timed predictor a configuration's VP is, if any.
pub fn vp_kind(config: &CoreConfig) -> Option<&'static str> {
    match config.vp.as_ref()?.kind {
        ValuePredictorKind::VtageTwoDeltaStride => Some("vtage2ds"),
        ValuePredictorKind::DVtage => Some("dvtage"),
        _ => None,
    }
}

/// [`vp_kind`] from a configuration name and its statistics, for cells
/// seen only through the result store. The quick suite names its
/// D-VTAGE configurations `*DVTAGE*`/`D-VTAGE`, its other single-kind
/// ablation points by kind, and every other VP configuration uses the
/// paper's hybrid.
pub fn vp_kind_by_name(name: &str, stats: &SimStats) -> Option<&'static str> {
    if stats.vp_block_reads == 0 {
        None
    } else if name.contains("DVTAGE") || name == "D-VTAGE" {
        Some("dvtage")
    } else if ["LVP", "Stride", "2D-Stride", "FCM-4", "VTAGE"].contains(&name) {
        None
    } else {
        Some("vtage2ds")
    }
}
