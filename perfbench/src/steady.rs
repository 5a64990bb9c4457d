//! The steady workloads: long warmed single-thread runs of fixed
//! (configuration × kernel) cells, repeated in whole passes for the
//! run's time budget. A pass generates each kernel's trace, prepares it,
//! then builds, warms and measures every configuration on it.

use std::sync::Arc;
use std::time::Instant;

use eole_bench::experiments::PAPER_IPC;
use eole_bench::{Format, RunSpec, Runner, Session};
use eole_core::config::CoreConfig;
use eole_core::stats::SimStats;
use eole_stats::report::{Cell, ExperimentReport};

use crate::cells;
use crate::common::{
    account_digest, fresh_store_dir, mean, median, peak_rss_mb, ratio, reset_peak_rss, sim_digest,
    threads, Checks, Metrics,
};
use crate::store::{dir_bytes, TimedStore};
use crate::{layers, trace};

pub struct Steady {
    pub name: &'static str,
    pub configs: fn() -> Vec<CoreConfig>,
    pub kernels: &'static [&'static str],
}

/// VP is about half of host time on these kernels: few branches, mostly
/// cache-resident data.
pub const STEADY_VP: Steady = Steady {
    name: "steady-vp",
    configs: || {
        vec![
            CoreConfig::baseline_vp_6_64(),
            CoreConfig::eole_4_64(),
            CoreConfig::eole_dvtage_4_64(),
        ]
    },
    kernels: &["h264", "hmmer", "wupwise"],
};

/// No VP: memory dominates mcf and lbm, branch prediction gobmk and gzip.
pub const STEADY_NOVP: Steady = Steady {
    name: "steady-novp",
    configs: || vec![CoreConfig::baseline_6_64()],
    kernels: &["mcf", "lbm", "gobmk", "gzip"],
};

/// Warmup and measurement window of every steady cell (twice the
/// experiment harness's default methodology).
pub const RUNNER: Runner = Runner {
    warmup: 200_000,
    measure: 400_000,
};

/// Warm-store re-runs of the cells in the store-backed check.
const RERUNS: usize = 15;

impl Steady {
    /// Kernel-major cells, so each pass prepares one trace at a time.
    pub fn specs(&self, seed: u64, runner: Runner) -> Vec<RunSpec> {
        let mut out = Vec::new();
        for k in self.kernels {
            for config in (self.configs)() {
                out.push(RunSpec {
                    config,
                    workload: cells::workload(k),
                    runner,
                    seed,
                });
            }
        }
        out
    }
}

struct Pass {
    traced: bool,
    wall: f64,
    /// Trace generation and `PreparedTrace::new`.
    trace: f64,
    /// `trace` plus `Simulator::new`.
    setup: f64,
    measure: f64,
    peak_rss_mb: f64,
    stats: Vec<Option<SimStats>>,
}

impl Pass {
    fn committed(&self) -> u64 {
        self.stats.iter().flatten().map(|s| s.committed).sum()
    }

    fn cycles(&self) -> u64 {
        self.stats.iter().flatten().map(|s| s.cycles).sum()
    }

    fn mups(&self) -> f64 {
        ratio(self.committed() as f64, self.measure) / 1e6
    }

    /// The pass as a re-run on a warm trace cache would take it: every
    /// cell rebuilt, warmed and measured, no trace generated. (Timed
    /// runs never consult the result store, so the traces are all a
    /// re-run can reuse.)
    fn rerun(&self) -> f64 {
        self.wall - self.trace
    }
}

fn run_pass(specs: &[RunSpec], traced: bool) -> Pass {
    reset_peak_rss();
    let start = Instant::now();
    let mut pass = Pass {
        traced,
        wall: 0.0,
        trace: 0.0,
        setup: 0.0,
        measure: 0.0,
        peak_rss_mb: 0.0,
        stats: Vec::new(),
    };
    let mut i = 0;
    while i < specs.len() {
        let kernel = specs[i].workload.name;
        let group = specs[i..]
            .iter()
            .take_while(|s| s.workload.name == kernel)
            .count();
        let t = Instant::now();
        let trace = cells::prepare(&specs[i].workload, RUNNER.trace_len());
        pass.trace += t.elapsed().as_secs_f64();
        for spec in &specs[i..i + group] {
            let run = trace
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|t| cells::run_cell(t, spec));
            match run {
                Ok(run) => {
                    pass.setup += run.build_secs;
                    pass.measure += run.measure_secs;
                    pass.stats.push(Some(run.stats));
                }
                Err(e) => {
                    eprintln!("{e}");
                    pass.stats.push(None);
                }
            }
        }
        i += group;
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass.setup += pass.trace;
    pass.peak_rss_mb = peak_rss_mb();
    pass
}

/// What the store-backed check of the cells measured.
struct CheckPhase {
    exec_wall: f64,
    cold: crate::store::StoreLog,
    warm: crate::store::StoreLog,
    store_bytes: u64,
    traces_generated: usize,
}

fn same(a: &SimStats, b: &SimStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Runs the cells through `Session::run` over a fresh `DirStore` (their
/// statistics must equal the measured ones), the seed-0 quick reference
/// cells (their digest must equal the recorded one), renders the cells
/// as a report, then serves them [`RERUNS`] times from the warm store.
fn check_phase(
    w: &Steady,
    specs: &[RunSpec],
    reference: &[Option<SimStats>],
    checks: &mut Checks,
) -> Result<CheckPhase, String> {
    let dir = fresh_store_dir(w.name);
    let store = Arc::new(TimedStore::open(&dir)?);
    let session = |runner| {
        Session::builder()
            .runner(runner)
            .threads(threads())
            .store(store.clone())
            .build()
    };
    let compare = |results: &[eole_bench::RunResult], checks: &mut Checks, what: &str| {
        for (r, want) in results.iter().zip(reference) {
            let ok = match (&r.outcome, want) {
                (Ok(got), Some(want)) => same(got, want),
                _ => false,
            };
            checks.require(
                ok,
                1,
                &format!("{}: {what} differs from the timed run", r.spec.label()),
            );
        }
    };

    let cold = session(RUNNER)?;
    let start = Instant::now();
    let results = trace::section("bench.exec", || cold.run_specs(specs.to_vec()));
    let exec_wall = start.elapsed().as_secs_f64();
    compare(&results, checks, "Session::run");
    let cold_log = store.take_log();
    let traces_generated = cold.executor().cache().generated();
    let store_bytes = dir_bytes(&dir);

    let mut report = ExperimentReport::new("perfbench", format!("{} cells", w.name))
        .column("cell")
        .column_unit("IPC", "IPC");
    for r in &results {
        let ipc = r.outcome.as_ref().map_or(0.0, SimStats::ipc);
        report.add_row(vec![Cell::Text(r.spec.label()), Cell::Num(ipc)]);
    }
    let rendered = trace::span("stats.render", 1, || cold.render(&[report], Format::Json));
    checks.require(
        eole_stats::json::Json::parse(&rendered).is_ok(),
        specs.len() as u64,
        "Session::render emitted unparsable JSON",
    );

    let reference_specs = w.specs(0, Runner::quick());
    checks.attempted += reference_specs.len() as u64;
    let ref_results = cold.run_specs(reference_specs);
    let ref_stats: Vec<SimStats> = ref_results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().copied())
        .collect();
    checks.require(
        ref_stats.len() == ref_results.len(),
        (ref_results.len() - ref_stats.len()) as u64,
        "a seed-0 quick reference cell returned a RunError",
    );
    account_digest(
        checks,
        ref_results.len() as u64,
        w.name,
        "reference",
        &sim_digest(&ref_stats),
    );
    let _ = store.take_log();

    for _ in 0..RERUNS {
        let warm = session(RUNNER)?;
        let results = trace::section("bench.exec", || warm.run_specs(specs.to_vec()));
        compare(&results, checks, "warm-store re-run");
        checks.require(
            warm.executor().simulated() == 0,
            specs.len() as u64,
            "a warm-store re-run simulated instead of hitting the store",
        );
    }
    let warm_log = store.take_log();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(CheckPhase {
        exec_wall,
        cold: cold_log,
        warm: warm_log,
        store_bytes,
        traces_generated,
    })
}

pub fn run(w: &Steady, seed: u64, seconds: f64, traced: bool) -> (Metrics, Checks) {
    let specs = w.specs(seed, RUNNER);
    let n = specs.len() as u64;
    let mut checks = Checks::default();

    let mut passes: Vec<Pass> = Vec::new();
    let min_passes = if traced { 4 } else { 3 };
    let start = Instant::now();
    // Start another pass only if it should end within the budget.
    while passes.len() < min_passes
        || start.elapsed().as_secs_f64() + passes.last().map_or(0.0, |p| p.wall) <= seconds
    {
        let on = traced && passes.len().is_multiple_of(2);
        trace::set_enabled(on);
        let p = trace::section("pass", || run_pass(&specs, on));
        trace::set_enabled(false);
        eprintln!(
            "  pass {:>2}{}: wall {:.3} s, setup {:.3} s, {:.4} Muops/s",
            passes.len(),
            if on { " (traced)" } else { "" },
            p.wall,
            p.setup,
            p.mups()
        );
        passes.push(p);
    }

    checks.attempted += n * passes.len() as u64;
    let reference = passes[0].stats.clone();
    for p in &passes {
        for (i, (got, want)) in p.stats.iter().zip(&reference).enumerate() {
            let ok = matches!((got, want), (Some(a), Some(b)) if same(a, b));
            checks.require(
                ok,
                1,
                &format!(
                    "{}: failed, or SimStats differ across repeats",
                    specs[i].label()
                ),
            );
        }
    }
    for (spec, s) in specs.iter().zip(&reference) {
        if let Some(s) = s {
            checks.require(
                cells::window_ok(s, &spec.runner, &spec.config),
                1,
                &format!(
                    "{}: committed {} µ-ops for a {}-µ-op window (width {})",
                    spec.label(),
                    s.committed,
                    spec.runner.measure,
                    spec.config.commit_width
                ),
            );
        }
    }
    let cells_ok: Vec<SimStats> = reference.iter().flatten().copied().collect();
    let digest = sim_digest(&cells_ok);
    account_digest(&mut checks, n, w.name, &seed.to_string(), &digest);
    if traced {
        eprintln!("traced and untraced passes share sim_digest {digest}");
    }

    trace::set_enabled(traced);
    let phase = match check_phase(w, &specs, &reference, &mut checks) {
        Ok(p) => Some(p),
        Err(e) => {
            checks.require(false, n, &format!("store-backed check: {e}"));
            None
        }
    };

    let pick = |f: fn(&Pass) -> f64, want_traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == want_traced)
            .map(f)
            .collect()
    };
    let mut m = Metrics::default();
    if !traced {
        // Host speed here flips between two levels from one pass to the
        // next, so a median jumps between them while a mean over all
        // passes moves smoothly: time metrics are means, as
        // `sim_mups` (Σ µ-ops ÷ Σ seconds) is by definition.
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        let committed: u64 = untraced.iter().map(|p| p.committed()).sum();
        let measure: f64 = untraced.iter().map(|p| p.measure).sum();
        m.put(
            "sim_mups",
            ratio(committed as f64, measure) / 1e6,
            "Muops/s",
        );
        m.put("wall_s", mean(&pick(|p| p.wall, false)), "s");
        m.put("rerun_s", mean(&pick(Pass::rerun, false)), "s");
        m.put("setup_s", median(&pick(|p| p.setup, false)), "s");
        m.put("peak_rss_mb", median(&pick(|p| p.peak_rss_mb, false)), "MB");
        return (m, checks);
    }

    // Per-layer metrics of the traced run.
    let traced_passes: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let in_passes = trace::totals(&trace::snapshot(), Some("pass"));
    crate::put_core(
        &mut m,
        &in_passes,
        &in_passes,
        traced_passes.iter().map(|p| p.measure).sum(),
        traced_passes.iter().map(|p| p.cycles()).sum(),
    );

    let kernels: Vec<_> = w.kernels.iter().map(|k| cells::workload(k)).collect();
    let layer = layers::layers(&kernels, RUNNER, seed, &mut checks);
    let lookups = |kind: &str| -> u64 {
        specs
            .iter()
            .zip(&reference)
            .filter(|(spec, _)| cells::vp_kind(&spec.config) == Some(kind))
            .filter_map(|(_, s)| s.map(|s| s.vp_eligible))
            .sum()
    };
    let pass_measure_ns = mean(&pick(|p| p.measure, true)) * 1e9;
    crate::put_vp_lookups(&mut m, &layer.ns_per_lookup, lookups, pass_measure_ns);
    m.extend(layer.metrics);
    let warm_config = (w.configs)().remove(0);
    m.extend(layers::warm(
        &kernels[0],
        warm_config,
        RUNNER,
        seed,
        &mut checks,
    ));
    m.extend(layers::intervals(
        &STEADY_VP.specs(seed, RUNNER),
        RUNNER,
        &mut checks,
    ));
    if let Some(p) = &phase {
        crate::put_exec_store(
            &mut m,
            &p.cold,
            &p.warm,
            p.exec_wall,
            p.traces_generated,
            p.store_bytes,
        );
    }
    let paper: Vec<(f64, f64)> = layer
        .baseline_ipc
        .iter()
        .filter_map(|(k, ours)| {
            PAPER_IPC
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, p)| (*ours, *p))
        })
        .collect();
    crate::put_model(&mut m, &cells_ok, &paper);
    let overhead = mean(&pick(|p| p.wall, true)) - mean(&pick(|p| p.wall, false));
    crate::put_trace(&mut m, overhead);
    (m, checks)
}
