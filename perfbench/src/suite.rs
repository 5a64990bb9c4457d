//! The `suite-quick` workload: the `make experiments` / CI suite
//! (`ExperimentSet::all` at the quick methodology, `nproc` executor
//! workers) run twice per pair — cold into a fresh, empty `DirStore`,
//! then again on the now-warm store — for the run's time budget.

use std::sync::Arc;
use std::time::Instant;

use eole_bench::experiments::ExperimentSet;
use eole_bench::{Format, Runner, Session};
use eole_core::config::CoreConfig;
use eole_core::pipeline::Simulator;
use eole_stats::report::{Cell, ExperimentReport};
use eole_workloads::all_workloads;

use crate::cells;
use crate::common::{
    account_digest, fresh_store_dir, mean, median, peak_rss_mb, ratio, reset_peak_rss, text_digest,
    threads, Checks, Metrics,
};
use crate::store::{dir_bytes, SimCell, StoreLog, TimedStore};
use crate::{layers, steady, trace};

/// Set-up repetitions per run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

/// Cold/warm pairs per run at least (a traced run traces every other).
const MIN_PAIRS: usize = 2;

/// Trace generation and preparation of the suite's 19 kernels at the
/// quick trace length, plus `Simulator::new` of every preset on one of
/// them: the set-up the suite's cells pay before simulating. The traces
/// stay alive together, as in the executor's trace cache. Returns the
/// host seconds and the peak resident memory in MB.
fn setup() -> Result<(f64, f64), String> {
    let runner = Runner::quick();
    reset_peak_rss();
    let start = Instant::now();
    trace::section("setup", || {
        let traces = all_workloads()
            .iter()
            .map(|w| cells::prepare(w, runner.trace_len()))
            .collect::<Result<Vec<_>, _>>()?;
        for config in CoreConfig::all_presets() {
            let name = config.name.clone();
            trace::span("core.build", 1, || Simulator::new(&traces[0], config))
                .map_err(|e| format!("{name}: build: {e}"))?;
        }
        Ok((start.elapsed().as_secs_f64(), peak_rss_mb()))
    })
}

struct PassOut {
    wall: f64,
    cells: u64,
    simulated: usize,
    traces_generated: usize,
    /// The rendered report set without its run-varying `store` block.
    payload: Result<String, String>,
    reports: Vec<ExperimentReport>,
}

fn suite_pass(store: &Arc<TimedStore>, root: &'static str) -> Result<PassOut, String> {
    let session = Session::builder()
        .runner(Runner::quick())
        .threads(threads())
        .store(store.clone())
        .build()?;
    let set = ExperimentSet::with_session(session, all_workloads());
    let start = Instant::now();
    let out = trace::section(root, || {
        let reports = trace::section("bench.exec", || set.all())?;
        let json = trace::span("stats.render", 1, || {
            set.session().render(&reports, Format::Json)
        });
        Ok::<_, eole_bench::RunError>((reports, json))
    });
    let wall = start.elapsed().as_secs_f64();
    let exec = set.executor();
    let (payload, reports) = match out {
        Ok((reports, json)) => (Ok(strip_store(&json)), reports),
        Err(e) => (Err(e.to_string()), Vec::new()),
    };
    Ok(PassOut {
        wall,
        cells: (exec.store_hits() + exec.store_misses()) as u64,
        simulated: exec.simulated(),
        traces_generated: exec.cache().generated(),
        payload,
        reports,
    })
}

/// Drops the flat `,"store":{…}` accounting block, as the CI byte
/// comparison does.
fn strip_store(json: &str) -> String {
    match json.find(",\"store\":{") {
        Some(at) => match json[at..].find('}') {
            Some(end) => format!("{}{}", &json[..at], &json[at + end + 1..]),
            None => json.to_string(),
        },
        None => json.to_string(),
    }
}

struct Pair {
    traced: bool,
    wall: f64,
    cold: PassOut,
    warm: PassOut,
    cold_log: StoreLog,
    warm_log: StoreLog,
    store_bytes: u64,
}

impl Pair {
    /// Simulated µ-ops per host second of the cold pass's simulated cells
    /// (each cell's seconds run from its store miss to its put, so they
    /// include trace waits, build and warmup).
    fn mups(&self) -> f64 {
        let committed: u64 = self.cold_log.sims.iter().map(|c| c.stats.committed).sum();
        let secs: f64 = self.cold_log.sims.iter().map(|c| c.secs).sum();
        ratio(committed as f64, secs) / 1e6
    }
}

fn run_pair(i: usize, traced: bool) -> Result<Pair, String> {
    let start = Instant::now();
    let dir = fresh_store_dir(&format!("suite{i}"));
    let store = Arc::new(TimedStore::open(&dir)?);
    let cold = suite_pass(&store, "pass.cold")?;
    let cold_log = store.take_log();
    let store_bytes = dir_bytes(&dir);
    let warm = suite_pass(&store, "pass.warm")?;
    let warm_log = store.take_log();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pair {
        traced,
        wall: start.elapsed().as_secs_f64(),
        cold,
        warm,
        cold_log,
        warm_log,
        store_bytes,
    })
}

fn check_pair(p: &Pair, checks: &mut Checks) {
    checks.attempted += p.cold.cells + p.warm.cells;
    let all = p.cold.cells + p.warm.cells;
    match (&p.cold.payload, &p.warm.payload) {
        (Ok(cold), Ok(warm)) => {
            checks.require(
                cold == warm,
                all,
                "warm-store report set differs from the cold one (store block removed)",
            );
            account_digest(checks, all, "suite-quick", "report", &text_digest(cold));
        }
        (Err(e), _) | (_, Err(e)) => checks.require(false, all, e),
    }
    checks.require(
        p.warm.simulated == 0,
        p.warm.cells,
        "the warm pass simulated instead of hitting the store",
    );
}

/// Baseline_6_64 IPC, ours against the paper's, from the `table3` report.
fn table3_ipc(reports: &[ExperimentReport]) -> Vec<(f64, f64)> {
    let Some(t3) = reports.iter().find(|r| r.id() == "table3") else {
        return Vec::new();
    };
    t3.rows()
        .iter()
        .filter_map(|row| match (row.get(2), row.get(3)) {
            (Some(Cell::Num(ours)), Some(Cell::Num(paper))) => Some((*ours, *paper)),
            _ => None,
        })
        .collect()
}

pub fn run(seconds: f64, traced: bool) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    trace::set_enabled(traced);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut peaks = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match setup() {
            Ok((secs, peak)) => {
                setups.push(secs);
                peaks.push(peak);
            }
            Err(e) => {
                checks.attempted += 1;
                checks.require(false, 1, &format!("suite set-up: {e}"));
            }
        }
    }
    trace::set_enabled(false);

    let mut pairs: Vec<Pair> = Vec::new();
    let start = Instant::now();
    // Start another pair only if it should end within the budget.
    while pairs.len() < MIN_PAIRS
        || start.elapsed().as_secs_f64() + pairs.last().map_or(0.0, |p| p.wall) <= seconds
    {
        let on = traced && pairs.len().is_multiple_of(2);
        trace::set_enabled(on);
        let pair = run_pair(pairs.len(), on);
        trace::set_enabled(false);
        match pair {
            Ok(p) => {
                eprintln!(
                    "  pair {:>2}{}: cold {:.3} s, warm {:.3} s, {:.4} Muops/s",
                    pairs.len(),
                    if on { " (traced)" } else { "" },
                    p.cold.wall,
                    p.warm.wall,
                    p.mups()
                );
                check_pair(&p, &mut checks);
                pairs.push(p);
            }
            Err(e) => {
                checks.attempted += 1;
                checks.require(false, 1, &format!("suite pass: {e}"));
                break;
            }
        }
    }

    let pick = |f: fn(&Pair) -> f64, want_traced: bool| -> Vec<f64> {
        pairs
            .iter()
            .filter(|p| p.traced == want_traced)
            .map(f)
            .collect()
    };
    let mut m = Metrics::default();
    if !traced {
        // Means over pairs, as on the steady workloads.
        let sims: Vec<&SimCell> = pairs
            .iter()
            .filter(|p| !p.traced)
            .flat_map(|p| &p.cold_log.sims)
            .collect();
        let committed: u64 = sims.iter().map(|c| c.stats.committed).sum();
        let secs: f64 = sims.iter().map(|c| c.secs).sum();
        m.put("sim_mups", ratio(committed as f64, secs) / 1e6, "Muops/s");
        m.put("wall_s", mean(&pick(|p| p.cold.wall, false)), "s");
        m.put("rerun_s", mean(&pick(|p| p.warm.wall, false)), "s");
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", median(&peaks), "MB");
        return (m, checks);
    }

    trace::set_enabled(true);
    let kernels = all_workloads();
    let runner = Runner::quick();
    let layer = layers::layers(&kernels, runner, 0, &mut checks);
    let all = trace::snapshot();
    crate::put_core(
        &mut m,
        &trace::totals(&all, None),
        &trace::totals(&all, Some("layers")),
        layer.measure_secs,
        layer.cycles,
    );

    let Some(p) = pairs.iter().find(|p| p.traced) else {
        return (m, checks);
    };
    let sims = p.cold_log.sorted_sims();
    let lookups = |kind: &str| -> u64 {
        sims.iter()
            .filter(|c| cells::vp_kind_by_name(&c.config, &c.stats) == Some(kind))
            .map(|c| c.stats.vp_eligible)
            .sum()
    };
    let cell_secs: f64 = sims.iter().map(|c| c.secs).sum();
    crate::put_vp_lookups(&mut m, &layer.ns_per_lookup, lookups, cell_secs * 1e9);
    m.extend(layer.metrics);
    let gzip = cells::workload("gzip");
    m.extend(layers::warm(
        &gzip,
        CoreConfig::eole_4_64(),
        runner,
        0,
        &mut checks,
    ));
    let steady_vp = steady::STEADY_VP.specs(0, steady::RUNNER);
    m.extend(layers::intervals(&steady_vp, steady::RUNNER, &mut checks));
    crate::put_exec_store(
        &mut m,
        &p.cold_log,
        &p.warm_log,
        p.cold.wall,
        p.cold.traces_generated,
        p.store_bytes,
    );
    let stats: Vec<_> = sims.iter().map(|c| c.stats).collect();
    crate::put_model(&mut m, &stats, &table3_ipc(&p.cold.reports));
    let overhead = mean(&pick(|p| p.cold.wall, true)) - mean(&pick(|p| p.cold.wall, false));
    crate::put_trace(&mut m, overhead);
    (m, checks)
}
