//! The repository benchmark: end-to-end host cost of the EOLE simulator
//! on three workloads, and, with `--trace 1`, the per-layer split.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady-vp --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Everything else (per-metric lines, check failures, digests, span
//! summary) goes to standard error. `--record-digests` prints the
//! `digests.json` the output check compares against. See README.md.

mod cells;
mod common;
mod layers;
mod steady;
mod store;
mod suite;
mod trace;

use eole_bench::experiments::ExperimentSet;
use eole_bench::{Format, Runner, Session};
use eole_core::canon::SIM_FINGERPRINT_VERSION;
use eole_core::stats::SimStats;
use eole_workloads::all_workloads;

use std::collections::BTreeMap;

use common::{gmean, quantile, ratio, sim_digest, text_digest, threads, Checks, Metrics};
use store::StoreLog;
use trace::Totals;

const WORKLOADS: [&str; 3] = ["steady-vp", "steady-novp", "suite-quick"];

const USAGE: &str = "usage: eole-perfbench --workload steady-vp|steady-novp|suite-quick \
--seed N --seconds N --trace 0|1\n       eole-perfbench --record-digests";

/// Layer spans whose self time the traced run reports.
const SELF_TIME_SPANS: [&str; 18] = [
    "workloads.trace",
    "core.prepare",
    "core.build",
    "core.warmup",
    "core.measure",
    "core.warm.functional",
    "core.warm.capture",
    "core.warm.restore",
    "predictors.branch.tage",
    "predictors.value.vtage2ds",
    "predictors.value.dvtage",
    "mem.access",
    "bench.exec",
    "bench.store.get",
    "bench.store.put",
    "stats.render",
    "bench.intervals.serial",
    "bench.intervals.split",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Trace and `core` metrics: preparation from the spans in `prep`, the
/// pipeline from those in `pipe`, whose measurement windows took
/// `measure_secs` host seconds for `cycles` simulated cycles.
pub fn put_core(
    m: &mut Metrics,
    prep: &BTreeMap<&'static str, Totals>,
    pipe: &BTreeMap<&'static str, Totals>,
    measure_secs: f64,
    cycles: u64,
) {
    let get =
        |t: &BTreeMap<&'static str, Totals>, name: &str| t.get(name).copied().unwrap_or_default();
    let build = get(prep, "core.build");
    m.put(
        "workloads.trace_ns_per_uop",
        get(prep, "workloads.trace").ns_per_unit(),
        "ns",
    );
    m.put(
        "core.prepare_ns_per_uop",
        get(prep, "core.prepare").ns_per_unit(),
        "ns",
    );
    m.put(
        "core.build_us",
        ratio(build.secs * 1e6, build.calls as f64),
        "us",
    );
    m.put(
        "core.warmup_ns_per_uop",
        get(pipe, "core.warmup").ns_per_unit(),
        "ns",
    );
    m.put(
        "core.measure_ns_per_uop",
        get(pipe, "core.measure").ns_per_unit(),
        "ns",
    );
    m.put(
        "core.host_ns_per_sim_cycle",
        ratio(measure_secs * 1e9, cycles as f64),
        "ns",
    );
}

/// `.lookups` and `.host_share` per timed VP kind: `lookups(kind)` is the
/// number of VP-eligible committed µ-ops of the workload's cells that
/// use that kind, `host_ns` the host time of those cells' measurement.
pub fn put_vp_lookups(
    m: &mut Metrics,
    ns_per_lookup: &BTreeMap<&'static str, f64>,
    lookups: impl Fn(&str) -> u64,
    host_ns: f64,
) {
    for kind in cells::VP_KINDS {
        let n = lookups(kind);
        let ns = ns_per_lookup.get(kind).copied().unwrap_or(0.0);
        m.put(
            format!("predictors.value.{kind}.lookups"),
            n as f64,
            "count",
        );
        m.put(
            format!("predictors.value.{kind}.host_share"),
            ratio(ns * n as f64, host_ns),
            "ratio",
        );
    }
}

/// Executor and store metrics of one cold pass (`cold`, its wall time
/// and trace count) and the warm re-runs that followed it (`warm`).
pub fn put_exec_store(
    m: &mut Metrics,
    cold: &StoreLog,
    warm: &StoreLog,
    cold_wall: f64,
    traces_generated: usize,
    store_bytes: u64,
) {
    let cell_ms: Vec<f64> = cold.sims.iter().map(|c| c.secs * 1e3).collect();
    let busy: f64 =
        cold.sims.iter().map(|c| c.secs).sum::<f64>() + cold.hit_secs.iter().sum::<f64>();
    m.put(
        "bench.exec.busy_frac",
        ratio(busy, cold_wall * threads() as f64),
        "ratio",
    );
    m.put("bench.exec.cell_ms_p50", quantile(&cell_ms, 0.5), "ms");
    m.put("bench.exec.cell_ms_p90", quantile(&cell_ms, 0.9), "ms");
    m.put(
        "bench.exec.cells",
        (cold.hits + cold.misses) as f64,
        "count",
    );
    m.put(
        "bench.exec.traces_generated",
        traces_generated as f64,
        "count",
    );
    m.put(
        "bench.store.put_us",
        ratio(cold.put_secs * 1e6, cold.puts as f64),
        "us",
    );
    m.put(
        "bench.store.get_us",
        ratio(
            (cold.get_secs + warm.get_secs) * 1e6,
            (cold.gets + warm.gets) as f64,
        ),
        "us",
    );
    m.put("bench.store.hits", (cold.hits + warm.hits) as f64, "count");
    m.put(
        "bench.store.misses",
        (cold.misses + warm.misses) as f64,
        "count",
    );
    m.put("bench.store.bytes", store_bytes as f64, "bytes");
    let all = trace::snapshot();
    let render = trace::totals(&all, None)
        .get("stats.render")
        .copied()
        .unwrap_or_default();
    m.put(
        "stats.render_ms",
        ratio(render.secs * 1e3, render.calls as f64),
        "ms",
    );
}

/// Simulated (exact) statistics of a workload's cells, plus the error
/// against the paper's Table 3 Baseline_6_64 IPC over `(ours, paper)`.
pub fn put_model(m: &mut Metrics, cells: &[SimStats], ipc_vs_paper: &[(f64, f64)]) {
    let mut total = SimStats::default();
    for s in cells {
        total.merge(s);
    }
    let ipcs: Vec<f64> = cells.iter().map(SimStats::ipc).collect();
    m.put("model.ipc_gmean", gmean(&ipcs), "IPC");
    m.put("model.vp_coverage", total.vp_coverage(), "ratio");
    m.put("model.vp_accuracy", total.vp_accuracy(), "ratio");
    m.put("model.branch_mpki", total.branch_mpki(), "MPKI");
    m.put(
        "model.l1d_mpki",
        ratio(total.mem.l1d.misses as f64 * 1000.0, total.committed as f64),
        "MPKI",
    );
    m.put("model.offload_frac", total.offload_fraction(), "ratio");
    let errs: Vec<f64> = ipc_vs_paper
        .iter()
        .map(|(ours, paper)| (ours / paper).ln().abs())
        .collect();
    m.put("model.ipc_err_vs_paper", gmean(&errs), "ratio");
}

/// Tracing overhead, span count and self time per layer span.
pub fn put_trace(m: &mut Metrics, overhead_s: f64) {
    let all = trace::snapshot();
    let totals = trace::totals(&all, None);
    m.put("trace.overhead_s", overhead_s, "s");
    m.put("trace.spans", all.len() as f64, "count");
    for name in SELF_TIME_SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        m.put(format!("trace.self_ms.{name}"), t.self_secs * 1e3, "ms");
    }
}

/// Prints the digests `digests.json` records: the steady workloads at
/// seeds 0..=20 and their seed-0 quick reference cells, and the quick
/// suite's report set.
fn record_digests() {
    let mut out = format!("{{\n  \"sim_fingerprint_version\": {SIM_FINGERPRINT_VERSION}");
    for w in [&steady::STEADY_VP, &steady::STEADY_NOVP] {
        let session = Session::builder()
            .runner(steady::RUNNER)
            .threads(threads())
            .build()
            .expect("a store-less session always builds");
        let digest = |specs| {
            let stats: Vec<SimStats> = session
                .run_specs(specs)
                .iter()
                .map(|r| *r.stats().expect("benchmark cells simulate cleanly"))
                .collect();
            sim_digest(&stats)
        };
        let mut rows = vec![format!(
            "\"reference\": \"{}\"",
            digest(w.specs(0, Runner::quick()))
        )];
        for seed in 0..=20u64 {
            rows.push(format!(
                "\"{seed}\": \"{}\"",
                digest(w.specs(seed, steady::RUNNER))
            ));
            eprintln!("recorded {} seed {seed}", w.name);
        }
        out.push_str(&format!(",\n  \"{}\": {{{}}}", w.name, rows.join(", ")));
    }
    let session = Session::builder()
        .runner(Runner::quick())
        .threads(threads())
        .build()
        .expect("a store-less session always builds");
    let set = ExperimentSet::with_session(session, all_workloads());
    let reports = set.all().expect("the quick suite runs cleanly");
    let json = set.session().render(&reports, Format::Json);
    out.push_str(&format!(
        ",\n  \"suite-quick\": {{\"report\": \"{}\"}}\n}}",
        text_digest(&json)
    ));
    println!("{out}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-digests") {
        record_digests();
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!(
        "eole-perfbench: workload {} seed {} seconds {} trace {} on {} thread(s), \
         SIM_FINGERPRINT_VERSION {SIM_FINGERPRINT_VERSION}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        threads()
    );
    let (metrics, checks): (Metrics, Checks) = match args.workload.as_str() {
        "steady-vp" => steady::run(&steady::STEADY_VP, args.seed, args.seconds, args.trace),
        "steady-novp" => steady::run(&steady::STEADY_NOVP, args.seed, args.seconds, args.trace),
        _ => suite::run(args.seconds, args.trace),
    };
    trace::set_enabled(false);
    if args.trace {
        let path =
            common::out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let header = format!("\"workload\":\"{}\",\"seed\":{}", args.workload, args.seed);
        match trace::write(&path, &header) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let failed = checks.failed();
    for mt in &metrics.0 {
        eprintln!("  {:<44} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    eprintln!(
        "  {:<44} {:>16.6} ratio ({failed} of {} cells)",
        "failed_frac",
        ratio(failed as f64, checks.attempted as f64),
        checks.attempted
    );
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|mt| {
            let value = if mt.value.is_finite() { mt.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                mt.name, mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted.max(1),
        body.join(", ")
    );
}
