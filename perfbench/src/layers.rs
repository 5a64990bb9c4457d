//! The isolated sections of the traced run. Each drives one layer's
//! public functions directly over the streams a workload's traces carry,
//! so its cost is measured apart from the pipeline that normally calls
//! it:
//!
//! * `layers` — `DirectionPredictor` on `Tage` over the conditional
//!   branches, `evaluate_stream` on each timed value predictor over the
//!   VP-eligible µ-ops, `MemoryHierarchy::load`/`store` over the address
//!   stream, and a no-VP / VP pair of cells per kernel for `core.vp_share`;
//! * `warm` — `functional_warm`, `capture_warm` and `restore_warm`;
//! * `intervals` — `Session::time_run_intervals` against serial
//!   `Session::time_run` on the steady-vp cells.

use std::collections::BTreeMap;

use eole_bench::{IntervalPolicy, RunSpec, Runner, Session};
use eole_core::config::{CoreConfig, VpConfig};
use eole_core::pipeline::{PreparedTrace, Simulator};
use eole_isa::{InstClass, Program};
use eole_mem::hierarchy::MemoryHierarchy;
use eole_predictors::branch::{DirectionPredictor, Tage};
use eole_predictors::history::BranchHistory;
use eole_predictors::value::{
    evaluate_stream, DVtage, DVtageConfig, EvalStats, VtageTwoDeltaStride,
};
use eole_workloads::Workload;

use crate::cells::{self, VP_KINDS};
use crate::common::{ratio, Checks, Metrics};
use crate::trace::{self, Totals};

/// What the layer section hands back besides its metrics.
pub struct LayerOut {
    pub metrics: Metrics,
    /// ns per `evaluate_stream` lookup, per timed VP kind.
    pub ns_per_lookup: BTreeMap<&'static str, f64>,
    /// Baseline_6_64 IPC per kernel, at the workload's methodology.
    pub baseline_ipc: Vec<(&'static str, f64)>,
    /// Measurement-window host seconds and simulated cycles of the
    /// section's cells.
    pub measure_secs: f64,
    pub cycles: u64,
}

fn drive_direction(
    p: &mut dyn DirectionPredictor,
    history: &BranchHistory,
    branches: &[(u64, u32, bool)],
) -> u64 {
    let mut mispredicts = 0;
    for &(pc, pos, taken) in branches {
        let view = history.view(pos as usize);
        if p.predict(pc, view).taken != taken {
            mispredicts += 1;
        }
        p.update(pc, view, taken);
    }
    mispredicts
}

/// Replays a trace's loads and stores in order and returns their number.
/// The clock advances one cycle per µ-op and waits for each load, as in
/// `Simulator::functional_warm`.
fn drive_memory(mem: &mut MemoryHierarchy, trace: &PreparedTrace) -> u64 {
    let mut cycle = 0u64;
    let mut accesses = 0;
    for di in trace.insts() {
        match di.class() {
            InstClass::Load => {
                cycle = cycle.max(mem.load(Program::inst_addr(di.pc), di.addr, cycle));
                accesses += 1;
            }
            InstClass::Store => {
                mem.store(Program::inst_addr(di.pc), di.addr, cycle);
                accesses += 1;
            }
            _ => {}
        }
        cycle += 1;
    }
    accesses
}

fn spec(config: CoreConfig, w: &Workload, runner: Runner, seed: u64) -> RunSpec {
    RunSpec {
        config,
        workload: w.clone(),
        runner,
        seed,
    }
}

/// Replays one VP kind over `trace`'s VP-eligible stream; the seed is
/// the one the kind's preset runs with under `seed`.
fn drive_value(kind: &str, w: &Workload, trace: &PreparedTrace, seed: u64) -> EvalStats {
    let stream = eole_bench::vp_stream(trace);
    let n = stream.len() as u64;
    let preset = match kind {
        "dvtage" => CoreConfig::eole_dvtage_4_64(),
        _ => CoreConfig::baseline_vp_6_64(),
    };
    let vp: VpConfig = spec(preset, w, Runner::quick(), seed)
        .effective_config()
        .vp
        .expect("VP presets carry a VP");
    let replay = |p: &mut dyn eole_predictors::value::ValuePredictor| {
        evaluate_stream(p, trace.history(), stream.iter().copied())
    };
    match kind {
        "dvtage" => trace::span("predictors.value.dvtage", n, || {
            replay(&mut DVtage::new(
                DVtageConfig::paper(vp.block_size, vp.banks),
                vp.seed,
            ))
        }),
        _ => trace::span("predictors.value.vtage2ds", n, || {
            replay(&mut VtageTwoDeltaStride::paper(vp.seed))
        }),
    }
}

pub fn layers(kernels: &[Workload], runner: Runner, seed: u64, checks: &mut Checks) -> LayerOut {
    let mut branches_total = 0u64;
    let mut mispredicts = 0u64;
    let mut eval: BTreeMap<&'static str, EvalStats> = BTreeMap::new();
    let mut mem_stats = eole_mem::hierarchy::MemStats::default();
    let mut novp_ns = (0.0, 0u64);
    let mut vp_ns = (0.0, 0u64);
    let mut baseline_ipc = Vec::new();
    let mut cycles = 0u64;
    trace::section("layers", || {
        for w in kernels {
            let trace = match cells::prepare(w, runner.trace_len()) {
                Ok(t) => t,
                Err(e) => {
                    checks.attempted += 2;
                    checks.require(false, 2, &e);
                    continue;
                }
            };
            let base = spec(CoreConfig::baseline_6_64(), w, runner, seed).effective_config();

            let branches: Vec<(u64, u32, bool)> = trace
                .insts()
                .iter()
                .filter(|di| di.class() == InstClass::Branch)
                .map(|di| (Program::inst_addr(di.pc), di.bhist_pos, di.taken))
                .collect();
            branches_total += branches.len() as u64;
            mispredicts += trace::span("predictors.branch.tage", branches.len() as u64, || {
                drive_direction(
                    &mut Tage::paper(base.branch_seed),
                    trace.history(),
                    &branches,
                )
            });

            for kind in VP_KINDS {
                let s = drive_value(kind, w, &trace, seed);
                let acc = eval.entry(kind).or_default();
                acc.attempted += s.attempted;
                acc.predicted += s.predicted;
                acc.confident += s.confident;
                acc.confident_correct += s.confident_correct;
                acc.correct += s.correct;
            }

            let mut mem = MemoryHierarchy::new(&base.mem);
            let start = std::time::Instant::now();
            let accesses = trace::span_counted("mem.access", || {
                let n = drive_memory(&mut mem, &trace);
                (n, n)
            });
            eprintln!(
                "  mem.access {:<8} {:>8.1} ns/access over {accesses} accesses",
                w.name,
                ratio(start.elapsed().as_secs_f64() * 1e9, accesses as f64)
            );
            mem_stats.merge(&mem.stats());

            for (config, acc) in [
                (CoreConfig::baseline_6_64(), &mut novp_ns),
                (CoreConfig::baseline_vp_6_64(), &mut vp_ns),
            ] {
                checks.attempted += 1;
                let is_base = config.vp.is_none();
                match cells::run_cell(&trace, &spec(config, w, runner, seed)) {
                    Ok(run) => {
                        acc.0 += run.measure_secs;
                        acc.1 += run.stats.committed;
                        cycles += run.stats.cycles;
                        if is_base {
                            baseline_ipc.push((w.name, run.stats.ipc()));
                        }
                    }
                    Err(e) => checks.require(false, 1, &e),
                }
            }
        }
    });

    let all = trace::snapshot();
    let totals = trace::totals(&all, Some("layers"));
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mut m = Metrics::default();
    let mut ns_per_lookup = BTreeMap::new();
    for kind in VP_KINDS {
        let span = if kind == "dvtage" {
            "predictors.value.dvtage"
        } else {
            "predictors.value.vtage2ds"
        };
        let ns = t(span).ns_per_unit();
        ns_per_lookup.insert(kind, ns);
        let e = eval.get(kind).copied().unwrap_or_default();
        m.put(format!("predictors.value.{kind}.ns_per_lookup"), ns, "ns");
        m.put(
            format!("predictors.value.{kind}.coverage"),
            e.coverage(),
            "ratio",
        );
        m.put(
            format!("predictors.value.{kind}.accuracy"),
            e.accuracy(),
            "ratio",
        );
    }
    m.put(
        "predictors.branch.tage.ns_per_branch",
        t("predictors.branch.tage").ns_per_unit(),
        "ns",
    );
    m.put(
        "predictors.branch.tage.mispredict_rate",
        ratio(mispredicts as f64, branches_total as f64),
        "ratio",
    );
    m.put("mem.ns_per_access", t("mem.access").ns_per_unit(), "ns");
    m.put("mem.l1d_miss_rate", mem_stats.l1d.miss_rate(), "ratio");
    m.put("mem.l2_miss_rate", mem_stats.l2.miss_rate(), "ratio");
    m.put(
        "mem.dram_row_hit_rate",
        ratio(
            mem_stats.dram.row_hits as f64,
            mem_stats.dram.accesses as f64,
        ),
        "ratio",
    );
    let novp = ratio(novp_ns.0 * 1e9, novp_ns.1 as f64);
    let vp = ratio(vp_ns.0 * 1e9, vp_ns.1 as f64);
    m.put(
        "core.vp_share",
        if vp > 0.0 { 1.0 - novp / vp } else { 0.0 },
        "ratio",
    );
    LayerOut {
        metrics: m,
        ns_per_lookup,
        baseline_ipc,
        measure_secs: novp_ns.0 + vp_ns.0,
        cycles,
    }
}

/// Captures and restores are single calls of a few µs to ms; repeat them
/// so the per-call figure averages several.
const WARM_REPS: usize = 5;
/// µ-ops simulated after a capture and after its restore, which must
/// produce identical statistics.
const WARM_CHECK: u64 = 20_000;

pub fn warm(
    w: &Workload,
    config: CoreConfig,
    runner: Runner,
    seed: u64,
    checks: &mut Checks,
) -> Metrics {
    let spec = spec(config, w, runner, seed);
    let label = spec.label();
    checks.attempted += 1;
    let out = trace::section("warm", || -> Result<usize, String> {
        let trace = cells::prepare(w, runner.trace_len())?;
        let cfg = spec.effective_config();
        let build = |what: &str| {
            Simulator::new(&trace, cfg.clone()).map_err(|e| format!("{label}: {what}: {e}"))
        };
        let mut replayed = build("build")?;
        let upto = runner.warmup as usize;
        trace::span("core.warm.functional", runner.warmup, || {
            replayed.functional_warm(upto)
        });
        let mut state = None;
        for _ in 0..WARM_REPS {
            state = Some(trace::span("core.warm.capture", 1, || {
                replayed.capture_warm()
            }));
        }
        let state = state.expect("WARM_REPS > 0");
        let mut restored = build("build")?;
        for _ in 0..WARM_REPS {
            trace::span("core.warm.restore", 1, || restored.restore_warm(&state))
                .map_err(|e| format!("{label}: restore_warm: {e}"))?;
        }
        replayed
            .run(WARM_CHECK)
            .map_err(|e| format!("{label}: run after replay: {e}"))?;
        restored
            .run(WARM_CHECK)
            .map_err(|e| format!("{label}: run after restore: {e}"))?;
        if format!("{:?}", replayed.stats()) != format!("{:?}", restored.stats()) {
            return Err(format!(
                "{label}: restored checkpoint diverges from the functional replay"
            ));
        }
        Ok(state.len())
    });
    let bytes = match out {
        Ok(b) => b,
        Err(e) => {
            checks.require(false, 1, &e);
            0
        }
    };
    let all = trace::snapshot();
    let totals = trace::totals(&all, Some("warm"));
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call_us = |t: Totals| ratio(t.secs * 1e6, t.calls as f64);
    let mut m = Metrics::default();
    m.put(
        "core.warm.functional_ns_per_uop",
        t("core.warm.functional").ns_per_unit(),
        "ns",
    );
    m.put(
        "core.warm.capture_us",
        per_call_us(t("core.warm.capture")),
        "us",
    );
    m.put(
        "core.warm.restore_us",
        per_call_us(t("core.warm.restore")),
        "us",
    );
    m.put("core.warm.bytes", bytes as f64, "bytes");
    m
}

/// Interval split used by the comparator (the `--intervals 8` the
/// ROADMAP measured).
const INTERVALS_K: u32 = 8;

pub fn intervals(specs: &[RunSpec], runner: Runner, checks: &mut Checks) -> Metrics {
    let threads = crate::common::threads();
    let session = Session::builder()
        .runner(runner)
        .threads(threads)
        .build()
        .expect("a store-less session always builds");
    let policy = IntervalPolicy::of(INTERVALS_K, &runner);
    let (mut serial_s, mut sweep_s, mut detailed_s) = (0.0, 0.0, 0.0);
    trace::section("intervals", || {
        for spec in specs {
            checks.attempted += 1;
            // Trace generation stays outside both timings.
            if let Err(e) = session.prepare(&spec.workload) {
                checks.require(false, 1, &e.to_string());
                continue;
            }
            let start = std::time::Instant::now();
            let serial = trace::span("bench.intervals.serial", runner.measure, || {
                session.time_run(spec)
            });
            let serial_secs = start.elapsed().as_secs_f64();
            let split = trace::span("bench.intervals.split", runner.measure, || {
                session.time_run_intervals(spec, threads, policy)
            });
            match (serial, split) {
                (Ok(_), Ok(split)) => {
                    serial_s += serial_secs;
                    sweep_s += split.warmup_seconds;
                    detailed_s += split.detailed_seconds;
                    checks.require(
                        split.stats.committed == runner.measure,
                        1,
                        &format!(
                            "{}: stitched run committed {} µ-ops, not exactly {}",
                            spec.label(),
                            split.stats.committed,
                            runner.measure
                        ),
                    );
                }
                (Err(e), _) | (_, Err(e)) => checks.require(false, 1, &e.to_string()),
            }
        }
    });
    let speedup = ratio(serial_s, sweep_s + detailed_s);
    eprintln!(
        "  intervals k={INTERVALS_K} on {threads} worker(s): serial {serial_s:.3} s, \
         sweep {sweep_s:.3} s + detailed {detailed_s:.3} s, speedup_vs_serial {speedup:.3}"
    );
    let mut m = Metrics::default();
    m.put("bench.intervals.speedup_vs_serial", speedup, "ratio");
    m.put("bench.intervals.serial_s", serial_s, "s");
    m.put("bench.intervals.sweep_s", sweep_s, "s");
    m.put("bench.intervals.detailed_s", detailed_s, "s");
    m
}
