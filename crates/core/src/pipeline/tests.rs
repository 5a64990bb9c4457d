//! End-to-end pipeline tests exercising every stage together: all Table 1
//! presets, determinism, VP speedups, EOLE offload, squash recovery, store
//! sets, port limits, and the measurement-window protocol.

use super::{PreparedTrace, Simulator};
use crate::config::CoreConfig;
use crate::stats::SimStats;
use eole_isa::{generate_trace, FpReg, IntReg, ProgramBuilder};

fn r(i: u8) -> IntReg {
    IntReg::new(i)
}

/// A counted loop with a strided accumulator: highly value-predictable.
fn strided_loop(iters: i64) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    b.movi(r(1), 0);
    b.movi(r(2), iters);
    b.movi(r(3), 0);
    let top = b.label();
    b.bind(top);
    b.addi(r(1), r(1), 1);
    b.addi(r(3), r(3), 8);
    b.bne(r(1), r(2), top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap())
}

/// A long dependent chain through loads/ALU: VP breaks the chain.
fn dependent_chain(iters: i64) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    let buf = b.add_data_u64(&[5]);
    b.movi(r(1), buf as i64);
    b.movi(r(2), 0);
    b.movi(r(4), iters);
    let top = b.label();
    b.bind(top);
    // Serial chain: ld -> add -> st -> ld ... (same address)
    b.ld(r(3), r(1), 0);
    b.addi(r(3), r(3), 0); // value stays 5: predictable
    b.st(r(1), 0, r(3));
    b.addi(r(2), r(2), 1);
    b.bne(r(2), r(4), top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap())
}

fn run_to_end(trace: &PreparedTrace, config: CoreConfig) -> SimStats {
    let mut sim = Simulator::new(trace, config).unwrap();
    sim.run(u64::MAX).unwrap();
    assert!(sim.finished());
    assert_eq!(sim.committed_total(), trace.len() as u64);
    sim.stats()
}

#[test]
fn all_presets_complete_and_commit_everything() {
    let trace = strided_loop(400);
    for config in [
        CoreConfig::baseline_6_64(),
        CoreConfig::baseline_vp_6_64(),
        CoreConfig::baseline_vp_4_64(),
        CoreConfig::eole_6_64(),
        CoreConfig::eole_4_64(),
        CoreConfig::eole_4_64_banked(4),
        CoreConfig::eole_4_64_ports(4, 2),
        CoreConfig::ole_4_64_ports(4, 4),
        CoreConfig::eoe_4_64_ports(4, 4),
    ] {
        let name = config.name.clone();
        let s = run_to_end(&trace, config);
        assert!(s.ipc() > 0.1, "{name}: ipc = {}", s.ipc());
    }
}

#[test]
fn simulation_is_deterministic() {
    let trace = dependent_chain(800);
    let a = run_to_end(&trace, CoreConfig::eole_4_64());
    let b = run_to_end(&trace, CoreConfig::eole_4_64());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.vp_used, b.vp_used);
    assert_eq!(a.early_executed, b.early_executed);
}

#[test]
fn value_prediction_speeds_up_dependent_chains() {
    let trace = dependent_chain(3_000);
    let base = run_to_end(&trace, CoreConfig::baseline_6_64());
    let vp = run_to_end(&trace, CoreConfig::baseline_vp_6_64());
    assert!(
        vp.ipc() > base.ipc() * 1.05,
        "VP should break the serial chain: base {:.3}, vp {:.3}",
        base.ipc(),
        vp.ipc()
    );
    assert!(vp.vp_used > 1000, "predictions must be used: {}", vp.vp_used);
    assert_eq!(vp.vp_used_wrong, 0, "constant stream must not mispredict");
}

#[test]
fn eole_offloads_uops_from_the_ooo_engine() {
    let trace = strided_loop(4_000);
    let s = run_to_end(&trace, CoreConfig::eole_6_64());
    assert!(s.early_executed > 0, "EE must fire on predictable ALU ops");
    assert!(
        s.offload_fraction() > 0.10,
        "offload = {:.3}",
        s.offload_fraction()
    );
    // Disjoint counting: EE + LE(alu) can never exceed committed.
    assert!(s.early_executed + s.late_executed_alu + s.late_executed_branches <= s.committed);
}

#[test]
fn value_mispredict_squashes_and_recovers() {
    // A load whose value is constant for thousands of instances, then
    // changes: the saturated predictor uses a now-wrong prediction and
    // the pipeline must squash, refetch and still commit everything.
    let mut b = ProgramBuilder::new();
    let buf = b.add_data_u64(&[7]);
    b.movi(r(1), buf as i64);
    b.movi(r(2), 0);
    b.movi(r(4), 4_000);
    b.movi(r(6), 3_000);
    let top = b.label();
    b.bind(top);
    b.ld(r(3), r(1), 0);
    b.add(r(5), r(3), r(3)); // consumer of the predicted load
    b.addi(r(2), r(2), 1);
    let skip = b.label();
    b.bne(r(2), r(6), skip);
    b.movi(r(7), 99);
    b.st(r(1), 0, r(7)); // flip the loaded value once at iteration 3000
    b.bind(skip);
    b.bne(r(2), r(4), top);
    b.halt();
    let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap());
    let s = run_to_end(&trace, CoreConfig::baseline_vp_6_64());
    assert!(s.vp_squashes >= 1, "expected at least one value-mispredict squash");
    assert!(s.squashed > 0);
    // Squash-cost split: every VP squash charges the full front-end depth
    // plus the LE/VT stage; the window share only exists if younger µ-ops
    // were in flight.
    let cfg = CoreConfig::baseline_vp_6_64();
    assert_eq!(s.vp_squash_cycles_frontend, s.vp_squashes * cfg.frontend_depth);
    assert_eq!(s.vp_squash_cycles_levt, s.vp_squashes * cfg.levt_depth());
    assert!(s.vp_squash_cycles() >= s.vp_squashes * cfg.frontend_depth);
    assert!(s.vp_squash_cost_fraction() > 0.0);
}

#[test]
fn memory_order_violation_trains_store_sets() {
    // Store address depends on a 25-cycle divide; an immediately
    // following load hits the same address. The load speculates past
    // the store the first time (violation), and store sets should
    // prevent it from repeating every iteration.
    let mut b = ProgramBuilder::new();
    let buf = b.add_data_u64(&[0; 16]);
    b.movi(r(1), buf as i64);
    b.movi(r(2), 0);
    b.movi(r(4), 600);
    b.movi(r(8), 3);
    let top = b.label();
    b.bind(top);
    b.movi(r(5), 24);
    b.div(r(6), r(5), r(8)); // 24/3 = 8: slow address component
    b.add(r(7), r(1), r(6));
    b.st(r(7), 0, r(2)); // store to buf+8, address late
    b.ld(r(9), r(1), 8); // load from buf+8: conflicts
    b.addi(r(2), r(2), 1);
    b.bne(r(2), r(4), top);
    b.halt();
    let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap());
    let s = run_to_end(&trace, CoreConfig::baseline_6_64());
    assert!(s.memory_order_squashes >= 1, "must detect the violation");
    assert!(
        s.memory_order_squashes < 300,
        "store sets must stop recurrent violations: {}",
        s.memory_order_squashes
    );
}

#[test]
fn levt_port_limit_slows_but_completes() {
    let trace = strided_loop(3_000);
    let free = run_to_end(&trace, CoreConfig::eole_4_64_banked(4));
    let capped = run_to_end(&trace, CoreConfig::eole_4_64_ports(4, 1));
    assert!(capped.levt_port_stalls > 0, "1 port/bank must cut commit groups");
    assert!(capped.cycles >= free.cycles);
}

#[test]
fn fp_heavy_code_uses_fp_pools() {
    let f = FpReg::new;
    let mut b = ProgramBuilder::new();
    let data = b.add_data_f64(&[1.0, 1.5]);
    b.movi(r(1), data as i64);
    b.fld(f(1), r(1), 0);
    b.fld(f(2), r(1), 8);
    b.movi(r(2), 0);
    b.movi(r(3), 500);
    let top = b.label();
    b.bind(top);
    b.fmul(f(3), f(1), f(2));
    b.fadd(f(1), f(3), f(2));
    b.fdiv(f(4), f(1), f(2));
    b.addi(r(2), r(2), 1);
    b.bne(r(2), r(3), top);
    b.halt();
    let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 1_000_000).unwrap());
    let s = run_to_end(&trace, CoreConfig::baseline_6_64());
    // The serial FP chain (3 + 5 cycles per iteration minimum) caps IPC.
    assert!(s.ipc() < 2.0);
}

#[test]
fn narrower_issue_width_never_helps() {
    let trace = strided_loop(4_000);
    let six = run_to_end(&trace, CoreConfig::baseline_vp_6_64());
    let four = run_to_end(&trace, CoreConfig::baseline_vp_4_64());
    assert!(four.cycles >= six.cycles);
}

#[test]
fn measurement_window_reset_works() {
    let trace = strided_loop(2_000);
    let mut sim = Simulator::new(&trace, CoreConfig::baseline_vp_6_64()).unwrap();
    sim.run(1_000).unwrap();
    sim.begin_measurement();
    let warm = sim.stats();
    assert_eq!(warm.committed, 0);
    sim.run(1_000).unwrap();
    let s = sim.stats();
    assert!(s.committed >= 1_000);
    assert!(s.cycles > 0);
}

#[test]
fn calls_and_returns_flow_through() {
    let mut b = ProgramBuilder::new();
    b.movi(r(2), 0);
    b.movi(r(4), 300);
    let top = b.label();
    let func = b.label();
    b.bind(top);
    b.call(func);
    b.addi(r(2), r(2), 1);
    b.bne(r(2), r(4), top);
    b.halt();
    b.bind(func);
    b.addi(r(3), r(3), 2);
    b.ret();
    let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 100_000).unwrap());
    let s = run_to_end(&trace, CoreConfig::eole_4_64());
    // RAS should make returns nearly free after warmup.
    assert!(s.indirect_mispredicts < 5, "indirect mispredicts: {}", s.indirect_mispredicts);
}

/// IQ-bound µ-ops still waiting in the ROB: dispatched into the IQ and
/// not yet issued. Each one is either scanned (`iq`) or parked.
fn iq_bound_in_rob(sim: &Simulator<'_>) -> usize {
    use eole_isa::InstClass;
    sim.rob
        .iter()
        .filter(|e| {
            !(e.ee || e.le_alu || e.le_branch || matches!(e.class, InstClass::Jump | InstClass::Call))
                && e.done_cycle == crate::prf::NOT_READY
        })
        .count()
}

/// A dependence chain longer than the IQ parks behind loads that miss to
/// DRAM, fills the IQ, and is then squashed through by a memory-order
/// violation: a store whose address comes from the missing loads issues
/// only when they return, after a younger load to the same address
/// already ran. The squash must take every parked µ-op at or past the
/// cut with it (their seqs are reused by the refetch), and scanned plus
/// parked entries must account for every waiting IQ-bound µ-op at all
/// times.
#[test]
fn parked_chain_is_purged_by_a_squash_and_refetched() {
    const CHAIN: usize = 100;
    // Serial cold loads 8 KiB apart: slow enough that the cold front end
    // delivers the whole chain before the store address is known.
    const HOPS: usize = 8;
    const STRIDE: usize = 8192;
    let mut words = vec![0u64; (HOPS + 1) * STRIDE / 8];
    for hop in 0..HOPS {
        words[hop * STRIDE / 8] = ((hop + 1) * STRIDE) as u64; // offset of the next hop
    }
    let mut b = ProgramBuilder::new();
    let base = b.add_data_u64(&words);
    let x = base + (HOPS * STRIDE) as u64;
    b.movi(r(1), base as i64);
    b.movi(r(7), x as i64);
    b.movi(r(5), 42);
    b.mov(r(2), r(1));
    for _ in 0..HOPS {
        b.ld(r(3), r(2), 0);
        b.add(r(2), r(1), r(3));
    }
    // r2 = x, known only when the last miss returns.
    b.st(r(2), 0, r(5));
    b.ld(r(6), r(7), 0); // load from x: speculates past the store
    b.addi(r(8), r(2), 1);
    for _ in 1..CHAIN {
        b.addi(r(8), r(8), 1); // parks on its predecessor's register
    }
    b.halt();
    let trace = PreparedTrace::new(generate_trace(&b.build().unwrap(), 10_000).unwrap());
    let config = CoreConfig::baseline_6_64();
    let iq_entries = config.iq_entries;
    assert!(CHAIN > iq_entries, "the chain must not fit the IQ");
    let mut sim = Simulator::new(&trace, config).unwrap();

    let mut full_with_parked = false;
    let mut purged_parked = false;
    while !sim.finished() {
        let before = sim.stats;
        let parked_before = sim.parked.seqs();
        sim.step();
        assert!(sim.cycle() < 100_000, "the kernel must drain");
        assert_eq!(
            sim.iq.len() + sim.parked.len(),
            iq_bound_in_rob(&sim),
            "scanned + parked must equal the waiting IQ-bound µ-ops at cycle {}",
            sim.cycle()
        );
        if sim.stats.stall_iq_full > before.stall_iq_full {
            assert_eq!(
                sim.iq.len() + sim.parked.len(),
                iq_entries,
                "dispatch stalls on a full IQ at exactly its capacity"
            );
            full_with_parked |= sim.parked.len() > iq_entries / 2;
        }
        if sim.stats.memory_order_squashes > before.memory_order_squashes {
            // No fetch ran after the squash: `next_seq` is the cut.
            let cut = sim.next_seq;
            purged_parked |= parked_before.iter().any(|&s| s >= cut);
            assert!(
                sim.parked.seqs().iter().all(|&s| s < cut),
                "no parked µ-op at or past the cut {cut} survives the squash"
            );
            assert!(sim.iq.iter().all(|e| e.seq < cut));
        }
    }
    assert!(full_with_parked, "the chain must fill the IQ with parked µ-ops");
    assert_eq!(sim.stats.memory_order_squashes, 1, "one violation, then store sets hold");
    assert!(purged_parked, "the squash must cut through parked µ-ops");
    assert_eq!(sim.parked.len(), 0);
    assert_eq!(sim.committed_total(), trace.len() as u64, "the refetched chain commits");
}
