//! Steady-state zero-allocation enforcement for the hot loop.
//!
//! `Simulator::step` must perform **no heap allocation after warmup** —
//! the contract behind the flat-window refactor (see `PERF.md`). The
//! `alloc-counter` compat shim is installed as this test binary's global
//! allocator; its counters are per thread, so the `#[test]`s here do not
//! observe each other (or the test harness) allocating.
//!
//! Warmup exists because several structures legitimately reach a
//! high-water mark once: predictor in-flight maps meet each static load
//! pc, MSHR files grow to their peak occupancy, the prefetch scratch
//! fills to its degree. After that, a cycle — commit, issue, dispatch,
//! fetch, squash recovery included — must run entirely out of the
//! pre-sized rings and scratch buffers.

use alloc_counter::{count_allocations, CountingAllocator};
use eole_core::config::CoreConfig;
use eole_core::pipeline::{PreparedTrace, Simulator};
use eole_core::stats::SimStats;
use eole_isa::{generate_trace, IntReg, ProgramBuilder};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn r(i: u8) -> IntReg {
    IntReg::new(i)
}

/// A kernel that exercises every window structure from a small static
/// footprint: strided loads and stores (LQ/SQ, store-to-load forwarding,
/// store sets), a multiply chain (unpipelined-FU arbitration), data-
/// dependent branches (mispredicts → squash recovery), and VP-friendly
/// ALU µ-ops. Every static pc appears in the first iteration, so the
/// warmup window meets the full working set.
fn hot_loop_trace(iters: i64) -> PreparedTrace {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(64 * 8);
    let (i, n, base, x, y, t) = (r(1), r(2), r(3), r(4), r(5), r(6));
    b.movi(i, 0);
    b.movi(n, iters);
    b.movi(base, buf as i64);
    b.movi(x, 0x1357_9bdf);
    let top = b.label();
    b.bind(top);
    // Pointer-ish memory traffic over a 64-slot ring.
    b.andi(t, i, 63);
    b.shli(t, t, 3);
    b.add(t, base, t);
    b.st(t, 0, x);
    b.ld(y, t, 0); // forwarded from the store
    // Serial multiply chain (3-cycle FU, keeps the IQ occupied).
    b.mul(x, x, x);
    b.addi(x, x, 7);
    // Data-dependent branch: taken on a pseudo-random half of the
    // iterations — a steady diet of mispredict squashes.
    b.andi(t, y, 1);
    let skip = b.label();
    b.beq_imm(t, 1, skip);
    b.xori(x, x, 0x55);
    b.bind(skip);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 2_000_000).unwrap())
}

/// A pointer chase over a 4 MiB cycle of 64-byte nodes in a scrambled
/// order: twice the 2 MB L2, so every hop misses to DRAM and defeats the
/// prefetcher. Each hop feeds a short dependent chain, so the IQ fills
/// with µ-ops parked on registers whose producers have not issued, and
/// the next hop's address waits on the previous hop's load.
fn pointer_chase_trace(hops: i64) -> PreparedTrace {
    const NODES: u64 = 1 << 16;
    const NODE: u64 = 64;
    let mut words = vec![0u64; (NODES * NODE / 8) as usize];
    for i in 0..NODES {
        // Full-period LCG over the node indices (c odd, a ≡ 1 mod 4): one
        // cycle through every node. Each node holds its successor's offset.
        let next = (i.wrapping_mul(0x9E37_79B5) + 12_345) % NODES;
        words[(i * NODE / 8) as usize] = next * NODE;
    }
    let mut b = ProgramBuilder::new();
    let base = b.add_data_u64(&words);
    let (i, n, head, p, off, acc) = (r(1), r(2), r(3), r(4), r(5), r(6));
    b.movi(i, 0);
    b.movi(n, hops);
    b.movi(head, base as i64);
    b.mov(p, head);
    b.movi(acc, 1);
    let top = b.label();
    b.bind(top);
    b.ld(off, p, 0); // DRAM miss
    b.add(p, head, off);
    // Dependents of the missing load.
    b.xor(acc, acc, off);
    b.mul(acc, acc, acc);
    b.addi(acc, acc, 3);
    b.shri(acc, acc, 1);
    b.addi(i, i, 1);
    b.blt(i, n, top);
    b.halt();
    PreparedTrace::new(generate_trace(&b.build().unwrap(), 2_000_000).unwrap())
}

/// Warm the simulator, then assert that steady-state stepping allocates
/// nothing at all.
fn assert_zero_alloc_steady_state(config: CoreConfig) {
    assert_zero_alloc_on(&hot_loop_trace(100_000), config);
}

/// [`assert_zero_alloc_steady_state`] on any trace; returns the counters
/// before and after the steady-state window.
fn assert_zero_alloc_on(trace: &PreparedTrace, config: CoreConfig) -> (SimStats, SimStats) {
    let name = config.name.clone();
    let mut sim = Simulator::new(trace, config).expect("preset is valid");
    // Warmup: caches, predictors, high-water marks (runs through the
    // production `run` path so its one-time lazy state initializes too).
    sim.run(60_000).expect("warmup");
    let committed_before = sim.committed_total();
    let before = sim.stats();
    let (allocs, bytes) = count_allocations(|| {
        sim.run(40_000).expect("steady state");
    });
    assert!(
        sim.committed_total() >= committed_before + 40_000,
        "{name}: steady-state window must actually retire µ-ops"
    );
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{name}: step() allocated in steady state ({allocs} allocations, {bytes} bytes)"
    );
    (before, sim.stats())
}

/// Memory-bound steady state: the IQ is full of µ-ops parked behind DRAM
/// misses, the MSHRs and DRAM banks are busy, and every cycle either
/// wakes parked µ-ops or fast-forwards to the next fill.
#[test]
fn memory_bound_pipelines_step_without_allocating() {
    let trace = pointer_chase_trace(20_000);
    for config in [CoreConfig::baseline_6_64(), CoreConfig::eole_4_64()] {
        let name = config.name.clone();
        let (before, s) = assert_zero_alloc_on(&trace, config);
        assert!(
            s.stall_iq_full > before.stall_iq_full,
            "{name}: the chase's dependents must fill the IQ"
        );
        assert!(
            s.mem.l2.misses - before.mem.l2.misses > 4_000,
            "{name}: every hop must miss the L2"
        );
    }
}

#[test]
fn baseline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_6_64());
}

#[test]
fn vp_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_vp_6_64());
}

#[test]
fn eole_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::eole_6_64());
}

/// The block-based D-VTAGE front (BeBoP blocks, banked tables, bounded
/// speculative window) runs out of pre-sized structures too: window
/// registration, speculative-last lookup, commit training, and window
/// rollback are all allocation-free.
#[test]
fn dvtage_block_pipeline_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::baseline_dvtage_6_64());
}

#[test]
fn banked_port_limited_eole_steps_without_allocating() {
    assert_zero_alloc_steady_state(CoreConfig::eole_4_64_ports(4, 4));
}

/// A tight speculative-window bound keeps the window pinned at its cap:
/// every cycle mixes accepted registrations, full-window refusals, and
/// index restores on squash. The per-pc `spec_last` index is pre-sized to
/// the cap, so none of that churn — insert, shadow-restore, remove —
/// may ever rehash or allocate.
#[test]
fn tight_spec_window_churn_does_not_allocate() {
    let config = CoreConfig::baseline_dvtage_6_64().to_builder().vp_spec_window(Some(8)).build();
    assert_zero_alloc_steady_state(config.expect("bounded window of 8 is valid"));
}

/// Squash recovery (the heaviest non-steady path: ROB walk, queue purges,
/// predictor squash callbacks, cursor rewind) is also allocation-free.
#[test]
fn squash_storms_do_not_allocate() {
    let trace = hot_loop_trace(100_000);
    let mut sim = Simulator::new(&trace, CoreConfig::baseline_vp_6_64()).unwrap();
    sim.run(60_000).expect("warmup");
    let squashed_before = sim.stats().squashed;
    let mut squashed_after = 0;
    let (allocs, bytes) = count_allocations(|| {
        sim.run(40_000).expect("steady state");
        squashed_after = sim.stats().squashed;
    });
    assert!(
        squashed_after > squashed_before,
        "the kernel's coin-flip branch must cause squashes in the window"
    );
    assert_eq!((allocs, bytes), (0, 0), "squash recovery allocated");
}

/// Steady-state trace-cache probes are allocation-free: the cache key is
/// the borrowed `(&'static str, u64)` pair (`Workload::name` is static),
/// so after the one-time generation a `get_or_prepare` per run costs a
/// hash lookup and an `Arc` bump — no `String` per probe. Guards the
/// executor's per-run lookup path the same way the tests above guard the
/// simulator's per-cycle path.
#[test]
fn trace_cache_probes_do_not_allocate() {
    use eole_bench::{Runner, TraceCache};
    let cache = TraceCache::new();
    let runner = Runner::quick();
    let w = eole_workloads::workload_by_name("gzip").unwrap();
    // One-time generation: allocates (trace buffers, cache slot).
    cache.get_or_prepare(&w, &runner).unwrap();
    let (allocs, bytes) = count_allocations(|| {
        for _ in 0..1_000 {
            let trace = cache.get_or_prepare(&w, &runner).unwrap();
            std::hint::black_box(&trace);
        }
    });
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state cache probes allocated ({allocs} allocations, {bytes} bytes)"
    );
    assert_eq!(cache.generated(), 1);
    assert_eq!(cache.hits(), 1_000);
}

/// Statistics snapshots are `Copy` — sampling them from a driver loop
/// costs no heap traffic either.
#[test]
fn stats_snapshots_do_not_allocate() {
    let trace = hot_loop_trace(20_000);
    let mut sim = Simulator::new(&trace, CoreConfig::eole_6_64()).unwrap();
    sim.run(30_000).expect("warmup");
    let (allocs, _) = count_allocations(|| {
        let mut acc = 0u64;
        for _ in 0..1_000 {
            let s = sim.stats();
            acc = acc.wrapping_add(s.cycles).wrapping_add(s.mem.l1d.accesses);
        }
        std::hint::black_box(acc);
    });
    assert_eq!(allocs, 0, "Simulator::stats() must not clone heap state");
}
