//! Pinned functional-trace digests.
//!
//! The golden fingerprints pin the timing model, and reach the functional
//! layer (`Machine`, `SparseMemory`, `generate_trace`) only through the
//! cycle counts it drives. This test pins that layer directly: for every
//! Table 3 kernel it hashes every field of every `DynInst`, plus the
//! conditional-branch outcome log and the `halted` flag, at the quick
//! methodology's trace length. A change to functional memory, the
//! interpreter or a kernel's data image that moves any oracle value,
//! address or branch outcome moves a digest here.
//!
//! The constants were recorded before the page-granular memory rewrite
//! and must never change unless a kernel is deliberately redefined.

use eole_isa::{ArchReg, Trace};
use eole_workloads::all_workloads;

/// `Runner::quick().trace_len()`: 10k warmup + 25k measure + 16.
const QUICK_TRACE_LEN: u64 = 35_016;

/// `(workload, trace length, digest)` in Table 3 order.
#[rustfmt::skip]
const DIGESTS: [(&str, usize, u64); 19] = [
    ("gzip", 35016, 0x37ae929a1850a475),
    ("wupwise", 35016, 0x73ce4ea122226102),
    ("applu", 35016, 0x8ca619e0914f95ca),
    ("vpr", 35016, 0x2073c15e5f1ffcf8),
    ("art", 35016, 0x5a9b067561a232ff),
    ("crafty", 35016, 0x258a53590c8838d3),
    ("parser", 35016, 0x41f929d209cf576b),
    ("vortex", 35016, 0x72df73eca722ed50),
    ("bzip2", 35016, 0x2ed3e9a5ea5ee88c),
    ("gcc", 35016, 0xf78d68c4fda4a35b),
    ("gamess", 35016, 0xd9856a55f0904481),
    ("mcf", 35016, 0xe89dbbadd1e26d37),
    ("milc", 35016, 0x70634c23a686f9f7),
    ("namd", 35016, 0xa2cd14d04134ded1),
    ("gobmk", 35016, 0x327f8a2b44631c39),
    ("hmmer", 35016, 0x3e270420ab6cc570),
    ("sjeng", 35016, 0x643c424038e02a84),
    ("h264", 35016, 0x786cd72e5b5f8098),
    ("lbm", 35016, 0xf88ab952fda90cd9),
];

/// 64-bit FNV-1a over a little-endian field stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn reg(&mut self, r: Option<ArchReg>) {
        // 0xff is not a flat register id (those are 0–63).
        self.bytes(&[r.map_or(0xff, ArchReg::flat)]);
    }
}

fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for d in &trace.insts {
        h.u64(u64::from(d.pc));
        h.bytes(&[d.inst.op as u8]);
        h.reg(d.inst.dst);
        h.reg(d.inst.src1);
        h.reg(d.inst.src2);
        h.u64(d.inst.imm as u64);
        h.bytes(&[d.inst.aux]);
        h.u64(d.result);
        h.u64(d.addr);
        h.bytes(&[d.size, u8::from(d.taken)]);
        h.u64(u64::from(d.next_pc));
        h.u64(u64::from(d.bhist_pos));
    }
    h.u64(trace.branch_outcomes.len() as u64);
    for &taken in &trace.branch_outcomes {
        h.bytes(&[u8::from(taken)]);
    }
    h.bytes(&[u8::from(trace.halted)]);
    h.0
}

#[test]
fn quick_traces_match_pinned_digests() {
    let workloads = all_workloads();
    assert_eq!(workloads.len(), DIGESTS.len());
    let actual: Vec<(&str, usize, u64)> = workloads
        .iter()
        .map(|w| {
            let trace = w.trace(QUICK_TRACE_LEN).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (w.name, trace.len(), trace_digest(&trace))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, digest)| format!("    (\"{name}\", {len}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual, DIGESTS, "trace digests moved; actual table:\n{table}");
}
