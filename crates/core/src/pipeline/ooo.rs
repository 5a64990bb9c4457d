//! The out-of-order engine: rename/dispatch (with the EOLE designation
//! decisions and the EE/prediction write-port budget) and the issue/execute
//! stage with its functional-unit pools, load/store queues, and
//! memory-dependence speculation via store sets.
//!
//! Hot-loop invariants (see `PERF.md`): no steady-state heap allocation —
//! the per-group write budget lives in a reused scratch buffer and the IQ
//! is compacted in place — and no O(n) window searches: ROB entries are
//! addressed by sequence number, LQ/SQ entries through the slot id cached
//! in [`RobEntry::lsq_slot`]. Issue visits only entries that can act: a
//! µ-op waiting on an unissued producer sleeps on that producer's
//! register until it issues (see [`IqEntry`]).

use eole_isa::{InstClass, RegClass};

use crate::config::latency;
use crate::prf::NOT_READY;

use super::state::{
    contains, overlap, pck, Avail, DstReg, IqEntry, LoadEntry, RobEntry, Simulator, SrcReg,
    StoreEntry, Writer,
};

impl Simulator<'_> {
    // ------------------------------------------------------------------
    // Rename / Early Execution / Dispatch
    // ------------------------------------------------------------------

    /// Returns the number of µ-ops dispatched this cycle.
    pub(super) fn do_dispatch(&mut self) -> usize {
        let now = self.cycle;
        let mut dispatched = 0usize;
        // EE/prediction PRF writes per (class, bank) this dispatch group.
        for b in self.scratch.ee_writes.iter_mut() {
            *b = [0, 0];
        }
        while dispatched < self.config.rename_width {
            let Some(fu) = self.front_q.front().copied() else { break };
            if fu.at_rename > now {
                break;
            }
            let di = &self.trace.insts()[fu.trace_idx];
            let cls = di.class();
            if self.rob.len() >= self.config.rob_entries {
                self.stats.stall_rob_full += 1;
                break;
            }
            if cls == InstClass::Load && self.lq.len() >= self.config.lq_entries {
                self.stats.stall_lsq_full += 1;
                break;
            }
            if cls == InstClass::Store && self.sq.len() >= self.config.sq_entries {
                self.stats.stall_lsq_full += 1;
                break;
            }
            // EOLE designations.
            let ee_kind = self.decide_early(di, now);
            let ee = ee_kind.is_some();
            let le_alu = !ee
                && self.config.eole.late
                && fu.pred_used
                && di.inst.is_single_cycle_alu();
            let le_branch = self.config.eole.late && fu.hc && cls == InstClass::Branch;
            let needs_iq =
                !(ee || le_alu || le_branch || matches!(cls, InstClass::Jump | InstClass::Call));
            if needs_iq && self.iq.len() + self.parked.len() >= self.config.iq_entries {
                self.stats.stall_iq_full += 1;
                break;
            }
            // EE/prediction write-port budget (§6.3 ablation).
            let writes_prediction = (ee || fu.pred_used) && di.inst.dst.is_some();
            if writes_prediction {
                if let Some(cap) = self.config.eole.ee_writes_per_bank {
                    let class = di.inst.dst.map(|d| d.class()).unwrap_or(RegClass::Int);
                    let bank = self.prf.peek_alloc_bank(class);
                    let ci = if class == RegClass::Int { 0 } else { 1 };
                    if self.scratch.ee_writes[bank][ci] + 1 > cap {
                        self.stats.ee_write_stalls += 1;
                        break;
                    }
                }
            }
            // Rename: sources first, then the destination.
            let mut srcs: [Option<SrcReg>; 2] = [None, None];
            for (i, src) in di.inst.sources().enumerate() {
                let preg = self.spec_rat[src.flat() as usize];
                srcs[i] = Some(SrcReg { class: src.class(), preg });
            }
            let dst = match di.inst.dst {
                Some(d) => {
                    let class = d.class();
                    match self.prf.alloc(class) {
                        Some(new) => {
                            let old = self.spec_rat[d.flat() as usize];
                            self.spec_rat[d.flat() as usize] = new;
                            Some(DstReg { arch_flat: d.flat(), class, new, old })
                        }
                        None => {
                            self.stats.stall_prf += 1;
                            break;
                        }
                    }
                }
                None => None,
            };
            if writes_prediction {
                if let Some(d) = dst {
                    let ci = if d.class == RegClass::Int { 0 } else { 1 };
                    self.scratch.ee_writes[self.prf.bank_of(d.new)][ci] += 1;
                }
            }
            self.front_q.pop_front();

            // Destination readiness + completion.
            let mut done_cycle = NOT_READY;
            if let Some(d) = dst {
                if ee || fu.pred_used || matches!(cls, InstClass::Call | InstClass::CallIndirect)
                {
                    // EE result / used prediction / statically-known link
                    // value is written to the PRF at dispatch.
                    self.prf.set_ready_min(d.class, d.new, now);
                }
            }
            if ee || matches!(cls, InstClass::Jump | InstClass::Call) {
                done_cycle = now;
            }
            // Writer availability for the EE operand rules.
            if let Some(d) = dst {
                let avail = if fu.pred_used
                    || matches!(cls, InstClass::Call | InstClass::CallIndirect)
                {
                    Avail::Pred
                } else if let Some(k) = ee_kind {
                    k
                } else {
                    Avail::No
                };
                self.writer_info[d.arch_flat as usize] =
                    Some(Writer { renamed_cycle: now, avail });
            }

            // Queue occupancy. LQ/SQ slot ids are cached in the ROB entry
            // so issue/commit/squash never search the queues.
            if needs_iq {
                self.iq.push(IqEntry { seq: fu.seq, wake: 0 });
            }
            let mut lsq_slot = 0u64;
            if cls == InstClass::Load {
                let dep_store = self
                    .store_sets
                    .ssid(pck(di.pc))
                    .and_then(|s| self.lfst[s as usize]);
                lsq_slot = self.lq.push_back(LoadEntry {
                    seq: fu.seq,
                    addr: di.addr,
                    size: di.size,
                    dep_store,
                    issued_at: NOT_READY,
                });
            }
            if cls == InstClass::Store {
                lsq_slot = self.sq.push_back(StoreEntry {
                    seq: fu.seq,
                    addr: di.addr,
                    size: di.size,
                    issued_at: NOT_READY,
                });
                if let Some(s) = self.store_sets.ssid(pck(di.pc)) {
                    self.lfst[s as usize] = Some((fu.seq, lsq_slot));
                }
            }

            let rob_slot = self.rob.push_back(RobEntry {
                seq: fu.seq,
                trace_idx: fu.trace_idx,
                dispatch_cycle: now,
                class: cls,
                dst,
                srcs,
                done_cycle,
                lsq_slot,
                ee,
                le_alu,
                le_branch,
                vp_eligible: di.inst.is_vp_eligible(),
                vp_queried: fu.vp_queried,
                pred_some: fu.pred_some,
                pred_used: fu.pred_used,
                pred_correct: fu.pred_correct,
                pred_level: fu.pred_level,
                pred_value_correct: fu.pred_value_correct,
                hc: fu.hc,
                awaited: fu.awaited,
                ind_mispredict: fu.ind_mispredict,
            });
            debug_assert_eq!(rob_slot, fu.seq, "ROB slot ids track sequence numbers");
            dispatched += 1;
        }
        if dispatched > 0 {
            self.prev_group_cycle = now;
        }
        dispatched
    }

    // ------------------------------------------------------------------
    // Issue / Execute
    // ------------------------------------------------------------------

    /// O(1) ROB access: slot ids coincide with sequence numbers (checked
    /// at dispatch), so the entry for `seq` is `rob.slot(seq)`.
    #[inline]
    fn rob_entry(&self, seq: u64) -> &RobEntry {
        self.rob.slot(seq)
    }

    /// Decides whether the load in LQ slot `lq_slot` (program counter
    /// `pc`) can go: `None` = wait, `Some(done_cycle)` = issue now.
    fn try_load(&mut self, lq_slot: u64, pc: u64) -> Option<u64> {
        let now = self.cycle;
        let le = *self.lq.slot(lq_slot);
        // Store-set dependence: wait until the flagged store has issued.
        // The cached SQ slot makes this O(1); a store that already left
        // the queue (committed) has issued by definition.
        if let Some((dep_seq, dep_slot)) = le.dep_store {
            if self.sq.holds_slot(dep_slot) {
                let st = self.sq.slot(dep_slot);
                debug_assert_eq!(st.seq, dep_seq, "surviving dep points at its store");
                if st.seq == dep_seq && st.issued_at == NOT_READY {
                    return None;
                }
            }
        }
        // Youngest older store with a known address that overlaps decides.
        for st in self.sq.iter().rev() {
            if st.seq >= le.seq {
                continue;
            }
            if st.issued_at != NOT_READY && overlap(st.addr, st.size, le.addr, le.size) {
                return if contains(st.addr, st.size, le.addr, le.size) {
                    self.stats.sq_forwards += 1;
                    Some(now + latency::SQ_FORWARD)
                } else {
                    None // partial overlap: wait for the store to drain
                };
            }
            // Unknown address: speculate past it (store sets permitting).
        }
        Some(self.mem.load(pc, le.addr, now))
    }

    /// Merges the µ-ops woken this cycle back into the scanned IQ, keeping
    /// it in sequence order, with wake bound `wake`.
    fn merge_woken(&mut self, wake: u64) {
        let woken = &mut self.scratch.woken;
        if woken.is_empty() {
            return;
        }
        woken.sort_unstable();
        // Merge from the back: the IQ grows in place (its capacity is the
        // IQ size, which scanned plus parked entries never exceed).
        let mut a = self.iq.len();
        let mut b = woken.len();
        self.iq.resize(a + b, IqEntry { seq: 0, wake: 0 });
        while b > 0 {
            let out = a + b - 1;
            if a > 0 && self.iq[a - 1].seq > woken[b - 1] {
                self.iq[out] = self.iq[a - 1];
                a -= 1;
            } else {
                self.iq[out] = IqEntry { seq: woken[b - 1], wake };
                b -= 1;
            }
        }
        woken.clear();
    }

    /// Returns `(violation_squash_happened, µ-ops issued)`.
    pub(super) fn do_issue(&mut self) -> (bool, usize) {
        let now = self.cycle;
        let mut issued = 0usize;
        let mut alu_used = 0usize;
        let mut fp_used = 0usize;
        let mut mul_used = 0usize;
        let mut fmul_used = 0usize;
        let mut mem_used = 0usize;
        let mut violation: Option<(u64, u64)> = None; // (load_seq, store_seq)
        // In-place IQ compaction: entries that stay in the scanned IQ are
        // written back at `kept` (order preserved); issued and parked
        // entries leave it.
        let mut kept = 0usize;
        let mut next = 0usize;
        let iq_len = self.iq.len();
        while next < iq_len && issued < self.config.issue_width && violation.is_none() {
            let IqEntry { seq, wake } = self.iq[next];
            next += 1;
            macro_rules! keep {
                ($wake:expr) => {{
                    self.iq[kept] = IqEntry { seq, wake: $wake };
                    kept += 1;
                    continue;
                }};
            }
            // Wakeup filter: sources provably unreadable before `wake`.
            if wake > now {
                keep!(wake);
            }
            let e = self.rob_entry(seq);
            match self.srcs_known_ready_by(e) {
                Ok(t) if t <= now => {}
                Ok(t) => keep!(t),
                // Producer not issued: sleep on its register until it does.
                Err(src) => {
                    self.parked.park(src.class, src.preg, seq);
                    continue;
                }
            }
            let class = e.class;
            let done = match class {
                InstClass::IntAlu
                | InstClass::Branch
                | InstClass::Return
                | InstClass::JumpIndirect
                | InstClass::CallIndirect => {
                    if alu_used >= self.config.fu.int_alu {
                        keep!(0);
                    }
                    alu_used += 1;
                    now + latency::INT_ALU
                }
                InstClass::IntMul => {
                    if mul_used >= self.config.fu.int_muldiv
                        || !self.muldiv_busy.iter().any(|b| *b <= now)
                    {
                        keep!(0);
                    }
                    mul_used += 1;
                    now + latency::INT_MUL
                }
                InstClass::IntDiv => {
                    let Some(unit) = self.muldiv_busy.iter_mut().find(|b| **b <= now) else {
                        keep!(0);
                    };
                    if mul_used >= self.config.fu.int_muldiv {
                        keep!(0);
                    }
                    mul_used += 1;
                    *unit = now + latency::INT_DIV; // unpipelined
                    now + latency::INT_DIV
                }
                InstClass::FpAlu => {
                    if fp_used >= self.config.fu.fp_alu {
                        keep!(0);
                    }
                    fp_used += 1;
                    now + latency::FP_ALU
                }
                InstClass::FpMul => {
                    if fmul_used >= self.config.fu.fp_muldiv
                        || !self.fpmuldiv_busy.iter().any(|b| *b <= now)
                    {
                        keep!(0);
                    }
                    fmul_used += 1;
                    now + latency::FP_MUL
                }
                InstClass::FpDiv => {
                    let Some(unit) = self.fpmuldiv_busy.iter_mut().find(|b| **b <= now)
                    else {
                        keep!(0);
                    };
                    if fmul_used >= self.config.fu.fp_muldiv {
                        keep!(0);
                    }
                    fmul_used += 1;
                    *unit = now + latency::FP_DIV;
                    now + latency::FP_DIV
                }
                InstClass::Load => {
                    if mem_used >= self.config.fu.mem_ports {
                        keep!(0);
                    }
                    let lq_slot = e.lsq_slot;
                    let pc = pck(self.trace.insts()[e.trace_idx].pc);
                    match self.try_load(lq_slot, pc) {
                        Some(done) => {
                            mem_used += 1;
                            self.lq.slot_mut(lq_slot).issued_at = now;
                            done
                        }
                        None => {
                            keep!(0);
                        }
                    }
                }
                InstClass::Store => {
                    if mem_used >= self.config.fu.mem_ports {
                        keep!(0);
                    }
                    mem_used += 1;
                    let sq_slot = e.lsq_slot;
                    let st_tidx = e.trace_idx;
                    let (st_addr, st_size, st_seq) = {
                        let st = self.sq.slot_mut(sq_slot);
                        st.issued_at = now;
                        (st.addr, st.size, st.seq)
                    };
                    debug_assert_eq!(st_seq, seq);
                    // The store's address is now known: detect any younger
                    // load that already executed against the same bytes.
                    let mut bad: Option<u64> = None;
                    for l in self.lq.iter() {
                        if l.seq > st_seq
                            && l.issued_at != NOT_READY
                            && l.issued_at <= now
                            && overlap(st_addr, st_size, l.addr, l.size)
                        {
                            bad = Some(bad.map_or(l.seq, |b: u64| b.min(l.seq)));
                        }
                    }
                    if let Some(load_seq) = bad {
                        violation = Some((load_seq, st_seq));
                    }
                    // Release the LFST entry if we are still its tail.
                    if let Some(s) = self
                        .store_sets
                        .ssid(pck(self.trace.insts()[st_tidx].pc))
                    {
                        if self.lfst[s as usize].is_some_and(|(fs, _)| fs == st_seq) {
                            self.lfst[s as usize] = None;
                        }
                    }
                    now + latency::INT_ALU // address generation
                }
                InstClass::Jump | InstClass::Call | InstClass::Halt => {
                    unreachable!("{class:?} never enters the IQ")
                }
            };
            debug_assert!(done > now, "woken readers rejoin the scan next cycle");
            issued += 1;
            let (dst, awaited) = {
                let e = self.rob.slot_mut(seq);
                e.done_cycle = done;
                (e.dst, e.awaited)
            };
            if let Some(d) = dst {
                self.prf.set_ready_min(d.class, d.new, done);
                self.parked.wake(d.class, d.new, &mut self.scratch.woken);
            }
            if awaited && self.pending_redirect == Some(seq) {
                // Mispredicted control µ-op resolves at `done`: fetch
                // restarts on the correct path then.
                self.pending_redirect = None;
                self.fetch_stall_until = done;
                self.last_fetch_line = u64::MAX;
            }
        }
        // Issue width or a violation ended selection: the unexamined tail
        // keeps its place and its wake bounds.
        self.iq.copy_within(next..iq_len, kept);
        self.iq.truncate(kept + (iq_len - next));
        self.merge_woken(now + 1);

        if let Some((load_seq, store_seq)) = violation {
            // Both µ-ops are still in flight: O(1) ROB lookups recover
            // their program counters for store-set training.
            let load_pc = pck(self.trace.insts()[self.rob_entry(load_seq).trace_idx].pc);
            let store_pc = pck(self.trace.insts()[self.rob_entry(store_seq).trace_idx].pc);
            self.store_sets.on_violation(load_pc, store_pc);
            self.stats.memory_order_squashes += 1;
            self.squash_from(load_seq);
            self.fetch_stall_until = now + 1;
            return (true, issued);
        }
        (false, issued)
    }
}
