//! The block-based prediction front (BeBoP): fetch-block-granular
//! predictor access plus the speculative in-flight window.
//!
//! The EOLE paper argues value prediction only becomes implementable
//! once the predictor is *cheap to access*: one read per fetch block
//! instead of one per instruction, banked storage, and a bounded amount
//! of in-flight speculation the hardware can actually checkpoint. This
//! module is that subsystem. The timing core no longer talks to a
//! per-instruction [`ValuePredictor`]; it talks to a [`BlockVp`]:
//!
//! * [`BlockVp::predict`] at **fetch** — tracks fetch-block transitions
//!   (`new_block` = a real predictor read; later µ-ops of the same block
//!   in the same cycle ride the same read), enforces the speculative-
//!   window bound (a full window refuses the query: `accepted == false`,
//!   and the µ-op travels unpredicted), and registers the in-flight
//!   instance.
//! * [`BlockVp::commit`] at **retire** — pops the oldest in-flight
//!   instance and trains the backend with the architectural result.
//! * [`BlockVp::squash_from`] on a pipeline squash — drops every
//!   in-flight instance with sequence ≥ the cut, youngest first. For the
//!   D-VTAGE backend that *is* the whole rollback (its tables only hold
//!   committed state); legacy backends get their per-pc `squash` calls,
//!   in exactly the order the pipeline used to issue them.
//!
//! The window also supplies **speculative last values**: when several
//! instances of one static µ-op are in flight, D-VTAGE anchors its delta
//! on the youngest in-flight *predicted* value instead of the committed
//! LVT entry — the paper's "conventional value predictors need to track
//! inflight predictions", done once here instead of inside every
//! predictor.
//!
//! With the behavior-neutral defaults (`block_size` 1, unbounded
//! window) and a legacy backend, every backend call this module makes is
//! identical — same call, same order, same RNG stream — to what the
//! pipeline made before the refactor; the 209 pre-refactor golden
//! fingerprints pin that.

use std::collections::VecDeque;

use crate::history::HistoryView;
use crate::value::{AnyValuePredictor, DVtage, PcMap, ValuePrediction, ValuePredictor};

/// Bytes per µ-op in trace addresses.
const INST_BYTES: u64 = 4;

/// Shape of the block-based front: fetch-block size, storage banks, and
/// the speculative-window bound (mirrors `VpConfig` in `eole-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockParams {
    /// µ-ops per fetch block (power of two; 1 = per-instruction access).
    pub block_size: usize,
    /// Predictor storage banks (power of two).
    pub banks: usize,
    /// Maximum in-flight (predicted, not yet retired) µ-ops; `None`
    /// models an unbounded window (the pre-BeBoP idealization).
    pub spec_window: Option<usize>,
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams { block_size: 1, banks: 1, spec_window: None }
    }
}

/// The storage behind a [`BlockVp`].
#[derive(Clone, Debug)]
pub enum BlockBackend {
    /// One of the five per-instruction predictors behind the block
    /// adapter (they keep their own in-flight tracking; the window only
    /// replays their `squash` calls).
    Legacy(AnyValuePredictor),
    /// The native block-based D-VTAGE (speculative last values from the
    /// window).
    DVtage(DVtage),
}

/// One in-flight instance: registered at fetch, retired at commit or
/// dropped at squash.
#[derive(Clone, Copy, Debug)]
struct SpecEntry {
    seq: u64,
    pc: u64,
    /// The `spec_last` index entry this instance shadowed at push time —
    /// `(seq, value)` of the previous youngest instance of the same pc,
    /// or `None` if this was the only one. Restored on a squash pop, so
    /// window rollback keeps the O(1) index exact without a scan.
    prev: Option<(u64, Option<u64>)>,
}

/// Outcome of one fetch-time query.
#[derive(Clone, Copy, Debug)]
pub struct BlockQuery {
    /// The prediction, if the backend produced one.
    pub pred: Option<ValuePrediction>,
    /// False iff the speculative window was full: the µ-op was *not*
    /// registered and must not be committed or squashed against the
    /// predictor.
    pub accepted: bool,
    /// True iff this query opened a new (cycle, fetch block) — i.e. a
    /// real predictor read; `false` rides an already-charged read.
    pub new_block: bool,
}

/// The block-based value-prediction subsystem the timing core owns.
#[derive(Clone, Debug)]
pub struct BlockVp {
    backend: BlockBackend,
    params: BlockParams,
    window: VecDeque<SpecEntry>,
    /// Per-pc index of the *youngest* in-flight instance: pc → `(seq,
    /// predicted value)`. Replaces the old O(window) backward scan in
    /// [`BlockVp::predict`] with an O(1) probe; kept exact across
    /// push/commit/squash via the `prev` links on [`SpecEntry`].
    /// Pre-sized to the window capacity, so steady-state inserts never
    /// rehash (the zero-allocation contract).
    spec_last: PcMap<(u64, Option<u64>)>,
    /// Last (cycle, block) the predictor was read for.
    last_access: Option<(u64, u64)>,
}

impl BlockVp {
    /// Builds the subsystem. `window_hint` pre-sizes the in-flight
    /// window (front-end queue + ROB capacity) so steady-state pushes
    /// never reallocate (the zero-allocation contract of `PERF.md`).
    pub fn new(backend: BlockBackend, params: BlockParams, window_hint: usize) -> Self {
        let cap = params.spec_window.unwrap_or(window_hint).max(1);
        BlockVp {
            backend,
            params,
            window: VecDeque::with_capacity(cap + 1),
            spec_last: PcMap::with_capacity_and_hasher(cap + 1, Default::default()),
            last_access: None,
        }
    }

    /// The configured shape.
    pub fn params(&self) -> BlockParams {
        self.params
    }

    /// In-flight instances currently registered.
    pub fn inflight(&self) -> usize {
        self.window.len()
    }

    /// The fetch-block address of a µ-op address.
    #[inline]
    fn block_pc(&self, pc: u64) -> u64 {
        pc & !(self.params.block_size as u64 * INST_BYTES - 1)
    }

    /// Fetch-time query for the µ-op `(seq, pc)` fetched at `cycle`.
    pub fn predict(
        &mut self,
        cycle: u64,
        seq: u64,
        pc: u64,
        hist: HistoryView<'_>,
    ) -> BlockQuery {
        // A refused query performs no predictor access: it must neither
        // charge a block read nor consume the (cycle, block) read credit
        // an accepted µ-op of the same block would otherwise ride.
        if let Some(cap) = self.params.spec_window {
            if self.window.len() >= cap {
                return BlockQuery { pred: None, accepted: false, new_block: false };
            }
        }
        let bpc = self.block_pc(pc);
        let new_block = self.last_access != Some((cycle, bpc));
        if new_block {
            self.last_access = Some((cycle, bpc));
        }
        let pred = match &mut self.backend {
            BlockBackend::Legacy(p) => p.predict(pc, hist),
            BlockBackend::DVtage(d) => {
                // Youngest in-flight instance of the same static µ-op
                // anchors the speculative delta chain — one index probe,
                // not a backward window scan.
                let spec_last = self.spec_last.get(&pc).and_then(|(_, v)| *v);
                d.predict_spec(pc, hist, spec_last)
            }
        };
        let value = pred.map(|p| p.value);
        let prev = self.spec_last.insert(pc, (seq, value));
        self.window.push_back(SpecEntry { seq, pc, prev });
        BlockQuery { pred, accepted: true, new_block }
    }

    /// Retires the oldest in-flight instance (which must be `seq`; the
    /// pipeline commits registered µ-ops in program order) and trains the
    /// backend with the architectural result.
    pub fn commit(&mut self, seq: u64, pc: u64, hist: HistoryView<'_>, actual: u64) {
        let front = self.window.pop_front();
        debug_assert!(
            front.is_some_and(|e| e.seq == seq && e.pc == pc),
            "commit of seq {seq} does not match the window head {front:?}"
        );
        // The index owner for a pc is its youngest instance; the retiring
        // oldest instance owns it only when it is the *sole* one in
        // flight — then the entry dies with it.
        if self.spec_last.get(&pc).is_some_and(|(s, _)| *s == seq) {
            self.spec_last.remove(&pc);
        }
        match &mut self.backend {
            BlockBackend::Legacy(p) => p.train(pc, hist, actual),
            BlockBackend::DVtage(d) => d.train_commit(pc, hist, actual),
        }
    }

    /// Drops every in-flight instance with sequence ≥ `first_bad`,
    /// youngest first — the complete speculation rollback.
    pub fn squash_from(&mut self, first_bad: u64) {
        while let Some(back) = self.window.back() {
            if back.seq < first_bad {
                break;
            }
            let e = self.window.pop_back().expect("non-empty");
            // A popped instance is the youngest of its pc (anything
            // younger was popped before it), so it owns the index entry.
            // Restore the instance it shadowed — still in flight iff its
            // seq has not slid past the window head (the window never
            // holds two instances of one pc with the shadowed one
            // squashed first: squashes pop youngest-first). Seqs are
            // strictly increasing across the window even with post-squash
            // reuse, so the head comparison is exact.
            match e.prev {
                Some((pseq, pval))
                    if self.window.front().is_some_and(|f| f.seq <= pseq) =>
                {
                    self.spec_last.insert(e.pc, (pseq, pval));
                }
                _ => {
                    self.spec_last.remove(&e.pc);
                }
            }
            if let BlockBackend::Legacy(p) = &mut self.backend {
                p.squash(e.pc);
            }
        }
    }

    /// Total predictor storage in bits.
    pub fn storage_bits(&self) -> u64 {
        match &self.backend {
            BlockBackend::Legacy(p) => p.storage_bits(),
            BlockBackend::DVtage(d) => d.storage_bits(),
        }
    }

    /// Short display name of the backend.
    pub fn name(&self) -> &'static str {
        match &self.backend {
            BlockBackend::Legacy(p) => p.name(),
            BlockBackend::DVtage(d) => d.name(),
        }
    }
}

impl crate::snapshot::Snapshot for BlockVp {
    fn snapshot(&self, w: &mut crate::snapshot::SnapWriter) {
        // Warm-state capture happens at a drained boundary (functional
        // warmup commits every instance it predicts), so the speculative
        // window carries no state worth serializing. The count is written
        // so a capture taken mid-flight is rejected on restore rather
        // than silently losing the window.
        debug_assert!(self.window.is_empty(), "warm capture with in-flight instances");
        w.put_usize(self.window.len());
        match &self.backend {
            BlockBackend::Legacy(p) => {
                w.put_u8(0);
                p.snapshot(w);
            }
            BlockBackend::DVtage(d) => {
                w.put_u8(1);
                d.snapshot(w);
            }
        }
        match self.last_access {
            None => w.put_bool(false),
            Some((cycle, bpc)) => {
                w.put_bool(true);
                w.put_u64(cycle);
                w.put_u64(bpc);
            }
        }
    }

    fn restore(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        use crate::snapshot::SnapError;
        if r.get_usize()? != 0 {
            return Err(SnapError::new("warm snapshot with in-flight window"));
        }
        self.window.clear();
        self.spec_last.clear();
        let tag = r.get_u8()?;
        match (&mut self.backend, tag) {
            (BlockBackend::Legacy(p), 0) => p.restore(r)?,
            (BlockBackend::DVtage(d), 1) => d.restore(r)?,
            _ => return Err(SnapError::new("vp backend kind mismatch")),
        }
        self.last_access = if r.get_bool()? {
            Some((r.get_u64()?, r.get_u64()?))
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::{DVtageConfig, TwoDeltaStride};

    fn legacy(seed: u64) -> BlockVp {
        BlockVp::new(
            BlockBackend::Legacy(TwoDeltaStride::new(64, seed).into()),
            BlockParams::default(),
            256,
        )
    }

    fn dvtage(params: BlockParams, seed: u64) -> BlockVp {
        BlockVp::new(
            BlockBackend::DVtage(DVtage::new(
                DVtageConfig::paper(params.block_size, params.banks),
                seed,
            )),
            params,
            256,
        )
    }

    /// The block adapter over a legacy predictor makes exactly the same
    /// predict/train/squash calls the pipeline used to make directly.
    #[test]
    fn legacy_adapter_is_call_for_call_identical() {
        let hist = BranchHistory::new();
        let mut direct = TwoDeltaStride::new(64, 9);
        let mut block = legacy(9);
        let mut seq = 0u64;
        for i in 0..2_000u64 {
            let v = hist.view(0);
            let a = direct.predict(0x40, v);
            let q = block.predict(i, seq, 0x40, v);
            assert!(q.accepted);
            assert_eq!(a.map(|p| (p.value, p.confident)), q.pred.map(|p| (p.value, p.confident)));
            if i % 5 == 4 {
                // Squash the in-flight instance instead of committing it.
                direct.squash(0x40);
                block.squash_from(seq);
            } else {
                direct.train(0x40, v, i * 8);
                block.commit(seq, 0x40, v, i * 8);
                seq += 1;
            }
        }
    }

    /// D-VTAGE in-flight instances chain off speculative last values and
    /// a squash rolls the chain back to committed state.
    #[test]
    fn speculative_chain_rolls_back_on_squash() {
        let hist = BranchHistory::new();
        let mut vp = dvtage(BlockParams::default(), 5);
        let v = hist.view(0);
        for i in 0..3_000u64 {
            let q = vp.predict(i, i, 0x40, v);
            assert!(q.accepted);
            vp.commit(i, 0x40, v, 8 * i);
        }
        // Three overlapping instances: predictions chain +8 each.
        let a = vp.predict(3_000, 3_000, 0x40, v).pred.unwrap();
        let b = vp.predict(3_000, 3_001, 0x40, v).pred.unwrap();
        let c = vp.predict(3_001, 3_002, 0x40, v).pred.unwrap();
        assert_eq!(b.value, a.value.wrapping_add(8));
        assert_eq!(c.value, b.value.wrapping_add(8));
        // Squash all three: the next prediction re-anchors on committed
        // state and equals the first one again.
        vp.squash_from(3_000);
        assert_eq!(vp.inflight(), 0);
        let again = vp.predict(3_002, 3_000, 0x40, v).pred.unwrap();
        assert_eq!(again.value, a.value);
    }

    /// A bounded speculative window refuses queries once full; commits
    /// and squashes free slots.
    #[test]
    fn bounded_window_refuses_and_recovers() {
        let hist = BranchHistory::new();
        let mut vp = dvtage(
            BlockParams { block_size: 1, banks: 1, spec_window: Some(2) },
            5,
        );
        let v = hist.view(0);
        assert!(vp.predict(0, 0, 0x40, v).accepted);
        assert!(vp.predict(0, 1, 0x44, v).accepted);
        let refused = vp.predict(0, 2, 0x48, v);
        assert!(!refused.accepted);
        assert!(refused.pred.is_none());
        assert_eq!(vp.inflight(), 2);
        vp.commit(0, 0x40, v, 1);
        assert!(vp.predict(1, 2, 0x48, v).accepted, "commit freed a slot");
        vp.squash_from(1);
        assert_eq!(vp.inflight(), 0, "squash dropped seqs 1 and 2");
    }

    /// Block-read accounting: µ-ops of one fetch block in one cycle
    /// charge a single read; a new cycle or a new block charges again.
    #[test]
    fn block_reads_are_charged_per_cycle_per_block() {
        let hist = BranchHistory::new();
        let mut vp = dvtage(
            BlockParams { block_size: 4, banks: 1, spec_window: None },
            5,
        );
        let v = hist.view(0);
        // Same 4-µ-op block (addresses 0x40..0x50), same cycle.
        assert!(vp.predict(7, 0, 0x40, v).new_block);
        assert!(!vp.predict(7, 1, 0x44, v).new_block);
        assert!(!vp.predict(7, 2, 0x48, v).new_block);
        // Next block in the same cycle: a new read.
        assert!(vp.predict(7, 3, 0x50, v).new_block);
        // Same block again but a later cycle: a new read.
        assert!(vp.predict(8, 4, 0x40, v).new_block);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::DVtageConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Replays only the *committed prefix* of a script through a
        /// fresh D-VTAGE and asserts full state equality with the
        /// speculated-over instance — the rollback contract of the
        /// speculative window: predict never mutates the tables, squash
        /// never touches them, so after any interleaving the predictor
        /// state is exactly the from-scratch replay of its committed
        /// trains.
        #[test]
        fn dvtage_rollback_equals_committed_prefix_replay(
            seed in 1u64..u64::MAX,
            block_size in prop::sample::select(vec![1usize, 2, 4]),
            script in proptest::collection::vec(
                (0u8..8, 0u64..24, any::<u64>()), 1..400),
            outcomes in proptest::collection::vec(any::<bool>(), 0..48),
        ) {
            let hist = BranchHistory::from_outcomes(&outcomes);
            let params = BlockParams { block_size, banks: 1, spec_window: Some(48) };
            let cfg = DVtageConfig {
                lvt_entries: 64,
                base_entries: 64,
                tagged_entries: 16,
                ..DVtageConfig::paper(block_size, 1)
            };
            let mut live = BlockVp::new(
                BlockBackend::DVtage(DVtage::new(cfg.clone(), seed)), params, 64);
            // The committed prefix: every (pc, actual) pair that reached
            // commit, in order.
            let mut committed: Vec<(u64, usize, u64)> = Vec::new();
            let mut inflight: Vec<(u64, u64)> = Vec::new(); // (seq, pc)
            let mut next_seq = 0u64;
            for (op, pcx, value) in &script {
                let pc = pcx * 4;
                let pos = outcomes.len().min(*value as usize % (outcomes.len() + 1));
                let view = hist.view(pos);
                match op {
                    // predict (5/8 of ops: keep the window busy)
                    0..=4 => {
                        if live.predict(next_seq, next_seq, pc, view).accepted {
                            inflight.push((next_seq, pc));
                        }
                        next_seq += 1;
                    }
                    // commit the oldest in-flight instance
                    5..=6 => {
                        if !inflight.is_empty() {
                            let (seq, pc) = inflight.remove(0);
                            live.commit(seq, pc, view, *value);
                            committed.push((pc, pos, *value));
                        }
                    }
                    // squash the youngest half of the window
                    _ => {
                        if !inflight.is_empty() {
                            let cut = inflight[inflight.len() / 2].0;
                            live.squash_from(cut);
                            inflight.retain(|(s, _)| *s < cut);
                        }
                    }
                }
            }
            // Drain: squash everything still in flight.
            live.squash_from(0);
            // Reference: a fresh predictor trained on the committed
            // prefix alone.
            let mut replay = DVtage::new(cfg, seed);
            for (pc, pos, value) in &committed {
                replay.train_commit(*pc, hist.view(*pos), *value);
            }
            // Full state equality (tables, confidence, usefulness, RNG).
            let BlockBackend::DVtage(live_d) = &live.backend else { unreachable!() };
            prop_assert_eq!(live_d, &replay);
        }
    }
}
