//! Global conditional-branch history, shared by TAGE and VTAGE.
//!
//! The trace-driven simulator precomputes the (always correct-path) outcome
//! log once; predictors index it through a [`HistoryView`] anchored at the
//! µ-op's fetch position. Because the log never changes, squash recovery
//! needs no history repair — a refetched µ-op simply presents the same
//! position again.
//!
//! Indices and tags are derived by hashing the most recent `L` outcome bits
//! together with the pc and a per-component seed (instead of maintaining
//! incrementally folded registers, which would need checkpointing).

/// Append-only log of conditional-branch outcomes (bit-packed).
#[derive(Clone, Debug, Default)]
pub struct BranchHistory {
    words: Vec<u64>,
    len: usize,
}

impl BranchHistory {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a log from a slice of outcomes (index 0 = oldest).
    pub fn from_outcomes(outcomes: &[bool]) -> Self {
        let mut h = Self::new();
        for &o in outcomes {
            h.push(o);
        }
        h
    }

    /// Appends one outcome.
    pub fn push(&mut self, taken: bool) {
        let word = self.len / 64;
        let bit = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if taken {
            self.words[word] |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Number of logged outcomes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Outcome at absolute position `i` (0 = oldest).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn outcome(&self, i: usize) -> bool {
        assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// A view of the history as seen by a µ-op fetched after `pos` outcomes
    /// had been logged (i.e. outcomes `[0, pos)` are visible).
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    pub fn view(&self, pos: usize) -> HistoryView<'_> {
        assert!(pos <= self.len, "history position {pos} beyond log length {}", self.len);
        HistoryView { hist: self, pos }
    }
}

/// Maximum history length supported by [`HistoryView::fold`], in bits.
pub const MAX_HISTORY_BITS: usize = 640;

/// A read-only window over the most recent outcomes at some fetch position.
#[derive(Clone, Copy, Debug)]
pub struct HistoryView<'a> {
    hist: &'a BranchHistory,
    pos: usize,
}

impl HistoryView<'_> {
    /// The number of outcomes visible to this view.
    pub fn visible(&self) -> usize {
        self.pos
    }

    /// The `n <= 64` bits at absolute positions `[idx, idx + n)`, oldest
    /// in bit 0.
    #[inline]
    fn bits(&self, idx: usize, n: usize) -> u64 {
        let words = &self.hist.words;
        let (word, bit) = (idx / 64, idx % 64);
        let mut w = words[word] >> bit;
        if bit + n > 64 {
            w |= words[word + 1] << (64 - bit);
        }
        if n < 64 {
            w &= (1u64 << n) - 1;
        }
        w
    }

    /// Hashes the most recent `min(length, visible)` bits with `seed`.
    /// Used to build table indices and tags.
    ///
    /// The result is a function of exactly three things besides `length`
    /// and `seed`, and the fold memo (`FoldMemo`) keys on all three:
    ///
    /// * the content of the hashed bits (never the pc, never anything
    ///   older than the window);
    /// * `min(length, visible)` — a short prefix is not zero-padded to
    ///   `length`; the number of bits actually hashed is mixed in, so it
    ///   never aliases a full-length window;
    /// * `visible % 64` — the bits are consumed in chunks split at the
    ///   log's 64-bit word boundaries, so one window content hashes
    ///   differently at positions of different word phase.
    ///
    /// # Panics
    ///
    /// Panics if `length > MAX_HISTORY_BITS`.
    pub fn fold(&self, length: usize, seed: u64) -> u64 {
        assert!(length <= MAX_HISTORY_BITS);
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        if length == 0 {
            return mix(h);
        }
        let take = length.min(self.pos);
        let start = self.pos - take; // absolute bit index of the oldest taken bit
        let mut remaining = take;
        let mut idx = start;
        while remaining > 0 {
            let word = idx / 64;
            let bit = idx % 64;
            let chunk = (64 - bit).min(remaining);
            let mut w = self.hist.words[word] >> bit;
            if chunk < 64 {
                w &= (1u64 << chunk) - 1;
            }
            h ^= w.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h = h.rotate_left(31).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            idx += chunk;
            remaining -= chunk;
        }
        // Make the amount of history that was actually visible part of the
        // hash so short prefixes don't alias full-length histories.
        h ^= take as u64;
        mix(h)
    }
}

/// Most tagged components a [`FoldMemo`] holds folds for (the paper's
/// VTAGE and D-VTAGE geometries use 6).
pub(crate) const MAX_FOLD_COMPONENTS: usize = 16;

/// Words of the largest memo key: a [`MAX_HISTORY_BITS`]-bit window.
const KEY_WORDS: usize = MAX_HISTORY_BITS.div_ceil(64);

/// The pipeline side a [`FoldMemo`] lookup comes from. Each side owns one
/// slot, so the fetch-side and commit-side positions, which interleave in
/// the pipeline, never evict each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FoldSide {
    /// Fetch-time predictions.
    Fetch = 0,
    /// Commit-time training.
    Commit = 1,
}

/// The memo slot a [`FoldMemo::lookup`] hit or claimed, with the view
/// its folds are computed from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemoSlot<'a> {
    slot: usize,
    hist: HistoryView<'a>,
}

/// One memo slot. A fresh slot is keyed to position 0 with no fold
/// computed yet, which is as valid as any other key.
#[derive(Clone, Copy, Debug, Default)]
struct MemoEntry {
    /// `min(pos, L_max)`: how many bits `window` holds.
    take: usize,
    /// `pos % 64`: the word phase `fold` splits its chunks at.
    phase: usize,
    /// The `take` most recent visible bits, oldest first, bit-packed.
    window: [u64; KEY_WORDS],
    /// Which of `folds` are computed: bit `2i` for component `i`'s index
    /// fold, bit `2i + 1` for its tag fold.
    ready: u32,
    folds: [u64; 2 * MAX_FOLD_COMPONENTS],
}

/// Fixed-size, allocation-free cache of one predictor's per-component
/// history folds.
///
/// [`HistoryView::fold`] never depends on the pc, and the µ-ops between two
/// conditional branches all see one history position, so a predictor's
/// folds change only when the position does. The memo computes each
/// component's index and tag fold at most once per position, when a lookup
/// first asks for it, and serves it to every later lookup there.
///
/// The key is the exact content the folds are a function of (see
/// [`HistoryView::fold`]): the `min(pos, L_max)` most recent visible bits,
/// that count, and `pos % 64`, where `L_max` is the longest configured
/// history. A hit therefore returns exactly what `fold` would, whichever
/// [`BranchHistory`] the view comes from and whatever was pushed to it
/// since the slot was filled.
///
/// The memo is invisible state: it compares equal to any other memo, and
/// predictors leave it out of their snapshots.
#[derive(Clone, Debug)]
pub(crate) struct FoldMemo {
    lengths: [usize; MAX_FOLD_COMPONENTS],
    max_len: usize,
    seeds: [u64; 2],
    slots: [MemoEntry; 2],
}

impl FoldMemo {
    /// A cold memo for components with history `lengths`, component `i`
    /// folding with seeds `index_seed + i` and `tag_seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_FOLD_COMPONENTS`] lengths or
    /// any exceeds [`MAX_HISTORY_BITS`].
    pub(crate) fn new(lengths: &[usize], index_seed: u64, tag_seed: u64) -> Self {
        assert!(
            lengths.len() <= MAX_FOLD_COMPONENTS,
            "{} components exceed the fold memo's {MAX_FOLD_COMPONENTS}",
            lengths.len()
        );
        assert!(lengths.iter().all(|&l| l <= MAX_HISTORY_BITS));
        let mut fixed = [0; MAX_FOLD_COMPONENTS];
        fixed[..lengths.len()].copy_from_slice(lengths);
        FoldMemo {
            lengths: fixed,
            max_len: lengths.iter().copied().max().unwrap_or(0),
            seeds: [index_seed, tag_seed],
            slots: [MemoEntry::default(); 2],
        }
    }

    /// The slot holding `hist`'s folds: either slot if its key matches,
    /// else `side`'s slot, emptied and re-keyed to `hist`.
    pub(crate) fn lookup<'a>(&mut self, side: FoldSide, hist: HistoryView<'a>) -> MemoSlot<'a> {
        let take = self.max_len.min(hist.pos);
        let phase = hist.pos % 64;
        let words = take.div_ceil(64);
        let mut window = [0u64; KEY_WORDS];
        let start = hist.pos - take;
        for (i, w) in window[..words].iter_mut().enumerate() {
            let at = i * 64;
            *w = hist.bits(start + at, (take - at).min(64));
        }
        let own = side as usize;
        for slot in [own, 1 - own] {
            let e = &self.slots[slot];
            if e.take == take && e.phase == phase && e.window[..words] == window[..words] {
                return MemoSlot { slot, hist };
            }
        }
        self.slots[own] = MemoEntry { take, phase, window, ..MemoEntry::default() };
        MemoSlot { slot: own, hist }
    }

    /// Component `comp`'s index fold, `fold(L_comp, index_seed + comp)`.
    #[inline]
    pub(crate) fn index(&mut self, at: MemoSlot<'_>, comp: usize) -> u64 {
        self.fold(at, 2 * comp)
    }

    /// Component `comp`'s tag fold, `fold(L_comp, tag_seed + comp)`.
    #[inline]
    pub(crate) fn tag(&mut self, at: MemoSlot<'_>, comp: usize) -> u64 {
        self.fold(at, 2 * comp + 1)
    }

    #[inline]
    fn fold(&mut self, at: MemoSlot<'_>, which: usize) -> u64 {
        let e = &mut self.slots[at.slot];
        if e.ready & (1 << which) == 0 {
            let comp = which / 2;
            let seed = self.seeds[which % 2] + comp as u64;
            e.folds[which] = at.hist.fold(self.lengths[comp], seed);
            e.ready |= 1 << which;
        }
        e.folds[which]
    }
}

/// A cache never changes what its owner computes, so any two memos are
/// equal: predictors that derive `PartialEq` compare their tables only.
impl PartialEq for FoldMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for FoldMemo {}

/// Final avalanche mix (from MurmurHash3's fmix64).
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Hashes a pc with a seed (for tagless table indexing).
pub fn hash_pc(pc: u64, seed: u64) -> u64 {
    mix(pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_back() {
        let mut h = BranchHistory::new();
        let pattern = [true, false, true, true, false];
        for &p in &pattern {
            h.push(p);
        }
        for (i, &p) in pattern.iter().enumerate() {
            assert_eq!(h.outcome(i), p);
        }
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn fold_depends_only_on_visible_window() {
        // Two logs that agree on the last 8 outcomes but differ before.
        let mut a = BranchHistory::new();
        let mut b = BranchHistory::new();
        for i in 0..100 {
            a.push(i % 3 == 0);
            b.push(i % 7 == 0);
        }
        let tail = [true, true, false, true, false, false, true, false];
        for &t in &tail {
            a.push(t);
            b.push(t);
        }
        let va = a.view(a.len());
        let vb = b.view(b.len());
        assert_eq!(va.fold(8, 1), vb.fold(8, 1));
        assert_ne!(va.fold(64, 1), vb.fold(64, 1));
    }

    #[test]
    fn fold_changes_with_seed_and_length() {
        let h = BranchHistory::from_outcomes(&[true; 100]);
        let v = h.view(100);
        assert_ne!(v.fold(16, 1), v.fold(16, 2));
        assert_ne!(v.fold(16, 1), v.fold(32, 1));
    }

    #[test]
    fn view_at_old_position_is_stable_after_pushes() {
        let mut h = BranchHistory::from_outcomes(&[true, false, true]);
        let before = h.view(3).fold(64, 9);
        h.push(true);
        h.push(false);
        assert_eq!(h.view(3).fold(64, 9), before);
    }

    #[test]
    fn word_boundary_crossing() {
        let mut h = BranchHistory::new();
        for i in 0..130 {
            h.push(i % 2 == 0);
        }
        // Should not panic and should see 130 outcomes.
        let v = h.view(130);
        assert_eq!(v.visible(), 130);
        let _ = v.fold(128, 3);
        let _ = v.fold(640, 3);
    }

    /// Every component's memoized folds, checked against `fold`: index
    /// folds longest first, then tag folds shortest first, as the
    /// predictors' scans ask for them.
    fn assert_memo_matches(memo: &mut FoldMemo, side: FoldSide, view: HistoryView<'_>, lens: &[usize]) {
        let at = memo.lookup(side, view);
        for (i, &len) in lens.iter().enumerate().rev() {
            assert_eq!(memo.index(at, i), view.fold(len, 0x100 + i as u64), "len {len} at pos {}", view.visible());
        }
        for (i, &len) in lens.iter().enumerate() {
            assert_eq!(memo.tag(at, i), view.fold(len, 0x200 + i as u64), "len {len} at pos {}", view.visible());
        }
    }

    #[test]
    fn memo_key_includes_word_phase() {
        // All-ones log: the 640-bit windows at 700 and 701 hold the same
        // bits, but `fold` chunks them at different word phases.
        let h = BranchHistory::from_outcomes(&[true; 800]);
        let lens = [2, 64, 640];
        let mut memo = FoldMemo::new(&lens, 0x100, 0x200);
        assert_ne!(h.view(700).fold(640, 0x102), h.view(701).fold(640, 0x102));
        for pos in [700, 701, 700, 764, 765] {
            assert_memo_matches(&mut memo, FoldSide::Fetch, h.view(pos), &lens);
        }
    }

    #[test]
    fn memo_serves_both_sides_and_refills_on_a_new_position() {
        let h = BranchHistory::from_outcomes(&[true, false, false, true, true]);
        let lens = [2, 4];
        let mut memo = FoldMemo::new(&lens, 0x100, 0x200);
        let fetch = memo.lookup(FoldSide::Fetch, h.view(5)).slot;
        // Same content from the other side hits the fetch slot.
        assert_eq!(memo.lookup(FoldSide::Commit, h.view(5)).slot, fetch);
        assert_ne!(memo.lookup(FoldSide::Commit, h.view(3)).slot, fetch);
        assert_memo_matches(&mut memo, FoldSide::Fetch, h.view(5), &lens);
        assert_memo_matches(&mut memo, FoldSide::Commit, h.view(3), &lens);
    }

    #[test]
    fn memo_rejects_too_many_components() {
        let lens: Vec<usize> = (1..=MAX_FOLD_COMPONENTS + 1).collect();
        assert!(std::panic::catch_unwind(|| FoldMemo::new(&lens, 0, 0)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The memo returns exactly `fold`'s results for any component
        /// lengths up to `MAX_HISTORY_BITS`, at positions below 64, on
        /// word boundaries and straddling them; for two different logs
        /// queried alternately at one position; for a periodic log queried
        /// at positions whose windows hold the same bits at a different
        /// word phase; and for a log pushed after a slot was filled.
        #[test]
        fn memo_matches_fold(
            pattern in proptest::collection::vec(any::<bool>(), 1..4),
            noise in proptest::collection::vec(any::<bool>(), 1400..1401),
            raw_lens in proptest::collection::vec(0usize..=MAX_HISTORY_BITS, 1..MAX_FOLD_COMPONENTS + 1),
            queries in proptest::collection::vec((0u8..3, 0usize..1400, any::<bool>()), 1..24),
        ) {
            let mut lens = raw_lens;
            lens.sort_unstable();
            lens.dedup();
            let periodic: Vec<bool> = pattern.iter().copied().cycle().take(1400).collect();
            let a = BranchHistory::from_outcomes(&periodic);
            let b = BranchHistory::from_outcomes(&noise);
            let mut grown = BranchHistory::from_outcomes(&noise[..700]);
            let mut memo = FoldMemo::new(&lens, 0x100, 0x200);
            for (kind, raw, commit) in queries {
                let side = if commit { FoldSide::Commit } else { FoldSide::Fetch };
                let pos = match kind {
                    0 => raw % 64,
                    1 => 64 * (raw % 21),
                    _ => (64 * (1 + raw % 20) + raw % 5).saturating_sub(2),
                };
                // Two logs, alternately, at the same position.
                assert_memo_matches(&mut memo, side, a.view(pos), &lens);
                assert_memo_matches(&mut memo, side, b.view(pos), &lens);
                assert_memo_matches(&mut memo, side, a.view(pos), &lens);
                // Same window bits one period later, at another word phase.
                assert_memo_matches(&mut memo, side, a.view(pos + pattern.len()), &lens);
                // A log pushed after its slot was filled.
                let end = grown.len();
                assert_memo_matches(&mut memo, side, grown.view(end), &lens);
                grown.push(raw % 2 == 0);
                assert_memo_matches(&mut memo, side, grown.view(end), &lens);
                assert_memo_matches(&mut memo, side, grown.view(end + 1), &lens);
            }
        }
    }

    proptest! {
        #[test]
        fn fold_is_deterministic(outcomes in proptest::collection::vec(any::<bool>(), 0..300),
                                 len in 0usize..256, seed: u64) {
            let h = BranchHistory::from_outcomes(&outcomes);
            let v = h.view(outcomes.len());
            prop_assert_eq!(v.fold(len, seed), v.fold(len, seed));
        }

        #[test]
        fn last_bit_always_matters(outcomes in proptest::collection::vec(any::<bool>(), 1..200)) {
            let mut flipped = outcomes.clone();
            let last = flipped.len() - 1;
            flipped[last] = !flipped[last];
            let a = BranchHistory::from_outcomes(&outcomes);
            let b = BranchHistory::from_outcomes(&flipped);
            let va = a.view(outcomes.len());
            let vb = b.view(outcomes.len());
            prop_assert_ne!(va.fold(4, 0), vb.fold(4, 0));
        }
    }
}
