//! Flat, pre-sized window storage for the hot loop.
//!
//! [`SeqRing`] is a fixed-capacity FIFO ring over a contiguous slab,
//! built for the simulator's in-order-allocate / in-order-retire window
//! structures (ROB, LQ, SQ). It never allocates after construction, and
//! every element is addressable in O(1) two ways:
//!
//! * **positionally** — `ring[i]` / [`SeqRing::get`] with `0 = front`;
//! * **by slot id** — [`SeqRing::slot`]: `push_back` assigns each element
//!   a *slot id* (`front_slot + len`), `pop_front` advances `front_slot`,
//!   and `pop_back` returns the id to the allocator. Because the pipeline
//!   allocates window entries in program order and squashes youngest-first,
//!   a surviving reference can only point at a surviving (or already
//!   retired) slot, so a cached slot id replaces every O(n)
//!   `iter().find(|e| e.seq == seq)` scan the `VecDeque` window needed.
//!
//! For the ROB specifically the slot id *is* the sequence number: µ-ops
//! enter in seq order, and a squash rewinds `next_seq` in lock-step with
//! `pop_back` (see `squash_from`), keeping the two aligned forever —
//! the invariants `PERF.md` documents.
//!
//! [`ParkLists`] holds the issue-queue entries that wait on a producer
//! that has not issued yet, one list per physical register, so the issue
//! stage only scans entries that can act.

use eole_isa::RegClass;

use crate::prf::PhysReg;

/// Fixed-capacity FIFO ring with O(1) positional and slot-id access.
///
/// See the module docs; `PERF.md` has the full invariant list.
#[derive(Clone, Debug)]
pub(super) struct SeqRing<T> {
    buf: Box<[T]>,
    /// Physical index of the front element.
    head: usize,
    len: usize,
    /// Absolute slot id of the front element (monotonic under
    /// `pop_front`; rewound only by `pop_back` freeing the tail).
    front_slot: u64,
}

impl<T: Copy> SeqRing<T> {
    /// A ring of `capacity` slots, pre-filled with `fill` (never read
    /// before being overwritten by `push_back`; a fill value keeps the
    /// slab initialization safe without `T: Default`).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub(super) fn new(capacity: usize, fill: T) -> Self {
        assert!(capacity > 0, "window structures are never zero-sized");
        SeqRing { buf: vec![fill; capacity].into_boxed_slice(), head: 0, len: 0, front_slot: 0 }
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn phys(&self, logical: usize) -> usize {
        let i = self.head + logical;
        if i >= self.buf.len() {
            i - self.buf.len()
        } else {
            i
        }
    }

    /// Slot id the next `push_back` will be assigned.
    #[inline]
    pub(super) fn next_slot(&self) -> u64 {
        self.front_slot + self.len as u64
    }

    #[inline]
    pub(super) fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    #[inline]
    pub(super) fn back(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.phys(self.len - 1)])
    }

    /// Appends an element and returns its slot id.
    ///
    /// # Panics
    ///
    /// Panics when full — callers gate on capacity (`rob_entries`,
    /// `lq_entries`, `sq_entries`) before dispatching.
    #[inline]
    pub(super) fn push_back(&mut self, v: T) -> u64 {
        assert!(self.len < self.buf.len(), "SeqRing overflow: capacity {}", self.buf.len());
        let slot = self.front_slot + self.len as u64;
        let i = self.phys(self.len);
        self.buf[i] = v;
        self.len += 1;
        slot
    }

    #[inline]
    pub(super) fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.head];
        self.head = self.phys(1);
        self.len -= 1;
        self.front_slot += 1;
        Some(v)
    }

    #[inline]
    pub(super) fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let v = self.buf[self.phys(self.len - 1)];
        self.len -= 1;
        Some(v)
    }

    /// Positional access, `0 = front`.
    #[inline]
    pub(super) fn get(&self, logical: usize) -> Option<&T> {
        (logical < self.len).then(|| &self.buf[self.phys(logical)])
    }

    /// True if `slot` currently addresses a live element.
    #[inline]
    pub(super) fn holds_slot(&self, slot: u64) -> bool {
        slot >= self.front_slot && slot < self.front_slot + self.len as u64
    }

    /// O(1) access by slot id.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live (older than the front — already
    /// retired — or beyond the back).
    #[inline]
    pub(super) fn slot(&self, slot: u64) -> &T {
        assert!(self.holds_slot(slot), "slot {slot} not live");
        let logical = (slot - self.front_slot) as usize;
        &self.buf[self.phys(logical)]
    }

    /// O(1) mutable access by slot id (same contract as [`SeqRing::slot`]).
    #[inline]
    pub(super) fn slot_mut(&mut self, slot: u64) -> &mut T {
        assert!(self.holds_slot(slot), "slot {slot} not live");
        let logical = (slot - self.front_slot) as usize;
        let i = self.phys(logical);
        &mut self.buf[i]
    }

    fn as_slices(&self) -> (&[T], &[T]) {
        let end = self.head + self.len;
        if end <= self.buf.len() {
            (&self.buf[self.head..end], &[])
        } else {
            (&self.buf[self.head..], &self.buf[..end - self.buf.len()])
        }
    }

    /// Front-to-back iteration (double-ended, like `VecDeque::iter`).
    pub(super) fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (a, b) = self.as_slices();
        a.iter().chain(b.iter())
    }
}

/// End of a list.
const NIL: u32 = u32::MAX;

/// Issue-queue entries parked on the physical register they wait for.
///
/// One singly-linked list per register (integer registers first, then
/// FP), threaded through a slab of one node per IQ entry. The slab, the
/// list heads and the free-node list are sized at construction, so
/// parking, waking and purging never allocate.
#[derive(Clone, Debug)]
pub(super) struct ParkLists {
    /// First FP register's list index: `int_regs`.
    fp_base: usize,
    /// First node of each register's list, or `NIL`.
    heads: Box<[u32]>,
    /// Per node: the next node of its list (or of the free list).
    next: Box<[u32]>,
    /// Per node: the parked µ-op's sequence number.
    seqs: Box<[u64]>,
    /// First free node, or `NIL`.
    free: u32,
    len: usize,
}

impl ParkLists {
    /// Lists for `int_regs + fp_regs` registers over `capacity` nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity` is in `1..u32::MAX` (node ids are `u32`).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub(super) fn new(int_regs: usize, fp_regs: usize, capacity: usize) -> Self {
        assert!((1..NIL as usize).contains(&capacity), "park capacity {capacity} out of range");
        let next = (1..=capacity)
            .map(|n| if n == capacity { NIL } else { n as u32 })
            .collect();
        ParkLists {
            fp_base: int_regs,
            heads: vec![NIL; int_regs + fp_regs].into_boxed_slice(),
            next,
            seqs: vec![0; capacity].into_boxed_slice(),
            free: 0,
            len: 0,
        }
    }

    /// Number of parked µ-ops.
    #[inline]
    pub(super) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn list(&self, class: RegClass, preg: PhysReg) -> usize {
        match class {
            RegClass::Int => preg as usize,
            RegClass::Fp => self.fp_base + preg as usize,
        }
    }

    /// Parks µ-op `seq` on register `preg` of `class`.
    ///
    /// # Panics
    ///
    /// Panics when every node is in use — dispatch counts parked entries
    /// against the IQ capacity, so a full slab means a broken invariant.
    #[inline]
    pub(super) fn park(&mut self, class: RegClass, preg: PhysReg, seq: u64) {
        let n = self.free;
        assert!(n != NIL, "ParkLists overflow: capacity {}", self.seqs.len());
        let head = self.list(class, preg);
        self.free = self.next[n as usize];
        self.seqs[n as usize] = seq;
        self.next[n as usize] = self.heads[head];
        self.heads[head] = n;
        self.len += 1;
    }

    /// Unparks every µ-op waiting on `preg` of `class`, appending its
    /// sequence number to `out` (in no particular order).
    #[inline]
    pub(super) fn wake(&mut self, class: RegClass, preg: PhysReg, out: &mut Vec<u64>) {
        let head = self.list(class, preg);
        let mut n = std::mem::replace(&mut self.heads[head], NIL);
        while n != NIL {
            out.push(self.seqs[n as usize]);
            n = self.release(n);
        }
    }

    /// Drops every µ-op with sequence number `>= cut` parked on `preg`
    /// of `class` (squash recovery: those seqs are about to be reused).
    pub(super) fn purge(&mut self, class: RegClass, preg: PhysReg, cut: u64) {
        let head = self.list(class, preg);
        let mut prev = NIL;
        let mut n = self.heads[head];
        while n != NIL {
            if self.seqs[n as usize] >= cut {
                let next = self.release(n);
                if prev == NIL {
                    self.heads[head] = next;
                } else {
                    self.next[prev as usize] = next;
                }
                n = next;
            } else {
                prev = n;
                n = self.next[n as usize];
            }
        }
    }

    /// Returns node `n` to the free list; yields its former successor.
    #[inline]
    fn release(&mut self, n: u32) -> u32 {
        let next = self.next[n as usize];
        self.next[n as usize] = self.free;
        self.free = n;
        self.len -= 1;
        next
    }

    /// Every parked sequence number, list by list.
    #[cfg(test)]
    pub(super) fn seqs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for &h in self.heads.iter() {
            let mut n = h;
            while n != NIL {
                out.push(self.seqs[n as usize]);
                n = self.next[n as usize];
            }
        }
        out
    }
}

impl<T: Copy> std::ops::Index<usize> for SeqRing<T> {
    type Output = T;

    fn index(&self, logical: usize) -> &T {
        self.get(logical).expect("SeqRing index out of range") // lint:allow(error-typing) std `Index` contract: out-of-range must panic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_positional_access() {
        let mut r: SeqRing<u32> = SeqRing::new(4, 0);
        assert!(r.is_empty());
        assert_eq!(r.push_back(10), 0);
        assert_eq!(r.push_back(11), 1);
        assert_eq!(r.push_back(12), 2);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], 10);
        assert_eq!(r[2], 12);
        assert_eq!(r.front(), Some(&10));
        assert_eq!(r.back(), Some(&12));
        assert_eq!(r.pop_front(), Some(10));
        assert_eq!(r.pop_back(), Some(12));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![11]);
    }

    #[test]
    fn wraps_without_moving_elements() {
        let mut r: SeqRing<u32> = SeqRing::new(3, 0);
        for i in 0..3 {
            r.push_back(i);
        }
        // Retire two, append two: the ring wraps across the slab edge.
        assert_eq!(r.pop_front(), Some(0));
        assert_eq!(r.pop_front(), Some(1));
        r.push_back(3);
        r.push_back(4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(r.iter().rev().copied().collect::<Vec<_>>(), vec![4, 3, 2]);
        assert_eq!(r[0], 2);
        assert_eq!(r[2], 4);
    }

    #[test]
    fn slot_ids_survive_front_retirement() {
        let mut r: SeqRing<u32> = SeqRing::new(4, 0);
        let a = r.push_back(100);
        let b = r.push_back(200);
        let c = r.push_back(300);
        r.pop_front(); // retire slot `a`
        assert!(!r.holds_slot(a));
        assert!(r.holds_slot(b) && r.holds_slot(c));
        assert_eq!(*r.slot(b), 200);
        *r.slot_mut(c) += 1;
        assert_eq!(*r.slot(c), 301);
        assert_eq!(r.front_slot, 1);
    }

    #[test]
    fn pop_back_reuses_slot_ids() {
        let mut r: SeqRing<u32> = SeqRing::new(4, 0);
        r.push_back(1);
        let b = r.push_back(2);
        assert_eq!(r.pop_back(), Some(2)); // squash the youngest
        let b2 = r.push_back(20); // refetch path reuses the id
        assert_eq!(b, b2);
        assert_eq!(*r.slot(b2), 20);
        assert_eq!(r.next_slot(), b2 + 1);
    }

    /// `slot` checks liveness in every build profile: a retired slot id
    /// must not silently read the recycled entry behind it.
    #[test]
    #[should_panic(expected = "slot 0 not live")]
    fn retired_slot_panics() {
        let mut r: SeqRing<u32> = SeqRing::new(2, 0);
        r.push_back(1);
        r.push_back(2);
        r.pop_front();
        r.push_back(3); // reuses the physical cell of slot 0
        r.slot(0);
    }

    #[test]
    #[should_panic(expected = "slot 2 not live")]
    fn slot_past_the_tail_panics() {
        let mut r: SeqRing<u32> = SeqRing::new(4, 0);
        r.push_back(1);
        r.push_back(2);
        *r.slot_mut(2) = 7;
    }

    #[test]
    fn park_wake_and_purge() {
        let mut p = ParkLists::new(4, 4, 3);
        p.park(RegClass::Int, 1, 10);
        p.park(RegClass::Fp, 1, 11);
        p.park(RegClass::Int, 1, 12);
        assert_eq!(p.len(), 3);
        // Int p1 and FP p1 are distinct lists.
        p.purge(RegClass::Int, 1, 12);
        assert_eq!(p.len(), 2);
        let mut out = Vec::new();
        p.wake(RegClass::Int, 1, &mut out);
        assert_eq!(out, vec![10]);
        out.clear();
        p.wake(RegClass::Int, 1, &mut out);
        assert!(out.is_empty(), "a woken list is empty");
        // Freed nodes are reused.
        p.park(RegClass::Int, 3, 20);
        p.park(RegClass::Int, 3, 21);
        let mut seqs = p.seqs();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![11, 20, 21]);
    }

    #[test]
    #[should_panic(expected = "ParkLists overflow")]
    fn park_overflow_panics() {
        let mut p = ParkLists::new(2, 2, 1);
        p.park(RegClass::Int, 0, 1);
        p.park(RegClass::Int, 1, 2);
    }

    #[test]
    #[should_panic(expected = "SeqRing overflow")]
    fn overflow_panics() {
        let mut r: SeqRing<u32> = SeqRing::new(2, 0);
        r.push_back(1);
        r.push_back(2);
        r.push_back(3);
    }
}
