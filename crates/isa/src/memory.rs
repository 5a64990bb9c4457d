//! Sparse 64-bit byte-addressable memory.
//!
//! Backed by 4 KiB pages allocated on demand; unwritten memory reads as
//! zero. Every access costs one map probe per page it touches, not per
//! byte: an access that stays within one page is one probe plus one slice
//! copy, and [`SparseMemory::load_bytes`] copies a data image page-sized
//! chunk by chunk. Accesses may straddle page boundaries (and wrap at the
//! top of the address space); those take a byte-wise path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Page map keyed by page number, hashed with [`PageHasher`].
type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// One folded 64×64→128-bit multiply per page number, which spreads the
/// (mostly consecutive) page numbers over both the bucket index and the
/// table's control byte. The page map is only probed, never iterated, so
/// the hasher cannot change any result; its keys are addresses the
/// simulated program computes, not input from outside the process.
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(x ^ self.0) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse memory image used by the functional [`Machine`](crate::Machine).
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: PageMap,
}

/// Byte offset of `addr` within its page.
fn offset(addr: u64) -> usize {
    (addr & OFFSET_MASK) as usize
}

/// Panics unless `size` is a supported access width.
fn check_width(size: usize) {
    assert!((1..=8).contains(&size), "memory access width {size} is outside 1..=8 bytes");
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages currently materialized.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page holding `addr`, if it has been materialized.
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| &**p)
    }

    /// The page holding `addr`, materialized (zeroed) if needed.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[offset(addr)])
    }

    /// Writes one byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[offset(addr)] = value;
    }

    /// Reads `size` bytes little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not in `1..=8`, in every build profile.
    pub fn read_le(&self, addr: u64, size: usize) -> u64 {
        check_width(size);
        let off = offset(addr);
        if off + size <= PAGE_SIZE {
            let mut buf = [0u8; 8];
            if let Some(page) = self.page(addr) {
                buf[..size].copy_from_slice(&page[off..off + size]);
            }
            return u64::from_le_bytes(buf);
        }
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `size` bytes of `value` little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not in `1..=8`, in every build profile.
    pub fn write_le(&mut self, addr: u64, size: usize, value: u64) {
        check_width(size);
        let off = offset(addr);
        let bytes = value.to_le_bytes();
        if off + size <= PAGE_SIZE {
            self.page_mut(addr)[off..off + size].copy_from_slice(&bytes[..size]);
            return;
        }
        for (i, &b) in bytes[..size].iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }

    /// Writes a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_le(addr, 8, value);
    }

    /// Copies a byte slice into memory starting at `base`, one page-sized
    /// chunk at a time.
    pub fn load_bytes(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = offset(addr);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SparseMemory({} pages)", self.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn round_trip_u64() {
        let mut m = SparseMemory::new();
        m.write_u64(64, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(64), 0x0123_4567_89ab_cdef);
        // Little-endian byte order.
        assert_eq!(m.read_u8(64), 0xef);
        assert_eq!(m.read_u8(71), 0x01);
    }

    #[test]
    fn page_straddling_access() {
        let mut m = SparseMemory::new();
        let addr = (1 << 12) - 4; // 4 bytes before a page boundary
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_width_reads() {
        let mut m = SparseMemory::new();
        m.write_le(16, 4, 0xaabb_ccdd);
        assert_eq!(m.read_le(16, 4), 0xaabb_ccdd);
        assert_eq!(m.read_le(16, 2), 0xccdd);
        assert_eq!(m.read_le(16, 8), 0xaabb_ccdd); // upper bytes untouched = 0
    }

    #[test]
    fn load_bytes_places_slice() {
        let mut m = SparseMemory::new();
        m.load_bytes(100, &[1, 2, 3, 4]);
        assert_eq!(m.read_le(100, 4), 0x0403_0201);
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn read_wider_than_8_bytes_panics() {
        SparseMemory::new().read_le(0, 9);
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn zero_width_write_panics() {
        SparseMemory::new().write_le(0, 0, 1);
    }

    /// Byte-wise reference model: written bytes plus the set of pages
    /// any write (even of zero) has touched.
    #[derive(Default)]
    struct Reference {
        bytes: BTreeMap<u64, u8>,
        pages: BTreeSet<u64>,
    }

    impl Reference {
        fn write(&mut self, addr: u64, bytes: &[u8]) {
            for (i, &b) in bytes.iter().enumerate() {
                let a = addr.wrapping_add(i as u64);
                self.bytes.insert(a, b);
                self.pages.insert(a >> PAGE_SHIFT);
            }
        }

        fn read(&self, addr: u64, size: usize) -> u64 {
            (0..size).fold(0, |v, i| {
                let b = self.bytes.get(&addr.wrapping_add(i as u64)).copied().unwrap_or(0);
                v | u64::from(b) << (8 * i)
            })
        }
    }

    /// An address on one of four pages — the bottom two, one further up
    /// and the last page of the address space, so straddling accesses
    /// also wrap — anywhere in the page, at its start, or within a word
    /// of its end.
    fn address((page, place, r): (usize, u8, u64)) -> u64 {
        const BASES: [u64; 4] = [0, 1 << PAGE_SHIFT, 0x7_0000, !OFFSET_MASK];
        let off = match place {
            0 => r & OFFSET_MASK,
            1 => r % 12,
            _ => OFFSET_MASK - r % 12,
        };
        BASES[page] + off
    }

    /// `len` pseudo-random bytes derived from `seed`.
    fn segment(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random mixed-width reads, writes and multi-page `load_bytes`
        /// agree with the byte-wise reference at every step, including
        /// reads of unwritten pages and page-straddling accesses.
        #[test]
        fn matches_bytewise_reference(
            ops in prop::collection::vec(
                (0u8..4, (0usize..4, 0u8..3, any::<u64>()), 0usize..4, any::<u64>()),
                1..48,
            )
        ) {
            let mut m = SparseMemory::new();
            let mut reference = Reference::default();
            for (kind, at, width, value) in ops {
                let addr = address(at);
                let size = [1, 2, 4, 8][width];
                match kind {
                    0 | 1 => prop_assert_eq!(m.read_le(addr, size), reference.read(addr, size)),
                    2 => {
                        m.write_le(addr, size, value);
                        reference.write(addr, &value.to_le_bytes()[..size]);
                    }
                    _ => {
                        // Up to three pages plus a ragged tail, at any offset.
                        let bytes = segment(value, (value % (3 * PAGE_SIZE as u64 + 17)) as usize);
                        m.load_bytes(addr, &bytes);
                        reference.write(addr, &bytes);
                    }
                }
                prop_assert_eq!(m.page_count(), reference.pages.len());
            }
            for (&a, &b) in &reference.bytes {
                prop_assert_eq!(m.read_u8(a), b);
            }
        }

        #[test]
        fn write_then_read_any_width(addr in 0u64..1u64 << 40, size in 1usize..=8, value: u64) {
            let mut m = SparseMemory::new();
            m.write_le(addr, size, value);
            let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
            prop_assert_eq!(m.read_le(addr, size), value & mask);
        }

        #[test]
        fn disjoint_writes_do_not_interfere(a in 0u64..1u64 << 32, v1: u64, v2: u64) {
            let b = a.wrapping_add(8);
            let mut m = SparseMemory::new();
            m.write_u64(a, v1);
            m.write_u64(b, v2);
            prop_assert_eq!(m.read_u64(a), v1);
            prop_assert_eq!(m.read_u64(b), v2);
        }
    }
}
