//! Globally addressable memory segments.
//!
//! Each rank owns one [`Segment`]: a fixed-size arena of `AtomicU64` words.
//! All remote memory operations (the `put`/`get` in [`crate::Fabric`])
//! resolve to relaxed atomic loads and stores on these words, so data races
//! between ranks are *defined*: a racing read observes some previously
//! written value. This is a safe-Rust realization of the paper's relaxed
//! memory-consistency model (§III-F): "memory operations issued from
//! different threads can be executed in arbitrary order unless explicit
//! synchronization is specified".
//!
//! Byte-granular accesses that touch only part of a word use a CAS loop so
//! that concurrent writes to *different bytes of the same word* never lose
//! updates; full-word accesses take the fast path of a single relaxed
//! load/store.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size, byte-addressable arena backed by `AtomicU64` words.
pub struct Segment {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl Segment {
    /// Create a zero-initialized segment of `len` bytes (rounded up to a
    /// whole number of 8-byte words).
    ///
    /// The words come from one zeroed allocation, so a large segment is
    /// fresh pages from the OS that nobody writes: a page costs memory
    /// when the job first touches it, not when the fabric is built.
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(8);
        // SAFETY: an `AtomicU64` has the size and bit validity of a `u64`,
        // so all-zero bytes are a valid `AtomicU64` (holding 0).
        let words = unsafe { Box::<[AtomicU64]>::new_zeroed_slice(nwords).assume_init() };
        Segment { words, len }
    }

    /// Usable size in bytes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment has zero capacity.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, offset: usize, n: usize) {
        assert!(
            offset.checked_add(n).is_some_and(|end| end <= self.len),
            "segment access out of bounds: offset {offset} len {n} segment {}",
            self.len
        );
    }

    /// [`Segment::check`] of the word at `offset`, alignment included:
    /// the atomics' one assert, so a misaligned atomic panics in every
    /// build instead of updating the word that holds `offset`.
    #[inline]
    fn check_word(&self, offset: usize) {
        assert!(
            offset.is_multiple_of(8) && offset.checked_add(8).is_some_and(|end| end <= self.len),
            "segment atomic misaligned or out of bounds: offset {offset} segment {}",
            self.len
        );
    }

    /// Read an aligned u64 (offset must be a multiple of 8).
    #[inline]
    #[must_use]
    pub fn load_u64(&self, offset: usize) -> u64 {
        debug_assert_eq!(offset % 8, 0, "load_u64 requires 8-byte alignment");
        self.check(offset, 8);
        self.words[offset / 8].load(Ordering::Relaxed)
    }

    /// Write an aligned u64 (offset must be a multiple of 8).
    #[inline]
    pub fn store_u64(&self, offset: usize, value: u64) {
        debug_assert_eq!(offset % 8, 0, "store_u64 requires 8-byte alignment");
        self.check(offset, 8);
        self.words[offset / 8].store(value, Ordering::Relaxed);
    }

    /// Atomically xor an aligned u64, returning the previous value.
    /// (GUPS-style read-modify-write; the non-atomic UPC kernel is modeled
    /// by a separate load + store pair at the caller's choice.)
    #[inline]
    pub fn fetch_xor_u64(&self, offset: usize, value: u64) -> u64 {
        self.check_word(offset);
        self.words[offset / 8].fetch_xor(value, Ordering::Relaxed)
    }

    /// Atomically add to an aligned u64, returning the previous value.
    #[inline]
    pub fn fetch_add_u64(&self, offset: usize, value: u64) -> u64 {
        self.check_word(offset);
        self.words[offset / 8].fetch_add(value, Ordering::Relaxed)
    }

    /// Compare-and-swap on an aligned u64. Returns `Ok(previous)` on success
    /// and `Err(actual)` on failure.
    #[inline]
    pub fn cas_u64(&self, offset: usize, current: u64, new: u64) -> Result<u64, u64> {
        self.check_word(offset);
        self.words[offset / 8].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Read `buf.len()` bytes starting at `offset` into `buf`.
    pub fn read_bytes(&self, offset: usize, buf: &mut [u8]) {
        self.check(offset, buf.len());
        let mut off = offset;
        let mut out = buf;
        // Leading partial word.
        let head = off % 8;
        if head != 0 && !out.is_empty() {
            let take = (8 - head).min(out.len());
            let word = self.words[off / 8].load(Ordering::Relaxed).to_le_bytes();
            out[..take].copy_from_slice(&word[head..head + take]);
            off += take;
            out = &mut out[take..];
        }
        // Full words.
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.words[off / 8].load(Ordering::Relaxed).to_le_bytes());
            off += 8;
        }
        // Trailing partial word.
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let word = self.words[off / 8].load(Ordering::Relaxed).to_le_bytes();
            let n = rest.len();
            rest.copy_from_slice(&word[..n]);
        }
    }

    /// Write `data` starting at `offset`.
    pub fn write_bytes(&self, offset: usize, data: &[u8]) {
        self.check(offset, data.len());
        let mut off = offset;
        let mut input = data;
        let head = off % 8;
        if head != 0 && !input.is_empty() {
            let take = (8 - head).min(input.len());
            self.write_partial_word(off / 8, head, &input[..take]);
            off += take;
            input = &input[take..];
        }
        let mut chunks = input.chunks_exact(8);
        for chunk in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(chunk);
            self.words[off / 8].store(u64::from_le_bytes(w), Ordering::Relaxed);
            off += 8;
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.write_partial_word(off / 8, 0, rest);
        }
    }

    /// Merge `bytes` into word `widx` at byte position `start` with a CAS
    /// loop, so concurrent writes to other bytes of the word are preserved.
    fn write_partial_word(&self, widx: usize, start: usize, bytes: &[u8]) {
        debug_assert!(start + bytes.len() <= 8);
        let mut mask = [0u8; 8];
        let mut val = [0u8; 8];
        for (i, &b) in bytes.iter().enumerate() {
            mask[start + i] = 0xFF;
            val[start + i] = b;
        }
        let mask = u64::from_le_bytes(mask);
        let val = u64::from_le_bytes(val);
        let word = &self.words[widx];
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            let next = (cur & !mask) | val;
            match word.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Copy `len` bytes from `src` at `src_offset` to this segment at
    /// `offset`, touching each byte once: whole words move load to store,
    /// the partial words at either end through [`Segment::read_bytes`] and
    /// [`Segment::write_bytes`] (so by CAS). All relaxed atomics, like
    /// those two: an access racing with the copy stays defined. The ranges
    /// must sit equally in their words (`src_offset % 8 == offset % 8`;
    /// no word of the source is a word of the destination otherwise) and
    /// must not overlap — the caller stages those copies.
    pub fn copy_from(&self, offset: usize, src: &Segment, src_offset: usize, len: usize) {
        src.check(src_offset, len);
        self.check(offset, len);
        assert_eq!(
            src_offset % 8,
            offset % 8,
            "copy_from: the ranges sit differently in their words"
        );
        debug_assert!(
            !std::ptr::eq(self, src) || src_offset + len <= offset || offset + len <= src_offset,
            "copy_from: overlapping ranges"
        );
        let head = (offset.wrapping_neg() % 8).min(len);
        let nwords = (len - head) / 8;
        let tail = head + nwords * 8;
        let partial = |at: usize, n: usize| {
            let mut edge = [0u8; 8];
            src.read_bytes(src_offset + at, &mut edge[..n]);
            self.write_bytes(offset + at, &edge[..n]);
        };
        partial(0, head);
        let from = &src.words[(src_offset + head) / 8..][..nwords];
        let to = &self.words[(offset + head) / 8..][..nwords];
        for (to, from) in to.iter().zip(from) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        partial(tail, len - tail);
    }

    /// The `n` words starting at the aligned byte `offset`, checked once
    /// for alignment and bounds. An element access through the slice is
    /// then a slice index plus a relaxed atomic — the same load or store
    /// [`Segment::load_u64`]/[`Segment::store_u64`] make, so a racing read
    /// still sees some written value.
    #[inline]
    #[must_use]
    pub fn words(&self, offset: usize, n: usize) -> &[AtomicU64] {
        assert!(
            offset.is_multiple_of(8)
                && n.checked_mul(8)
                    .and_then(|b| offset.checked_add(b))
                    .is_some_and(|end| end <= self.len),
            "segment words misaligned or out of bounds: offset {offset} words {n} segment {}",
            self.len
        );
        &self.words[offset / 8..][..n]
    }

    /// Raw pointer to the aligned word at `offset`, bounds-checked for
    /// `bytes` addressable bytes behind it. This is the privatization
    /// escape hatch under `GlobalPtr::local_slice` and friends: the word
    /// fast paths above stay atomic, while a privatized phase reads and
    /// writes through plain references derived from this pointer.
    ///
    /// The caller must uphold the PGAS ownership discipline: while any
    /// reference derived from this pointer is live, no other rank may
    /// access the range (separate such phases with `barrier()`/`fence()`,
    /// exactly as the paper's relaxed memory model requires for
    /// conflicting accesses).
    #[must_use]
    pub fn privatize_ptr(&self, offset: usize, bytes: usize) -> *mut u64 {
        assert_eq!(offset % 8, 0, "privatized access requires 8-byte alignment");
        self.check(offset, bytes);
        self.words[offset / 8].as_ptr()
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: usize, n: usize) {
        // Reuse write_bytes in chunks to avoid a large temporary.
        const CHUNK: usize = 4096;
        let zeros = [0u8; CHUNK];
        let mut done = 0;
        while done < n {
            let take = CHUNK.min(n - done);
            self.write_bytes(offset + done, &zeros[..take]);
            done += take;
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_u64_roundtrip() {
        let s = Segment::new(64);
        s.store_u64(8, 0x0123_4567_89AB_CDEF);
        assert_eq!(s.load_u64(8), 0x0123_4567_89AB_CDEF);
        assert_eq!(s.load_u64(0), 0);
    }

    #[test]
    fn byte_roundtrip_unaligned() {
        let s = Segment::new(64);
        let data: Vec<u8> = (0..23).collect();
        s.write_bytes(3, &data);
        let mut out = vec![0u8; 23];
        s.read_bytes(3, &mut out);
        assert_eq!(out, data);
        // Bytes outside the range must be untouched (zero).
        let mut head = [0u8; 3];
        s.read_bytes(0, &mut head);
        assert_eq!(head, [0, 0, 0]);
    }

    #[test]
    fn partial_word_writes_preserve_neighbors() {
        let s = Segment::new(8);
        s.write_bytes(0, &[0xAA; 8]);
        s.write_bytes(2, &[0xBB; 3]);
        let mut out = [0u8; 8];
        s.read_bytes(0, &mut out);
        assert_eq!(out, [0xAA, 0xAA, 0xBB, 0xBB, 0xBB, 0xAA, 0xAA, 0xAA]);
    }

    #[test]
    fn fetch_xor_and_add() {
        let s = Segment::new(16);
        s.store_u64(0, 0b1010);
        assert_eq!(s.fetch_xor_u64(0, 0b0110), 0b1010);
        assert_eq!(s.load_u64(0), 0b1100);
        assert_eq!(s.fetch_add_u64(8, 5), 0);
        assert_eq!(s.load_u64(8), 5);
    }

    #[test]
    fn cas_success_and_failure() {
        let s = Segment::new(8);
        s.store_u64(0, 7);
        assert_eq!(s.cas_u64(0, 7, 9), Ok(7));
        assert_eq!(s.cas_u64(0, 7, 11), Err(9));
        assert_eq!(s.load_u64(0), 9);
    }

    #[test]
    fn zero_range() {
        let s = Segment::new(32);
        s.write_bytes(0, &[0xFF; 32]);
        s.zero(5, 20);
        let mut out = [0u8; 32];
        s.read_bytes(0, &mut out);
        assert!(out[..5].iter().all(|&b| b == 0xFF));
        assert!(out[5..25].iter().all(|&b| b == 0));
        assert!(out[25..].iter().all(|&b| b == 0xFF));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let s = Segment::new(8);
        let mut buf = [0u8; 9];
        s.read_bytes(0, &mut buf);
    }

    #[test]
    fn concurrent_byte_writes_do_not_lose_updates() {
        // Two threads write disjoint bytes of the same word repeatedly.
        let s = std::sync::Arc::new(Segment::new(8));
        let s1 = s.clone();
        let s2 = s.clone();
        let t1 = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s1.write_bytes(0, &[0x11; 4]);
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..10_000 {
                s2.write_bytes(4, &[0x22; 4]);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut out = [0u8; 8];
        s.read_bytes(0, &mut out);
        assert_eq!(out, [0x11, 0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22]);
    }

    /// A segment holding `image`.
    fn segment_of(image: &[u8]) -> Segment {
        let s = Segment::new(image.len());
        s.write_bytes(0, image);
        s
    }

    fn contents(s: &Segment) -> Vec<u8> {
        let mut out = vec![0u8; s.len()];
        s.read_bytes(0, &mut out);
        out
    }

    #[test]
    fn copy_from_moves_equally_aligned_ranges() {
        // 2100 bytes: heads, tails and word runs of every length class.
        let image: Vec<u8> = (0..2100u32).map(|i| (i * 7 + i / 256) as u8).collect();
        for src_off in [0usize, 1, 3, 8, 13] {
            for words_apart in [0usize, 1, 5, 66] {
                for len in [0, 1, 2, 7, 8, 9, 63, 64, 65, 511, 1030] {
                    // Between two segments.
                    let dst_off = src_off % 8 + words_apart * 8;
                    let (from, to) = (segment_of(&image), Segment::new(image.len()));
                    to.copy_from(dst_off, &from, src_off, len);
                    let mut want = vec![0u8; image.len()];
                    want[dst_off..dst_off + len].copy_from_slice(&image[src_off..src_off + len]);
                    assert_eq!(contents(&to), want, "{src_off} -> {dst_off}, {len} bytes");
                    // Inside one, disjoint, either way round.
                    let far = src_off + 1040;
                    for (a, b) in [(src_off, far), (far, src_off)] {
                        let s = segment_of(&image);
                        s.copy_from(b, &s, a, len);
                        let mut want = image.clone();
                        want.copy_within(a..a + len, b);
                        assert_eq!(contents(&s), want, "{a} -> {b} in place, {len} bytes");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sit differently")]
    fn copy_from_refuses_unequally_aligned_ranges() {
        let (from, to) = (Segment::new(64), Segment::new(64));
        to.copy_from(3, &from, 8, 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn copy_from_checks_both_ranges() {
        let (from, to) = (Segment::new(16), Segment::new(64));
        to.copy_from(0, &from, 8, 16);
    }

    #[test]
    fn privatize_ptr_aliases_the_words() {
        let s = Segment::new(32);
        s.store_u64(8, 77);
        let p = s.privatize_ptr(8, 16);
        // One exclusive accessor, no concurrent segment traffic.
        unsafe {
            assert_eq!(*p, 77);
            *p.add(1) = 99;
        }
        assert_eq!(s.load_u64(16), 99);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn privatize_ptr_checks_bounds() {
        let s = Segment::new(16);
        let _ = s.privatize_ptr(8, 16);
    }

    #[test]
    #[should_panic(expected = "alignment")]
    fn privatize_ptr_checks_alignment() {
        let s = Segment::new(16);
        let _ = s.privatize_ptr(4, 8);
    }

    #[test]
    fn words_alias_the_word_accessors() {
        let s = Segment::new(32);
        s.store_u64(8, 77);
        let w = s.words(8, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].load(Ordering::Relaxed), 77);
        w[2].store(99, Ordering::Relaxed);
        assert_eq!(s.load_u64(24), 99);
        assert!(s.words(32, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn words_check_bounds() {
        let s = Segment::new(32);
        let _ = s.words(8, 4);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn words_check_alignment() {
        let s = Segment::new(32);
        let _ = s.words(4, 1);
    }

    /// Resident bytes of this process: `/proc/self/statm`'s second field,
    /// counted in 4 KiB pages.
    #[cfg(target_os = "linux")]
    fn resident_bytes() -> usize {
        let statm = std::fs::read_to_string("/proc/self/statm").expect("statm");
        let pages: usize = statm.split_whitespace().nth(1).unwrap().parse().unwrap();
        pages * 4096
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_segment_costs_the_pages_it_touches() {
        const LEN: usize = 256 << 20;
        let before = resident_bytes();
        let s = Segment::new(LEN);
        let grew = resident_bytes().saturating_sub(before);
        assert!(grew < 16 << 20, "building it made {grew} bytes resident");
        for offset in [0, LEN - 8] {
            assert_eq!(s.load_u64(offset), 0);
            s.store_u64(offset, !offset as u64);
            assert_eq!(s.load_u64(offset), !offset as u64);
        }
    }

    #[test]
    fn empty_segment() {
        let s = Segment::new(0);
        assert!(s.is_empty());
        s.read_bytes(0, &mut []);
        s.write_bytes(0, &[]);
    }
}
