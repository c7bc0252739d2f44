//! Software read cache for remote global-memory gets.
//!
//! The canonical PGAS runtime optimization (Titanium/UPC software caches):
//! a per-rank, line-granular cache of *remote* segment data, filled on get
//! misses through the normal fabric path and kept coherent by
//!
//! * **write-through invalidation** — every put/atomic the rank itself
//!   issues drops the lines it covers, so a rank always reads its own
//!   writes;
//! * **sync-point invalidation** — `barrier()` (the world's or a team's)
//!   and `fence()` (and the fences built on them) discard the whole
//!   cache, so anything another rank wrote before the synchronization is
//!   re-fetched after it.
//!
//! Those are the **only acquire points**. Between them a cached read may
//! return a value that is *stale* with respect to another rank's write.
//! When the two accesses are unordered, that is legal under the paper's
//! relaxed memory-consistency model (§III-F): any value the uncached
//! fabric could have returned remains an outcome. When they are ordered
//! by something other than a barrier or fence — the reader took a future
//! (`async_on(..).get()`), waited on an event or acquired a lock after
//! the write — the program is data-race-free and the uncached fabric
//! returns the new value, yet a line filled before the write still serves
//! the old one: the cache does change that program's admissible results.
//! The checker reports exactly this as `[stale-cached-read]`; such a
//! program must `fence()` after synchronizing. (Whether every completed
//! wait should be an acquire point instead is an open question in the
//! ROADMAP, under the read cache's acquire points.)
//!
//! Enable with `RUPCXX_CACHE=capacity_bytes,line_bytes` (or `on` for the
//! defaults) or `RuntimeConfig::with_cache`. When off the fabric pays one
//! untaken branch per get and nothing else — the same zero-cost pattern
//! as aggregation, fault injection and the checker.

use crate::fabric::GlobalAddr;
use crate::segment::Segment;
use rupcxx_check::Stamp;
use rupcxx_util::sync::Mutex;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};

/// Read-cache configuration, normally parsed from `RUPCXX_CACHE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total cache capacity per rank in bytes. The cache holds the
    /// largest power-of-two number of lines that fits in it (see
    /// [`CacheState`]): 12 lines' worth of capacity buys 8 slots.
    pub capacity_bytes: usize,
    /// Cache line size in bytes (power of two, ≥ 8).
    pub line_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 1 << 20,
            line_bytes: 256,
        }
    }
}

impl CacheConfig {
    /// Default capacity and line size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the total per-rank capacity in bytes.
    pub fn capacity_bytes(mut self, bytes: usize) -> Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Set the line size in bytes (power of two, ≥ 8).
    pub fn line_bytes(mut self, bytes: usize) -> Self {
        self.line_bytes = bytes;
        self
    }

    /// Parse a `RUPCXX_CACHE` value. `Ok(None)` means explicitly off;
    /// `Err` carries a description of what was wrong.
    pub fn parse(raw: &str) -> Result<Option<Self>, String> {
        let raw = raw.trim();
        match raw {
            "" | "off" | "0" => return Ok(None),
            "on" | "1" => return Ok(Some(CacheConfig::default())),
            _ => {}
        }
        let (cap, line) = raw
            .split_once(',')
            .ok_or_else(|| "expected two comma-separated fields".to_string())?;
        let capacity_bytes: usize = cap
            .trim()
            .parse()
            .map_err(|_| format!("bad capacity {:?}", cap.trim()))?;
        let line_bytes: usize = line
            .trim()
            .parse()
            .map_err(|_| format!("bad line size {:?}", line.trim()))?;
        if !line_bytes.is_power_of_two() || line_bytes < 8 {
            return Err(format!("line size {line_bytes} must be a power of two ≥ 8"));
        }
        if capacity_bytes < line_bytes {
            return Err(format!(
                "capacity {capacity_bytes} smaller than one line ({line_bytes})"
            ));
        }
        Ok(Some(CacheConfig {
            capacity_bytes,
            line_bytes,
        }))
    }

    /// Read `RUPCXX_CACHE` from the environment; malformed values abort
    /// with a clear message.
    pub fn from_env() -> Option<Self> {
        rupcxx_util::env::parse_env(
            "RUPCXX_CACHE",
            "off | on | CAPACITY_BYTES,LINE_BYTES",
            CacheConfig::parse,
        )
    }
}

/// One slot's control words; the slot's line lives in the arena.
struct Slot {
    /// Version of the slot: odd while a fill is writing it, and never the
    /// same again once one has. A hit reads it before and after its load.
    seq: AtomicU64,
    /// Which line the slot holds and as of which epoch; 0 = none.
    tag: AtomicU64,
}

/// A rank's read cache: direct-mapped, a tag and a version word plus one
/// line of an arena per slot.
///
/// A **hit** takes no lock and writes nothing. It is a seqlock read: the
/// slot's version, the tag compare, the load from the arena, the version
/// again. The arena is atomic words, so a load that overlaps a refill of
/// its slot is well defined, and the version — bumped to odd before a
/// fill touches the slot and to the next even number after — turns it
/// into a miss. Comparing the *tag* twice would not do: a slot can go
/// A → B → A between the two looks. **Fills and invalidations** serialize
/// on one mutex, held for the install alone; the line is fetched before.
///
/// A tag is the line's packed base address with the **epoch** of its fill
/// in the low bits, which are zero in every line-aligned address. Sync-
/// point invalidation bumps the epoch, so no older tag matches any more:
/// O(1), except that the epoch has only `log2(line_bytes)` bits and every
/// `line_bytes - 1`-th bump wipes the tags instead of wrapping into a
/// value some forgotten tag might still carry. Epoch 0 is never current,
/// so a zero tag is an empty slot.
///
/// The slot count is `capacity_bytes / line_bytes` **rounded down to a
/// power of two**, and the slot of a line is its line index plus a
/// per-rank offset under that mask: up to a cache-full of consecutive
/// lines of one rank never evict each other.
pub struct CacheState {
    cfg: CacheConfig,
    line_shift: u32,
    /// Size of every rank's segment: the last line of a segment may be
    /// short, and a lookup reaching past it must miss, not hit on
    /// whatever an earlier tenant of the slot left there.
    seg_bytes: usize,
    slots: Box<[Slot]>,
    arena: Segment,
    epoch: AtomicU64,
    /// Slots holding a line of the current epoch.
    occupied: AtomicU64,
    /// The writers' lock. What it guards besides the slots: per slot, the
    /// filling get's happens-before snapshot, which cached hits replay so
    /// the race checker can flag reads of lines made stale by a
    /// synchronized writer (see `Checker::cache_read`). Empty until the
    /// first stamped fill, that is, for good unless the checker is on.
    fills: Mutex<Vec<Option<Stamp>>>,
    /// Test-only knob: when set, sync-point invalidation is skipped (the
    /// write-through path still runs). Used to plant a stale-read bug the
    /// checker must catch; never set outside tests.
    bypass_sync_invalidation: AtomicBool,
}

impl CacheState {
    /// Build a cache for a fabric whose segments are `seg_bytes` long;
    /// see the type's docs for how `cfg` becomes a slot count.
    pub fn new(cfg: CacheConfig, seg_bytes: usize) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 8,
            "cache line size must be a power of two ≥ 8"
        );
        let nslots = 1usize << (cfg.capacity_bytes / cfg.line_bytes).max(1).ilog2();
        let empty = || Slot {
            seq: AtomicU64::new(0),
            tag: AtomicU64::new(0),
        };
        CacheState {
            line_shift: cfg.line_bytes.trailing_zeros(),
            seg_bytes,
            slots: (0..nslots).map(|_| empty()).collect(),
            arena: Segment::new(nslots * cfg.line_bytes),
            epoch: AtomicU64::new(1),
            occupied: AtomicU64::new(0),
            fills: Mutex::new(Vec::new()),
            bypass_sync_invalidation: AtomicBool::new(false),
            cfg,
        }
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        self.cfg.line_bytes
    }

    /// Bytes the cache holds when every slot is full: the slot count (see
    /// the type's docs) times the line size.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.arena.len()
    }

    /// The line-aligned base address of the line containing `addr` — one
    /// mask on the packed word (line sizes are powers of two smaller than
    /// the offset field, so the mask never touches the rank bits).
    #[inline]
    #[must_use]
    pub fn line_base_addr(&self, addr: GlobalAddr) -> GlobalAddr {
        GlobalAddr::from_packed(addr.packed() & !(self.cfg.line_bytes as u64 - 1))
    }

    /// True when no line is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied.load(Ordering::Relaxed) == 0
    }

    /// Length of the line at the line-aligned `base`: `line_bytes`,
    /// less where the segment ends inside the line.
    #[inline]
    pub fn line_len(&self, base: GlobalAddr) -> usize {
        self.cfg.line_bytes.min(self.seg_bytes - base.offset())
    }

    /// Slot of the line containing `addr`, and the tag that slot carries
    /// while it holds that line in the current epoch. The rank's offset
    /// is a Fibonacci multiply, so that ranks reading the same offsets of
    /// different peers (the SPMD habit) land a stride apart instead of on
    /// top of each other.
    #[inline(always)]
    fn locate(&self, addr: GlobalAddr) -> (usize, u64) {
        let line = addr.offset() >> self.line_shift;
        let rank_offset = (addr.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let slot = line.wrapping_add(rank_offset as usize) & (self.slots.len() - 1);
        let tag = self.line_base_addr(addr).packed() | self.epoch.load(Ordering::Relaxed);
        (slot, tag)
    }

    /// Byte offset of `addr` inside the arena, given its slot.
    #[inline]
    fn arena_offset(&self, slot: usize, addr: GlobalAddr) -> usize {
        (slot << self.line_shift) | (addr.offset() & (self.cfg.line_bytes - 1))
    }

    /// The hit protocol around `read`, which loads from the arena:
    /// version before (acquire: the stores of the fill that set it are
    /// visible), version after (behind an acquire fence: had a later
    /// fill's stores been visible to `read`, so would be the odd version
    /// it set first).
    #[inline(always)]
    fn hit<R>(&self, addr: GlobalAddr, len: usize, read: impl FnOnce(usize) -> R) -> Option<R> {
        let (slot, tag) = self.locate(addr);
        let s = &self.slots[slot];
        let seq = s.seq.load(Ordering::Acquire);
        if seq & 1 != 0
            || s.tag.load(Ordering::Relaxed) != tag
            || addr.offset() + len > self.seg_bytes
        {
            return None;
        }
        let value = read(self.arena_offset(slot, addr));
        fence(Ordering::Acquire);
        (s.seq.load(Ordering::Relaxed) == seq).then_some(value)
    }

    /// Look up `out.len()` bytes of the global address space starting at
    /// `addr`; the span must not cross a line boundary. On a hit the bytes
    /// are copied into `out`; on a miss `out` holds nothing of value.
    #[must_use]
    pub fn lookup(&self, addr: GlobalAddr, out: &mut [u8]) -> bool {
        debug_assert!(
            addr.offset() + out.len() <= self.line_base_addr(addr).offset() + self.cfg.line_bytes
        );
        self.hit(addr, out.len(), |at| self.arena.read_bytes(at, out))
            .is_some()
    }

    /// [`CacheState::lookup`] of one aligned word: two compares and a load.
    #[inline]
    #[must_use]
    pub fn lookup_u64(&self, addr: GlobalAddr) -> Option<u64> {
        self.hit(addr, 8, |at| self.arena.load_u64(at))
    }

    /// The stamp the line holding `addr` was filled with, if it was
    /// filled while the race checker was on and is still cached.
    pub fn fill_stamp(&self, addr: GlobalAddr) -> Option<Stamp> {
        let stamps = self.fills.lock();
        let (slot, tag) = self.locate(addr);
        let live = self.slots[slot].tag.load(Ordering::Relaxed) == tag;
        stamps.get(slot).filter(|_| live)?.clone()
    }

    /// Install `data`, freshly fetched, as the line at the line-aligned
    /// `base` (replacing whatever its slot held), with the fetch's stamp
    /// if the checker is on. The caller fetches before it calls, so the
    /// lock is held for a copy and no longer; what that leaves open, as
    /// it always was: when another thread of the rank invalidates the
    /// line between the fetch and this call, the line goes in all the same.
    pub fn fill(&self, base: GlobalAddr, data: &[u8], stamp: Option<Stamp>) {
        debug_assert_eq!(base, self.line_base_addr(base));
        debug_assert_eq!(data.len(), self.line_len(base));
        let mut stamps = self.fills.lock();
        // The epoch cannot move under the lock, so the tag is current.
        let (slot, tag) = self.locate(base);
        let s = &self.slots[slot];
        // Odd version, then tag and data, then the next even version:
        // whoever is reading the slot meanwhile misses (see `hit`).
        let seq = s.seq.load(Ordering::Relaxed);
        s.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let old = s.tag.swap(tag, Ordering::Relaxed);
        self.arena.write_bytes(slot << self.line_shift, data);
        s.seq.store(seq.wrapping_add(2), Ordering::Release);
        // A zero or older-epoch tag was not counted as a line.
        if (old ^ tag) & (self.cfg.line_bytes as u64 - 1) != 0 {
            self.occupied.fetch_add(1, Ordering::Relaxed);
        }
        if stamp.is_some() && stamps.is_empty() {
            stamps.resize(self.slots.len(), None);
        }
        if let Some(s) = stamps.get_mut(slot) {
            *s = stamp;
        }
    }

    /// Drop every cached line overlapping `[addr, addr+len)`; returns how
    /// many lines were removed. Used by the write-through path —
    /// invalidating a covering span is always safe (a dropped line only
    /// costs a refill). Clearing a tag leaves the slot's bytes alone, so
    /// the version stays: a hit that read the tag first is a hit that
    /// came first.
    pub fn invalidate_span(&self, addr: GlobalAddr, len: usize) -> u64 {
        if len == 0 || self.is_empty() {
            return 0;
        }
        let _fills = self.fills.lock();
        let last = self.line_base_addr(addr.add(len - 1));
        let mut removed = 0;
        let mut base = self.line_base_addr(addr);
        loop {
            let (slot, tag) = self.locate(base);
            let held = &self.slots[slot].tag;
            if held.load(Ordering::Relaxed) == tag {
                held.store(0, Ordering::Relaxed);
                removed += 1;
            }
            if base == last {
                break;
            }
            base = base.add(self.cfg.line_bytes);
        }
        self.occupied.fetch_sub(removed, Ordering::Relaxed);
        removed
    }

    /// Drop every cached line; returns how many were removed.
    pub fn invalidate_all(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let _fills = self.fills.lock();
        let mut epoch = self.epoch.load(Ordering::Relaxed) + 1;
        if epoch == self.cfg.line_bytes as u64 {
            for slot in self.slots.iter() {
                slot.tag.store(0, Ordering::Relaxed);
            }
            epoch = 1;
        }
        self.epoch.store(epoch, Ordering::Relaxed);
        self.occupied.swap(0, Ordering::Relaxed)
    }

    /// Sync-point invalidation (`barrier()`/`fence()`): like
    /// [`CacheState::invalidate_all`], but respects the test-only bypass
    /// knob used to plant stale-read bugs for the checker.
    pub fn invalidate_sync(&self) -> u64 {
        if self.bypass_sync_invalidation.load(Ordering::Relaxed) {
            return 0;
        }
        self.invalidate_all()
    }

    /// Test-only: disable sync-point invalidation, leaving stale lines
    /// visible across barriers — a planted memory-model bug the checker
    /// must report as a stale cached read.
    pub fn set_bypass_sync_invalidation(&self, bypass: bool) {
        self.bypass_sync_invalidation
            .store(bypass, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for CacheState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheState")
            .field("capacity_bytes", &self.cfg.capacity_bytes)
            .field("line_bytes", &self.cfg.line_bytes)
            .field("nslots", &self.slots.len())
            .field("occupied", &self.occupied.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ga(rank: usize, offset: usize) -> GlobalAddr {
        GlobalAddr::new(rank, offset)
    }

    /// A cache over 1 MiB segments.
    fn cache(capacity: usize, line: usize) -> CacheState {
        let cfg = CacheConfig {
            capacity_bytes: capacity,
            line_bytes: line,
        };
        CacheState::new(cfg, 1 << 20)
    }

    /// Install `data` as the line at `base`.
    fn fill(c: &CacheState, base: GlobalAddr, data: &[u8], stamp: Option<Stamp>) {
        assert_eq!(data.len(), c.line_len(base));
        c.fill(base, data, stamp);
    }

    #[test]
    fn parse_env_forms() {
        assert!(CacheConfig::parse("off").unwrap().is_none());
        assert!(CacheConfig::parse("").unwrap().is_none());
        assert!(CacheConfig::parse("0").unwrap().is_none());
        assert_eq!(
            CacheConfig::parse("on").unwrap().unwrap(),
            CacheConfig::default()
        );
        let c = CacheConfig::parse("4096,64").unwrap().unwrap();
        assert_eq!(c.capacity_bytes, 4096);
        assert_eq!(c.line_bytes, 64);
        assert!(CacheConfig::parse("4096").is_err());
        assert!(CacheConfig::parse("x,64").is_err());
        assert!(CacheConfig::parse("4096,100").is_err(), "non-power-of-two");
        assert!(CacheConfig::parse("4096,4").is_err(), "line < 8");
        assert!(CacheConfig::parse("32,64").is_err(), "capacity < line");
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let c = cache(1024, 64);
        let mut out = [0u8; 8];
        assert!(!c.lookup(ga(1, 64), &mut out), "cold cache misses");
        let data: Vec<u8> = (0..64u8).collect();
        fill(&c, ga(1, 64), &data, None);
        assert!(c.lookup(ga(1, 64), &mut out));
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(c.lookup(ga(1, 100), &mut out), "same line, later span");
        assert_eq!(out, [36, 37, 38, 39, 40, 41, 42, 43]);
        assert_eq!(
            c.lookup_u64(ga(1, 72)),
            Some(u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]))
        );
        assert!(!c.lookup(ga(2, 64), &mut out), "other rank misses");
        assert!(!c.lookup(ga(1, 128), &mut out), "other line misses");
        assert_eq!(c.lookup_u64(ga(1, 128)), None);
    }

    #[test]
    fn short_line_at_segment_end_bounds_hits() {
        // The segment ends 16 bytes into its last line.
        let c = CacheState::new(CacheConfig::new().capacity_bytes(1024).line_bytes(64), 80);
        fill(&c, ga(0, 64), &[7u8; 16], None);
        let mut out = [0u8; 8];
        assert!(c.lookup(ga(0, 72), &mut out));
        assert_eq!(out, [7; 8]);
        assert!(
            !c.lookup(ga(0, 80), &mut out),
            "span past the segment's end misses"
        );
        assert_eq!(c.lookup_u64(ga(0, 80)), None);
    }

    #[test]
    fn invalidate_span_drops_covered_lines_only() {
        let c = cache(4096, 64);
        fill(&c, ga(0, 0), &[1; 64], None);
        fill(&c, ga(0, 64), &[2; 64], None);
        fill(&c, ga(0, 128), &[3; 64], None);
        fill(&c, ga(1, 64), &[4; 64], None);
        // A write covering [60, 70) touches lines 0 and 64 of rank 0.
        assert_eq!(c.invalidate_span(ga(0, 60), 10), 2);
        let mut out = [0u8; 8];
        assert!(!c.lookup(ga(0, 0), &mut out));
        assert!(!c.lookup(ga(0, 64), &mut out));
        assert!(c.lookup(ga(0, 128), &mut out), "uncovered line stays");
        assert!(c.lookup(ga(1, 64), &mut out), "other rank's line stays");
        assert_eq!(c.invalidate_span(ga(0, 60), 10), 0, "already gone");
        assert_eq!(c.invalidate_span(ga(0, 0), 0), 0, "empty span");
    }

    #[test]
    fn invalidate_all_counts_and_empties() {
        let c = cache(1024, 64);
        assert_eq!(c.invalidate_all(), 0);
        fill(&c, ga(0, 0), &[0; 64], None);
        fill(&c, ga(1, 64), &[0; 64], None);
        fill(&c, ga(1, 64), &[1; 64], None);
        assert_eq!(c.invalidate_all(), 2, "a refill is not a second line");
        let mut out = [0u8; 8];
        assert!(!c.lookup(ga(0, 0), &mut out));
        assert!(c.is_empty());
        assert_eq!(c.invalidate_all(), 0);
        // A slot last filled in an earlier epoch counts as empty.
        fill(&c, ga(0, 0), &[2; 64], None);
        assert_eq!(c.invalidate_all(), 1);
    }

    #[test]
    fn sync_invalidation_respects_bypass_knob() {
        let c = cache(1024, 64);
        fill(&c, ga(0, 0), &[9; 64], None);
        c.set_bypass_sync_invalidation(true);
        assert_eq!(c.invalidate_sync(), 0, "bypassed");
        let mut out = [0u8; 8];
        assert!(c.lookup(ga(0, 0), &mut out), "stale line survives");
        c.set_bypass_sync_invalidation(false);
        assert_eq!(c.invalidate_sync(), 1);
        assert!(!c.lookup(ga(0, 0), &mut out));
    }

    #[test]
    fn conflicting_lines_evict() {
        // One slot: every line maps to it.
        let c = cache(64, 64);
        fill(&c, ga(0, 0), &[1; 64], None);
        fill(&c, ga(0, 4096), &[2; 64], None);
        let mut out = [0u8; 8];
        assert!(c.lookup(ga(0, 4096), &mut out));
        assert!(!c.lookup(ga(0, 0), &mut out), "evicted by conflict");
        assert_eq!(c.invalidate_all(), 1);
    }

    #[test]
    fn capacity_rounds_down_to_a_power_of_two_of_slots() {
        // 12 lines fit; 8 slots are built, and Debug says so.
        let c = cache(12 * 64, 64);
        assert!(format!("{c:?}").contains("nslots: 8"), "{c:?}");
        // Eight consecutive lines of one rank, wherever they start, keep
        // out of each other's way; the ninth evicts the first.
        for start in [0usize, 3, 8, 1021] {
            for l in start..start + 8 {
                fill(&c, ga(1, l * 64), &[l as u8; 64], None);
            }
            let mut out = [0u8; 8];
            for l in start..start + 8 {
                assert!(c.lookup(ga(1, l * 64), &mut out), "line {l} of 8");
                assert_eq!(out, [l as u8; 8]);
            }
            fill(&c, ga(1, (start + 8) * 64), &[0; 64], None);
            assert!(!c.lookup(ga(1, start * 64), &mut out));
            assert_eq!(c.invalidate_all(), 8);
        }
    }

    #[test]
    fn epoch_wraparound_never_revives_a_line() {
        // 8-byte lines leave the epoch three bits: it wraps every 7 bumps.
        let c = cache(64, 8);
        fill(&c, ga(0, 0), &[1; 8], None);
        assert_eq!(c.lookup_u64(ga(0, 0)), Some(u64::from_le_bytes([1; 8])));
        for round in 0..40u8 {
            // Another slot is refilled each round; slot 0's tag is never
            // written again and must stay dead through every wrap.
            assert_eq!(c.invalidate_all(), 1, "round {round}");
            assert_eq!(c.lookup_u64(ga(0, 0)), None, "round {round}");
            fill(&c, ga(0, 8), &[round; 8], None);
            assert_eq!(c.lookup_u64(ga(0, 8)), Some(u64::from_le_bytes([round; 8])));
        }
    }

    #[test]
    fn alternating_refills_of_one_slot_never_misattribute() {
        // One slot, two lines taking turns in it: between a reader's two
        // checks the slot can go A -> B -> A, and only a version that
        // never repeats tells that apart from "nothing happened".
        let c = cache(64, 64);
        let (a, b) = (ga(1, 0), ga(1, 4096));
        let word = |byte: u8| u64::from_le_bytes([byte; 8]);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..300_000 {
                    fill(&c, a, &[0xAA; 64], None);
                    fill(&c, b, &[0xBB; 64], None);
                }
                done.store(true, Ordering::Relaxed);
            });
            for _ in 0..2 {
                s.spawn(|| {
                    let mut out = [0u8; 24];
                    while !done.load(Ordering::Relaxed) {
                        for at in [0, 24, 56] {
                            if let Some(w) = c.lookup_u64(a.add(at)) {
                                assert_eq!(w, word(0xAA), "line A served line B's word");
                            }
                            if let Some(w) = c.lookup_u64(b.add(at)) {
                                assert_eq!(w, word(0xBB), "line B served line A's word");
                            }
                        }
                        if c.lookup(b.add(8), &mut out) {
                            assert_eq!(out, [0xBB; 24], "torn or misattributed span");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn fill_stamp_round_trips() {
        let c = cache(1024, 64);
        let stamp = Stamp(vec![3, 1].into_boxed_slice());
        fill(&c, ga(0, 0), &[0; 64], None);
        assert_eq!(c.fill_stamp(ga(0, 0)), None, "no side table yet");
        fill(&c, ga(0, 64), &[0; 64], Some(stamp.clone()));
        assert_eq!(c.fill_stamp(ga(0, 100)), Some(stamp));
        assert_eq!(c.fill_stamp(ga(0, 0)), None, "filled unstamped");
        // An unstamped refill and an invalidation both retire the stamp.
        fill(&c, ga(0, 64), &[0; 64], None);
        assert_eq!(c.fill_stamp(ga(0, 64)), None);
        fill(
            &c,
            ga(0, 64),
            &[0; 64],
            Some(Stamp(vec![4, 1].into_boxed_slice())),
        );
        c.invalidate_all();
        assert_eq!(c.fill_stamp(ga(0, 64)), None);
    }
}
