//! First-fit free-list allocator over a rank's segment.
//!
//! Backs `rupcxx::allocate<T>(rank, n)`. All blocks are 8-byte aligned so
//! that word-granular RMA fast paths apply, and adjacent free blocks are
//! coalesced on free. The allocator hands out *offsets* into the segment;
//! typed global pointers are layered on top by `rupcxx`.

/// Allocation failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfSegmentMemory {
    /// Bytes requested (after alignment rounding).
    pub requested: usize,
    /// Largest currently available contiguous block.
    pub largest_free: usize,
}

impl std::fmt::Display for OutOfSegmentMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of segment memory: requested {} bytes, largest free block {} bytes",
            self.requested, self.largest_free
        )
    }
}

impl std::error::Error for OutOfSegmentMemory {}

const ALIGN: usize = 8;

/// A first-fit free-list allocator handing out byte offsets.
#[derive(Debug)]
pub struct SegAllocator {
    /// Sorted, coalesced list of free `(offset, len)` blocks.
    free: Vec<(usize, usize)>,
    /// Size of each live allocation, keyed by offset (for free()).
    live: std::collections::HashMap<usize, usize>,
    capacity: usize,
}

impl SegAllocator {
    /// Allocator over `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity - capacity % ALIGN;
        SegAllocator {
            free: if cap > 0 { vec![(0, cap)] } else { vec![] },
            live: std::collections::HashMap::new(),
            capacity: cap,
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.live.values().sum()
    }

    /// Allocate `size` bytes (rounded up to 8-byte granularity).
    /// Zero-size requests consume one granule so each allocation has a
    /// distinct offset.
    pub fn alloc(&mut self, size: usize) -> Result<usize, OutOfSegmentMemory> {
        let size = size.max(1).div_ceil(ALIGN) * ALIGN;
        for i in 0..self.free.len() {
            let (off, len) = self.free[i];
            if len >= size {
                if len == size {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + size, len - size);
                }
                self.live.insert(off, size);
                return Ok(off);
            }
        }
        Err(OutOfSegmentMemory {
            requested: size,
            largest_free: self.free.iter().map(|&(_, l)| l).max().unwrap_or(0),
        })
    }

    /// Free a block previously returned by [`SegAllocator::alloc`].
    /// Panics on double free or a foreign offset.
    pub fn free(&mut self, offset: usize) {
        let len = self
            .live
            .remove(&offset)
            .unwrap_or_else(|| panic!("free of unallocated offset {offset}"));
        // Insert keeping the list sorted, then coalesce with neighbours.
        let pos = self.free.partition_point(|&(o, _)| o < offset);
        self.free.insert(pos, (offset, len));
        // Coalesce with next.
        if pos + 1 < self.free.len() {
            let (o, l) = self.free[pos];
            let (no, nl) = self.free[pos + 1];
            if o + l == no {
                self.free[pos] = (o, l + nl);
                self.free.remove(pos + 1);
            }
        }
        // Coalesce with previous.
        if pos > 0 {
            let (po, pl) = self.free[pos - 1];
            let (o, l) = self.free[pos];
            if po + pl == o {
                self.free[pos - 1] = (po, pl + l);
                self.free.remove(pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_distinct() {
        let mut a = SegAllocator::new(1024);
        let x = a.alloc(3).unwrap();
        let y = a.alloc(10).unwrap();
        assert_eq!(x % 8, 0);
        assert_eq!(y % 8, 0);
        assert_ne!(x, y);
        assert_eq!(a.live.len(), 2);
        assert_eq!(a.in_use(), 8 + 16);
    }

    #[test]
    fn exhausts_and_recovers() {
        let mut a = SegAllocator::new(64);
        let x = a.alloc(64).unwrap();
        let err = a.alloc(8).unwrap_err();
        assert_eq!(err.largest_free, 0);
        a.free(x);
        assert!(a.alloc(64).is_ok());
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut a = SegAllocator::new(96);
        let x = a.alloc(32).unwrap();
        let y = a.alloc(32).unwrap();
        let z = a.alloc(32).unwrap();
        // Free in an order that requires both-side coalescing.
        a.free(x);
        a.free(z);
        a.free(y);
        // All memory back in a single block.
        assert_eq!(a.free, vec![(0, 96)]);
        assert!(a.alloc(96).is_ok());
    }

    #[test]
    #[should_panic(expected = "free of unallocated offset")]
    fn double_free_panics() {
        let mut a = SegAllocator::new(64);
        let x = a.alloc(8).unwrap();
        a.free(x);
        a.free(x);
    }

    #[test]
    fn zero_size_allocations_are_distinct() {
        let mut a = SegAllocator::new(64);
        let x = a.alloc(0).unwrap();
        let y = a.alloc(0).unwrap();
        assert_ne!(x, y);
    }

    #[test]
    fn error_reports_largest_block() {
        let mut a = SegAllocator::new(128);
        let _keep = a.alloc(64).unwrap();
        let hole = a.alloc(32).unwrap();
        let _tail = a.alloc(32).unwrap();
        a.free(hole);
        let err = a.alloc(64).unwrap_err();
        assert_eq!(err.largest_free, 32);
        assert_eq!(err.requested, 64);
    }
}
