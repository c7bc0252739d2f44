//! Plain-old-data marker trait for values that may live in the global
//! address space.
//!
//! UPC++ shared objects are C++ objects whose bytes are moved by RDMA.
//! The Rust equivalent needs a marker for types whose byte representation
//! is total (no padding, no niches): such values can be written to and read
//! back from a [`crate::Segment`] byte-for-byte.
//!
//! # Safety
//! Implementors guarantee that the type
//! * is `Copy + Send + Sync + 'static` (plain data always is),
//! * contains **no padding bytes** and **no invalid bit patterns** (every
//!   byte combination of `size_of::<T>()` bytes is a valid value), and
//! * has alignment ≤ 8 (segments hand out 8-byte-aligned storage).
//!
//! # Byte views
//! Those conditions are exactly what makes a `[T]` and the `[u8]` under it
//! the same data: [`bytes_of`] and [`bytes_of_mut`] reinterpret a Pod
//! slice as its bytes in place, and they are the only casts in this
//! module. Reading the view is sound because no byte is padding (every
//! one is initialized); writing through the mutable view is sound because
//! no bit pattern is invalid (whatever lands there is a `T`); `u8` has
//! alignment 1, so the view is always aligned, and it borrows the slice,
//! so the usual aliasing rules hold it. The bulk paths (`rput_slice`,
//! `rget_slice`, the collectives' packing) hand the caller's memory to the
//! fabric through these views instead of copying it into a staging buffer
//! first; [`Pod::write_to`] and [`Pod::read_from`] are one-element uses of
//! the same two functions.
//! The opposite direction (`&[u8]` → `&[T]`) is *not* offered: received
//! bytes carry no alignment, so they are block-copied into typed storage
//! ([`extend_from_bytes`]).

/// Marker for plain-old-data types storable in the global address space.
///
/// # Safety
/// See the module documentation for the exact obligations.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// The value whose bytes are all zero — what a buffer about to be
    /// filled through [`bytes_of_mut`] starts as.
    #[inline]
    #[must_use]
    fn zeroed() -> Self {
        // SAFETY: every bit pattern of `size_of::<Self>()` bytes is a
        // valid `Self` (Pod contract), all-zero included.
        unsafe { std::mem::MaybeUninit::<Self>::zeroed().assume_init() }
    }

    /// Serialize `self` into `out` (little-endian native layout).
    /// `out.len()` must equal `size_of::<Self>()`.
    #[inline]
    fn write_to(&self, out: &mut [u8]) {
        let size = std::mem::size_of::<Self>();
        assert_eq!(out.len(), size, "Pod::write_to: wrong buffer size");
        out.copy_from_slice(bytes_of(std::slice::from_ref(self)));
    }

    /// Deserialize a value from `bytes`. `bytes.len()` must equal
    /// `size_of::<Self>()`.
    #[inline]
    fn read_from(bytes: &[u8]) -> Self {
        let size = std::mem::size_of::<Self>();
        assert_eq!(bytes.len(), size, "Pod::read_from: wrong buffer size");
        let mut value = Self::zeroed();
        bytes_of_mut(std::slice::from_mut(&mut value)).copy_from_slice(bytes);
        value
    }

    /// Convenience: serialize into a fresh `Vec<u8>`.
    fn to_bytes(&self) -> Vec<u8> {
        bytes_of(std::slice::from_ref(self)).to_vec()
    }
}

macro_rules! impl_pod_prim {
    ($($t:ty),* $(,)?) => {
        $(
            // SAFETY: primitive integer/float types have no padding and no
            // invalid bit patterns, and alignment ≤ 8 on all supported targets.
            unsafe impl Pod for $t {}
        )*
    };
}

impl_pod_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

// SAFETY: arrays of Pod have no padding between elements (array layout is
// contiguous) and inherit element validity and alignment.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

// SAFETY: the unit type has size 0 — trivially valid.
unsafe impl Pod for () {}

/// The bytes of a Pod slice, in place (see the module docs, "Byte views").
#[inline]
#[must_use]
pub fn bytes_of<T: Pod>(values: &[T]) -> &[u8] {
    // SAFETY: `T: Pod` has no padding, so all `size_of_val(values)` bytes
    // behind the pointer are initialized; `u8` has alignment 1; the result
    // borrows `values`, so nothing writes them while it lives.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// The bytes of a Pod slice, writable in place (see the module docs).
#[inline]
#[must_use]
pub fn bytes_of_mut<T: Pod>(values: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: as in `bytes_of`, and every bit pattern is a valid `T`, so
    // whatever is written through the view leaves `values` valid; the
    // result borrows `values` mutably, so it is the only access path.
    unsafe { std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), len) }
}

/// Pack a slice of Pod values into a byte vector: one block copy.
pub fn pack_slice<T: Pod>(values: &[T]) -> Vec<u8> {
    bytes_of(values).to_vec()
}

/// Append the Pod values packed in `bytes` to `out`: one block copy into
/// typed (aligned) storage, which `bytes` itself need not be. Panics when
/// the byte length is not a multiple of `size_of::<T>()`.
pub fn extend_from_bytes<T: Pod>(out: &mut Vec<T>, bytes: &[u8]) {
    let elem = std::mem::size_of::<T>();
    assert!(
        elem == 0 || bytes.len().is_multiple_of(elem),
        "{} bytes is not a multiple of element size {}",
        bytes.len(),
        elem
    );
    if elem == 0 {
        return;
    }
    let start = out.len();
    out.resize(start + bytes.len() / elem, T::zeroed());
    bytes_of_mut(&mut out[start..]).copy_from_slice(bytes);
}

/// Unpack a byte slice into a vector of Pod values. Panics when the byte
/// length is not a multiple of `size_of::<T>()`.
pub fn unpack_slice<T: Pod>(bytes: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    extend_from_bytes(&mut out, bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let x: u64 = 0xDEAD_BEEF_CAFE_F00D;
        assert_eq!(u64::read_from(&x.to_bytes()), x);
        let y: f64 = -1234.5678;
        assert_eq!(f64::read_from(&y.to_bytes()), y);
        let z: i32 = -42;
        assert_eq!(i32::read_from(&z.to_bytes()), z);
    }

    #[test]
    fn roundtrip_arrays() {
        let a = [1.5f64, -2.5, 3.25];
        assert_eq!(<[f64; 3]>::read_from(&a.to_bytes()), a);
    }

    #[test]
    fn pack_unpack_slice() {
        let v = vec![1u64, 2, 3, u64::MAX];
        let bytes = pack_slice(&v);
        assert_eq!(bytes.len(), 32);
        assert_eq!(unpack_slice::<u64>(&bytes), v);
    }

    #[test]
    fn byte_views_are_the_slice_in_place() {
        let mut v = [[1u32, 2, 3], [4, 5, 6]];
        let bytes = bytes_of(&v);
        assert_eq!(bytes.len(), 24);
        assert_eq!(bytes.as_ptr(), v.as_ptr().cast());
        assert_eq!(bytes[4..8], 2u32.to_ne_bytes());
        bytes_of_mut(&mut v)[12..16].copy_from_slice(&9u32.to_ne_bytes());
        assert_eq!(v, [[1, 2, 3], [9, 5, 6]]);
        assert!(bytes_of::<u64>(&[]).is_empty());
        assert!(bytes_of(&[(); 5]).is_empty());
        assert_eq!(<[f64; 5]>::zeroed(), [0.0; 5]);
    }

    #[test]
    fn extend_from_bytes_appends_from_unaligned_bytes() {
        let packed = pack_slice(&[0x0102_0304_0506_0708u64, u64::MAX]);
        // One byte in: no alignment a `&[u64]` view could rely on.
        let mut shifted = vec![0xEE];
        shifted.extend_from_slice(&packed);
        let mut out = vec![7u64];
        extend_from_bytes(&mut out, &shifted[1..]);
        extend_from_bytes(&mut out, &[]);
        assert_eq!(out, [7, 0x0102_0304_0506_0708, u64::MAX]);
        assert!(unpack_slice::<()>(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong buffer size")]
    fn write_to_wrong_size_panics() {
        let mut buf = [0u8; 3];
        42u64.write_to(&mut buf);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn unpack_misaligned_panics() {
        unpack_slice::<u64>(&[0u8; 7]);
    }
}
