//! Width-adaptive CSR offset arrays.
//!
//! Every CSR-shaped structure in the workspace — the [`crate::Graph`]
//! adjacency, the compressed cold rows, shard views — carries one offset
//! entry per vertex per direction. Storing those entries as `usize` costs
//! 8 bytes each on a 64-bit host even though almost every real graph's
//! edge count fits comfortably in 32 bits: at LiveJournal scale (4.8M
//! vertices) the two `usize` offset arrays alone were 16 B/vertex of the
//! 9.25 B/edge footprint. [`Offsets`] makes the index width an explicit,
//! checked build-time parameter instead of an accident of pointer width:
//! `u32` entries when the flat array length fits ([`OffsetWidth::for_len`]),
//! `u64` otherwise, selected once at construction and queryable via
//! [`Offsets::width`].
//!
//! Width is a *representation* choice, never a semantic one: equality
//! ([`PartialEq`]) compares logical values, so a narrow offsets array
//! equals its widened twin and every bit-identity contract in the
//! workspace (streamed ≡ staged, narrow ≡ wide, shard-local ≡ global)
//! holds across widths. Narrowing that would lose values is a checked
//! failure ([`Offsets::with_width`]), never a silent truncation.

use crate::stream::BuildError;

/// Storage width of one offset entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OffsetWidth {
    /// 4-byte entries: flat-array lengths up to `u32::MAX`.
    U32,
    /// 8-byte entries: anything a 64-bit host can address.
    U64,
}

impl OffsetWidth {
    /// The narrowest width that can index a flat array of `len` elements
    /// (offset entries range over `0..=len`).
    #[inline]
    pub fn for_len(len: usize) -> OffsetWidth {
        if len <= u32::MAX as usize {
            OffsetWidth::U32
        } else {
            OffsetWidth::U64
        }
    }

    /// Bytes per entry.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            OffsetWidth::U32 => 4,
            OffsetWidth::U64 => 8,
        }
    }

    /// Whether `value` is representable at this width.
    #[inline]
    pub fn fits(self, value: usize) -> bool {
        match self {
            OffsetWidth::U32 => value <= u32::MAX as usize,
            OffsetWidth::U64 => true,
        }
    }
}

/// One entry of an offset plane — `u32` or `u64` — so the one
/// [`crate::csr::transpose`] serves both widths.
pub(crate) trait OffsetInt: Copy {
    fn to_usize(self) -> usize;
    /// `v` must fit the width (callers only store values bounded by a flat
    /// length an array of this width already indexes).
    fn from_usize(v: usize) -> Self;
}

impl OffsetInt for u32 {
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_usize(v: usize) -> u32 {
        v as u32
    }
}

impl OffsetInt for u64 {
    #[inline]
    fn to_usize(self) -> usize {
        self as usize
    }
    #[inline]
    fn from_usize(v: usize) -> u64 {
        v as u64
    }
}

/// A monotone CSR offset array at an explicit width.
///
/// Semantically a `[usize]` of monotonically non-decreasing values
/// starting at 0; physically a `Vec<u32>` or `Vec<u64>` chosen at build
/// time. All accessors speak `usize` so call sites are width-agnostic.
#[derive(Clone, Debug)]
pub enum Offsets {
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Offsets {
    /// An empty array ready to hold `cap` entries at `width`.
    pub fn with_capacity(width: OffsetWidth, cap: usize) -> Offsets {
        match width {
            OffsetWidth::U32 => Offsets::U32(Vec::with_capacity(cap)),
            OffsetWidth::U64 => Offsets::U64(Vec::with_capacity(cap)),
        }
    }

    /// Converts a `usize` offset array, narrowing to `u32` entries when
    /// the final (largest — the array is monotone) value fits.
    pub fn from_usize(values: Vec<usize>) -> Offsets {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        let max = values.last().copied().unwrap_or(0);
        match OffsetWidth::for_len(max) {
            OffsetWidth::U32 => Offsets::U32(values.into_iter().map(|v| v as u32).collect()),
            OffsetWidth::U64 => Offsets::U64(values.into_iter().map(|v| v as u64).collect()),
        }
    }

    /// The storage width.
    #[inline]
    pub fn width(&self) -> OffsetWidth {
        match self {
            Offsets::U32(_) => OffsetWidth::U32,
            Offsets::U64(_) => OffsetWidth::U64,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Offsets::U32(v) => v.len(),
            Offsets::U64(v) => v.len(),
        }
    }

    /// True when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i` as a `usize`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        match self {
            Offsets::U32(v) => v[i] as usize,
            Offsets::U64(v) => v[i] as usize,
        }
    }

    /// The half-open flat-array range of row `v`: `(get(v), get(v + 1))`.
    #[inline]
    pub fn run(&self, v: usize) -> (usize, usize) {
        match self {
            Offsets::U32(o) => (o[v] as usize, o[v + 1] as usize),
            Offsets::U64(o) => (o[v] as usize, o[v + 1] as usize),
        }
    }

    /// The last entry (the flat-array length), or 0 when empty.
    #[inline]
    pub fn last(&self) -> usize {
        match self {
            Offsets::U32(v) => v.last().copied().unwrap_or(0) as usize,
            Offsets::U64(v) => v.last().copied().unwrap_or(0) as usize,
        }
    }

    /// Appends an entry. The value must fit the width — construction
    /// sites select the width from an upper bound on the final flat
    /// length, so a misfit is a programming error (debug-checked).
    #[inline]
    pub fn push(&mut self, value: usize) {
        debug_assert!(self.width().fits(value), "offset {value} exceeds {:?}", self.width());
        match self {
            Offsets::U32(v) => v.push(value as u32),
            Offsets::U64(v) => v.push(value as u64),
        }
    }

    /// Overwrites entry `i` (used by in-place run compaction).
    #[inline]
    pub fn set(&mut self, i: usize, value: usize) {
        debug_assert!(self.width().fits(value), "offset {value} exceeds {:?}", self.width());
        match self {
            Offsets::U32(v) => v[i] = value as u32,
            Offsets::U64(v) => v[i] = value as u64,
        }
    }

    /// Iterates entries as `usize`.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Re-encodes at `width`. Narrowing an array whose values exceed the
    /// target width is a typed [`BuildError::OffsetOverflow`], never a
    /// truncation.
    pub fn with_width(&self, width: OffsetWidth) -> Result<Offsets, BuildError> {
        if !width.fits(self.last()) {
            return Err(BuildError::OffsetOverflow);
        }
        let mut out = Offsets::with_capacity(width, self.len());
        for v in self.iter() {
            out.push(v);
        }
        Ok(out)
    }

    /// Heap bytes held (capacity × entry width).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Offsets::U32(v) => v.capacity() * 4,
            Offsets::U64(v) => v.capacity() * 8,
        }
    }
}

/// Value equality: a narrow array equals its widened twin. Offset width
/// is a storage decision; every bit-identity contract in the workspace
/// is stated over logical content.
impl PartialEq for Offsets {
    fn eq(&self, other: &Offsets) -> bool {
        match (self, other) {
            (Offsets::U32(a), Offsets::U32(b)) => a == b,
            (Offsets::U64(a), Offsets::U64(b)) => a == b,
            (Offsets::U32(a), Offsets::U64(b)) | (Offsets::U64(b), Offsets::U32(a)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x as u64 == y)
            }
        }
    }
}

impl Eq for Offsets {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_selection_boundary() {
        assert_eq!(OffsetWidth::for_len(0), OffsetWidth::U32);
        assert_eq!(OffsetWidth::for_len(u32::MAX as usize), OffsetWidth::U32);
        assert_eq!(OffsetWidth::for_len(u32::MAX as usize + 1), OffsetWidth::U64);
    }

    #[test]
    fn from_usize_narrows_when_it_fits() {
        let o = Offsets::from_usize(vec![0, 2, 5, 5, 9]);
        assert_eq!(o.width(), OffsetWidth::U32);
        assert_eq!(o.len(), 5);
        assert_eq!(o.get(2), 5);
        assert_eq!(o.run(1), (2, 5));
        assert_eq!(o.last(), 9);
    }

    #[test]
    fn cross_width_equality() {
        let narrow = Offsets::from_usize(vec![0, 1, 4]);
        let wide = narrow.with_width(OffsetWidth::U64).unwrap();
        assert_eq!(wide.width(), OffsetWidth::U64);
        assert_eq!(narrow, wide);
        assert_eq!(wide, narrow);
        let other = Offsets::from_usize(vec![0, 1, 5]);
        assert_ne!(narrow, other);
        assert_ne!(wide, other.with_width(OffsetWidth::U64).unwrap());
    }

    #[test]
    fn narrowing_misfit_is_typed_error() {
        let wide = Offsets::U64(vec![0, u32::MAX as u64 + 1]);
        assert_eq!(wide.with_width(OffsetWidth::U32), Err(BuildError::OffsetOverflow));
        // Round-tripping a fitting wide array narrows losslessly.
        let ok = Offsets::U64(vec![0, 7, 7, 12]);
        let narrow = ok.with_width(OffsetWidth::U32).unwrap();
        assert_eq!(narrow.width(), OffsetWidth::U32);
        assert_eq!(narrow, ok);
    }

    #[test]
    fn push_set_and_bytes() {
        let mut o = Offsets::with_capacity(OffsetWidth::U32, 4);
        o.push(0);
        o.push(3);
        o.push(3);
        o.set(2, 4);
        assert_eq!(o.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
        assert_eq!(o.heap_bytes(), 4 * 4);
        assert!(Offsets::with_capacity(OffsetWidth::U64, 0).is_empty());
    }
}
