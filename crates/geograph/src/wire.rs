//! Stable wire encoding for graph types crossing a durability boundary.
//!
//! The WAL and snapshot machinery (`crates/durable`) persists
//! [`GraphDelta`]s and whole [`Graph`]s across process restarts, so their
//! byte layout must be explicit and version-stable rather than whatever
//! the in-memory structs happen to be. Everything here is little-endian,
//! decoded through a bounds-checked [`Reader`] that returns typed
//! [`WireError`]s — malformed input never panics and never silently
//! produces a half-valid value.
//!
//! ## What travels
//!
//! Everything made of vertex ids travels in **bit sections**: a
//! [`BitWriter`] packs fixed-width fields, Elias-gamma and Golomb-Rice
//! codes LSB-first and zero-pads only where the section ends; a
//! [`BitReader`] reads them back and refuses set padding bits. Ids travel
//! as **rows** (`put_row` / `read_row`): `gamma(len)`, then for a
//! non-empty row a 5-bit Rice parameter `k`, then the first id and every
//! `gap − 1`, Rice-coded with `k`. `k` is `⌊log2⌋` of the row's mean coded
//! value — derived, never configured, and a decoder refuses any other.
//!
//! A [`Graph`] travels as its **in-rows** — a hub's in-row is dense, its
//! gaps carry a bit or two, and a Rice code spends only those: a magic
//! tag, `varint(n)`, `varint(m)`, then one bit section of `n` rows. No
//! offset plane (offsets are a prefix sum of the row lengths) and no
//! out-direction (`Graph::from_in_rows` transposes it back). A graph
//! holding duplicate edges has no gap code and is refused at encode time
//! ([`std::io::ErrorKind::InvalidInput`]).
//!
//! A [`GraphDelta`] travels as `varint(old_n)`, `varint(new_n)` and one bit
//! section of the inserted then the deleted list, each `gamma(rows)` and
//! per source `gamma(source gap)` (the first source absolute) and its
//! targets as a row. `touched` and the sparse degree changes are
//! *derivations* of the edge lists, so the decoder recomputes them through
//! the code path [`GraphDelta::from_events`] uses: a decoded delta cannot
//! disagree with itself.
//!
//! DC-id planes (a geo-graph's locations here, the masters in
//! `geopart::snapshot`) take `⌈log2 M⌉` bits a vertex ([`put_dcs`] /
//! [`read_dcs`]). Mostly-constant per-vertex planes (data sizes here, the
//! traffic profile in `geopart::snapshot`) travel as `(value, run)` pairs
//! via [`put_runs`] / [`Reader::runs`].
//!
//! Encoders are generic over [`std::io::Write`], so the same code fills a
//! `Vec<u8>` or streams through a buffered file sink in O(buffer) memory.

use std::io::{self, Write};

use crate::csr::{edge_count, Graph};
use crate::delta::GraphDelta;
use crate::geo::GeoGraph;
use crate::{DcId, VertexId, MAX_DCS};

/// Leading `u64` of a graph blob (`b"graph_v4"`, little-endian).
const GRAPH_MAGIC: u64 = u64::from_le_bytes(*b"graph_v4");

/// Longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// Width of a row's Rice parameter field.
const RICE_PARAMETER_BITS: u32 = 5;

/// Why a wire blob failed to decode.
#[derive(Debug)]
pub enum WireError {
    /// The buffer ended before the declared payload did.
    Truncated,
    /// Decoding finished with unconsumed bytes (full-buffer decodes only).
    TrailingBytes,
    /// The bytes decoded but violate a structural invariant.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire blob truncated"),
            WireError::TrailingBytes => write!(f, "wire blob has trailing bytes"),
            WireError::Malformed(what) => write!(f, "wire blob malformed: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit offset basis — the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a `hash`, so a stream can be
/// checksummed block by block: `fnv1a_fold(fnv1a_fold(FNV_OFFSET, a), b)`
/// equals [`fnv1a`] of `a` followed by `b`.
pub fn fnv1a_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit over a byte slice — the workspace's one dependency-free
/// integrity check (WAL frames, snapshots, plan files, master vectors).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A `u64` length prefix sanity-checked against the bytes actually
    /// available (`width` = bytes per element), so a corrupted length
    /// cannot trigger a huge allocation before the read fails.
    pub fn len(&mut self, width: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        if (n as usize).checked_mul(width).is_none_or(|total| total > self.remaining()) {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, WireError> {
        Ok(self
            .take(n * 8)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// One LEB128 varint. Short input is [`WireError::Truncated`]; an
    /// encoding that is not the shortest for its value, or that carries
    /// bits past the 64th, is [`WireError::Malformed`] — every value has
    /// exactly one accepted byte form.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut x = 0u64;
        for i in 0..MAX_VARINT_BYTES {
            let b = *self.buf.get(self.pos + i).ok_or(WireError::Truncated)?;
            // The tenth byte holds bit 63 alone.
            if i == MAX_VARINT_BYTES - 1 && b > 1 {
                break;
            }
            x |= ((b & 0x7f) as u64) << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(WireError::Malformed("overlong varint"));
                }
                self.pos += i + 1;
                return Ok(x);
            }
        }
        Err(WireError::Malformed("varint exceeds 64 bits"))
    }

    /// A varint that must fit `u32`.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint()?).map_err(|_| WireError::Malformed("varint exceeds u32"))
    }

    /// Inverse of [`put_runs`]: `n` values from `(value, run)` pairs, each
    /// value read by `value`. The runs must cover `n` exactly. The caller
    /// vouches for `n` (a vertex count it has already bounded by decoded
    /// bytes); the declared run count is bounded here by the bytes left.
    pub fn runs<T: Copy>(
        &mut self,
        n: usize,
        mut value: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let runs = self.varint()?;
        if runs > (self.remaining() / 2) as u64 {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..runs {
            let v = value(self)?;
            let len = self.varint()?;
            if len == 0 || len > (n - out.len()) as u64 {
                return Err(WireError::Malformed("run lengths do not cover the vertex count"));
            }
            out.resize(out.len() + len as usize, v);
        }
        if out.len() != n {
            return Err(WireError::Malformed("run lengths do not cover the vertex count"));
        }
        Ok(out)
    }

    /// Requires every byte to have been consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(())
    }
}

/// LSB-first bit sink over any [`Write`]: flushes 32-bit words, and
/// [`Self::finish`] zero-pads the section's last byte.
pub struct BitWriter<'w, W: Write> {
    w: &'w mut W,
    acc: u64,
    len: u32,
}

impl<'w, W: Write> BitWriter<'w, W> {
    pub fn new(w: &'w mut W) -> Self {
        BitWriter { w, acc: 0, len: 0 }
    }

    /// `value` as a `width`-bit field (`width ≤ 32`, `value < 2^width`).
    #[inline]
    pub fn bits(&mut self, value: u64, width: u32) -> io::Result<()> {
        debug_assert!(width <= 32 && value >> width == 0, "{value} does not fit {width} bits");
        self.acc |= value << self.len;
        self.len += width;
        if self.len >= 32 {
            self.w.write_all(&(self.acc as u32).to_le_bytes())?;
            self.acc >>= 32;
            self.len -= 32;
        }
        Ok(())
    }

    /// `zeros` zero bits, then a one.
    #[inline]
    fn unary(&mut self, mut zeros: u64) -> io::Result<()> {
        while zeros >= 32 {
            self.bits(0, 32)?;
            zeros -= 32;
        }
        self.bits(1 << zeros, zeros as u32 + 1)
    }

    /// Elias-gamma code of `x + 1`: the bit length of `x + 1` less one in
    /// unary, then its bits below the leading one.
    #[inline]
    pub fn gamma(&mut self, x: u32) -> io::Result<()> {
        let v = x as u64 + 1;
        let top = v.ilog2();
        self.unary(top as u64)?;
        self.bits(v ^ (1 << top), top)
    }

    /// Golomb-Rice code of `x` with parameter `k ≤ 31`: `x >> k` in unary,
    /// then the low `k` bits.
    #[inline]
    pub fn rice(&mut self, x: u32, k: u32) -> io::Result<()> {
        self.unary((x >> k) as u64)?;
        self.bits(x as u64 & ((1 << k) - 1), k)
    }

    /// Ends the section: the pending bits, zero-padded to a whole byte.
    pub fn finish(self) -> io::Result<()> {
        let bytes = self.len.div_ceil(8) as usize;
        self.w.write_all(&self.acc.to_le_bytes()[..bytes])
    }
}

/// Bounds-checked reader of one bit section starting where `r` stands;
/// [`Self::finish`] checks the padding and moves `r` past it. A bounded
/// read names what its bound protects and refuses a unary run as soon as
/// it passes the bound, before a value is built.
pub struct BitReader<'r, 'a> {
    r: &'r mut Reader<'a>,
    /// `r`'s unread bytes; `next` indexes the first not yet loaded.
    buf: &'a [u8],
    next: usize,
    /// Loaded, unconsumed bits, the next one lowest; nothing above `avail`.
    acc: u64,
    avail: u32,
}

impl<'r, 'a> BitReader<'r, 'a> {
    pub fn new(r: &'r mut Reader<'a>) -> Self {
        let buf = &r.buf[r.pos..];
        BitReader { r, buf, next: 0, acc: 0, avail: 0 }
    }

    /// Loads whole bytes until at least 56 bits are pending or the buffer
    /// ends — never past 63, so consuming every pending bit and one more
    /// is still a shift in range.
    #[inline]
    fn refill(&mut self) {
        while self.avail < 56 && self.next < self.buf.len() {
            self.acc |= (self.buf[self.next] as u64) << self.avail;
            self.next += 1;
            self.avail += 8;
        }
    }

    /// A `width`-bit field (`width ≤ 32`).
    #[inline]
    pub fn bits(&mut self, width: u32) -> Result<u64, WireError> {
        if self.avail < width {
            self.refill();
            if self.avail < width {
                return Err(WireError::Truncated);
            }
        }
        let v = self.acc & ((1 << width) - 1);
        self.acc >>= width;
        self.avail -= width;
        Ok(v)
    }

    /// A unary run of at most `max` zeros.
    #[inline]
    fn unary(&mut self, max: u64, what: &'static str) -> Result<u64, WireError> {
        let mut zeros = 0u64;
        loop {
            let run = self.acc.trailing_zeros().min(self.avail);
            zeros += run as u64;
            if zeros > max {
                return Err(WireError::Malformed(what));
            }
            if run < self.avail {
                self.acc >>= run + 1;
                self.avail -= run + 1;
                return Ok(zeros);
            }
            // Every pending bit was a zero of the run.
            self.avail = 0;
            self.refill();
            if self.avail == 0 {
                return Err(WireError::Truncated);
            }
        }
    }

    /// Inverse of [`BitWriter::gamma`] for a value of at most `max`.
    #[inline]
    fn gamma(&mut self, max: u32, what: &'static str) -> Result<u32, WireError> {
        let top = self.unary((max as u64 + 1).ilog2() as u64, what)? as u32;
        let v = ((1 << top) | self.bits(top)?) - 1;
        u32::try_from(v).ok().filter(|&v| v <= max).ok_or(WireError::Malformed(what))
    }

    /// Inverse of [`BitWriter::rice`] for a value of at most `max`.
    #[inline]
    fn rice(&mut self, k: u32, max: u32, what: &'static str) -> Result<u32, WireError> {
        let q = self.unary((max >> k) as u64, what)?;
        let v = (q << k) | self.bits(k)?;
        u32::try_from(v).ok().filter(|&v| v <= max).ok_or(WireError::Malformed(what))
    }

    /// Ends the section: the bits left in its last byte must be zero.
    pub fn finish(self) -> Result<(), WireError> {
        if self.acc & ((1 << (self.avail % 8)) - 1) != 0 {
            return Err(WireError::Malformed("padding bits are not zero"));
        }
        self.r.pos += self.next - (self.avail / 8) as usize;
        Ok(())
    }
}

/// The Rice parameter of a row whose `len` coded values sum to `sum`:
/// `⌊log2⌋` of their mean (0 below a mean of 2). Every coded value is
/// below 2^32, so it fits [`RICE_PARAMETER_BITS`].
fn rice_parameter(sum: u64, len: usize) -> u32 {
    (sum / len as u64).checked_ilog2().unwrap_or(0)
}

/// Writes one strictly increasing row of ids (see the module docs). A row
/// that is not strictly increasing has no gap code and is
/// [`io::ErrorKind::InvalidInput`].
fn put_row<W: Write>(w: &mut BitWriter<'_, W>, row: &[VertexId]) -> io::Result<()> {
    w.gamma(row.len() as u32)?;
    let Some(&first) = row.first() else { return Ok(()) };
    if !row.is_sorted_by(|a, b| a < b) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "row holds a duplicate id"));
    }
    let gaps = || row.windows(2).map(|p| p[1] - p[0] - 1);
    let k = rice_parameter(first as u64 + gaps().map(u64::from).sum::<u64>(), row.len());
    w.bits(k as u64, RICE_PARAMETER_BITS)?;
    w.rice(first, k)?;
    gaps().try_for_each(|gap| w.rice(gap, k))
}

/// Inverse of [`put_row`]: appends a row of ids below `n`, at most
/// `max_len` long, to `out`.
fn read_row(
    r: &mut BitReader<'_, '_>,
    n: u32,
    max_len: u32,
    out: &mut Vec<VertexId>,
) -> Result<(), WireError> {
    let len = r.gamma(max_len, "row longer than its bound")?;
    if len == 0 {
        return Ok(());
    }
    let k = r.bits(RICE_PARAMETER_BITS)? as u32;
    // One past the last id so far. Ids strictly increase, so the row is in
    // range iff its last id is.
    let (mut next, mut sum) = (0u64, 0u64);
    for _ in 0..len {
        let x = r.rice(k, n.saturating_sub(1), "edge endpoint out of range")? as u64;
        sum += x;
        out.push((next + x) as VertexId);
        next += x + 1;
    }
    if next > n as u64 {
        return Err(WireError::Malformed("edge endpoint out of range"));
    }
    if rice_parameter(sum, len as usize) != k {
        return Err(WireError::Malformed("rice parameter is not the one the row derives"));
    }
    Ok(())
}

/// Writes a canonical edge list (sorted, duplicate-free) as rows:
/// `gamma(rows)`, then per source `gamma(source gap)` and its targets.
fn put_edge_rows<W: Write>(
    w: &mut BitWriter<'_, W>,
    edges: &[(VertexId, VertexId)],
) -> io::Result<()> {
    let rows = || edges.chunk_by(|a, b| a.0 == b.0);
    w.gamma(rows().count() as u32)?;
    let (mut prev, mut targets) = (0, Vec::new());
    for row in rows() {
        w.gamma(row[0].0 - prev)?;
        prev = row[0].0;
        targets.clear();
        targets.extend(row.iter().map(|e| e.1));
        put_row(w, &targets)?;
    }
    Ok(())
}

/// Inverse of [`put_edge_rows`] over endpoints below `n`. Sources strictly
/// increase (a gap of 0 past the first row is refused), so the list is
/// sorted and duplicate-free by construction; a row is never empty and
/// never holds its own source.
fn read_edge_rows(
    r: &mut BitReader<'_, '_>,
    n: u32,
) -> Result<Vec<(VertexId, VertexId)>, WireError> {
    let rows = r.gamma(n, "more delta rows than vertices")?;
    let (mut edges, mut targets) = (Vec::new(), Vec::new());
    let mut src = 0u32;
    for i in 0..rows {
        let gap = r.gamma(n.saturating_sub(src + 1), "delta source out of range")?;
        if i > 0 && gap == 0 {
            return Err(WireError::Malformed("delta source gap of 0"));
        }
        src += gap;
        targets.clear();
        read_row(r, n, n, &mut targets)?;
        if targets.is_empty() {
            return Err(WireError::Malformed("empty delta row"));
        }
        if targets.contains(&src) {
            return Err(WireError::Malformed("delta edge is a self-loop"));
        }
        edges.extend(targets.iter().map(|&t| (src, t)));
    }
    Ok(edges)
}

/// Writes the wire form of `delta`.
pub fn encode_delta<W: Write>(delta: &GraphDelta, w: &mut W) -> io::Result<()> {
    put_varint(w, delta.old_num_vertices() as u64)?;
    put_varint(w, delta.new_num_vertices() as u64)?;
    let mut bits = BitWriter::new(w);
    put_edge_rows(&mut bits, delta.inserted())?;
    put_edge_rows(&mut bits, delta.deleted())?;
    bits.finish()
}

/// Decodes one delta from `r`, validating the canonical-form invariants
/// `from_events` guarantees and re-deriving `touched` / degree changes.
pub fn decode_delta(r: &mut Reader<'_>) -> Result<GraphDelta, WireError> {
    let old_n = r.varint()?;
    let new_n = r.varint()?;
    if new_n < old_n || new_n >= u32::MAX as u64 {
        return Err(WireError::Malformed("delta vertex counts"));
    }
    let mut bits = BitReader::new(r);
    let inserted = read_edge_rows(&mut bits, new_n as u32)?;
    // Deleted edges exist in the base graph, so both endpoints predate it.
    let deleted = read_edge_rows(&mut bits, old_n as u32)?;
    bits.finish()?;
    // One net event per edge key: the lists must be disjoint.
    let mut i = 0;
    for &e in &deleted {
        while i < inserted.len() && inserted[i] < e {
            i += 1;
        }
        if i < inserted.len() && inserted[i] == e {
            return Err(WireError::Malformed("edge both inserted and deleted"));
        }
    }
    Ok(GraphDelta::from_net_edges(old_n as usize, new_n as usize, inserted, deleted))
}

/// Bits a DC id below `num_dcs` takes: `⌈log2 M⌉`, 0 at M = 1.
fn dc_width(num_dcs: usize) -> u32 {
    (num_dcs.max(1) - 1).checked_ilog2().map_or(0, |top| top + 1)
}

/// Writes `dcs` as one bit section of `⌈log2 num_dcs⌉`-bit fields. An id
/// of `num_dcs` or more is [`io::ErrorKind::InvalidInput`].
pub fn put_dcs<W: Write>(w: &mut W, dcs: &[DcId], num_dcs: usize) -> io::Result<()> {
    if dcs.iter().any(|&d| d as usize >= num_dcs) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "DC id past the DC count"));
    }
    let width = dc_width(num_dcs);
    let mut bits = BitWriter::new(w);
    dcs.iter().try_for_each(|&d| bits.bits(d as u64, width))?;
    bits.finish()
}

/// Inverse of [`put_dcs`]: `n` ids below `num_dcs`; one that is not is
/// `Malformed(what)`. The caller vouches for `n` (a vertex count it has
/// already bounded by the bytes left).
pub fn read_dcs(
    r: &mut Reader<'_>,
    n: usize,
    num_dcs: usize,
    what: &'static str,
) -> Result<Vec<DcId>, WireError> {
    let width = dc_width(num_dcs);
    let mut bits = BitReader::new(r);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let d = bits.bits(width)?;
        if d >= num_dcs as u64 {
            return Err(WireError::Malformed(what));
        }
        out.push(d as DcId);
    }
    bits.finish()?;
    Ok(out)
}

/// Writes `x` as a LEB128 varint — the workspace's one varint encoder
/// ([`Reader::varint`] is its decoder).
#[inline]
pub fn put_varint<W: Write>(w: &mut W, mut x: u64) -> io::Result<()> {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    let mut len = 0;
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        buf[len] = if x == 0 { byte } else { byte | 0x80 };
        len += 1;
        if x == 0 {
            return w.write_all(&buf[..len]);
        }
    }
}

/// Writes `values` run-length encoded: `varint(run count)`, then per run
/// the value (written by `put`) and `varint(run length)`. Two values share
/// a run iff their `bits` agree — floats compare by bit pattern, so `-0.0`
/// and NaN payloads survive.
///
/// `values` is walked twice (the run count comes first), so it is taken
/// as a cloneable iterator: a caller can stream a field out of wider
/// records without collecting it.
pub fn put_runs<W: Write, T: Copy>(
    w: &mut W,
    values: impl Iterator<Item = T> + Clone,
    bits: impl Fn(T) -> u64,
    put: impl Fn(&mut W, T) -> io::Result<()>,
) -> io::Result<()> {
    let bits = &bits;
    let runs = || {
        let mut values = values.clone().peekable();
        std::iter::from_fn(move || {
            let first = values.next()?;
            let mut len = 1u64;
            while values.next_if(|&x| bits(x) == bits(first)).is_some() {
                len += 1;
            }
            Some((first, len))
        })
    };
    put_varint(w, runs().count() as u64)?;
    runs().try_for_each(|(value, len)| {
        put(w, value)?;
        put_varint(w, len)
    })
}

/// [`put_runs`] over `f32`s compared by bit pattern — a WAL window
/// start's traffic-profile suffixes. [`Reader::runs`] with [`Reader::f32`]
/// reads it back.
pub fn put_f32_runs<W: Write>(
    w: &mut W,
    values: impl Iterator<Item = f32> + Clone,
) -> io::Result<()> {
    put_runs(w, values, |x| x.to_bits() as u64, |w, x| w.write_all(&x.to_le_bytes()))
}

/// Writes the wire form of `graph`: magic, `varint(n)`, `varint(m)`, then
/// the `n` in-rows as one bit section. A duplicate edge is
/// [`io::ErrorKind::InvalidInput`].
pub fn encode_graph<W: Write>(graph: &Graph, w: &mut W) -> io::Result<()> {
    w.write_all(&GRAPH_MAGIC.to_le_bytes())?;
    put_varint(w, graph.num_vertices() as u64)?;
    put_varint(w, graph.num_edges() as u64)?;
    let mut bits = BitWriter::new(w);
    graph.vertices().try_for_each(|v| put_row(&mut bits, graph.in_neighbors(v)))?;
    bits.finish()
}

/// Decodes one graph from `r`. Every structural invariant is validated as
/// the rows stream in — corrupted ids, lengths, or counts surface as typed
/// errors, not index panics or giant allocations.
pub fn decode_graph(r: &mut Reader<'_>) -> Result<Graph, WireError> {
    if r.u64()? != GRAPH_MAGIC {
        return Err(WireError::Malformed("graph magic"));
    }
    let (n, m) = (r.varint()?, r.varint()?);
    if n >= u32::MAX as u64 {
        return Err(WireError::Malformed("graph vertex count"));
    }
    // Every row costs at least its length bit and every edge at least the
    // one that ends its unary part, so the bits left bound both counts
    // before any allocation.
    if n.checked_add(m).is_none_or(|total| total > 8 * r.remaining() as u64) {
        return Err(WireError::Truncated);
    }
    let m = edge_count(m).map_err(|_| WireError::Malformed("graph edge count"))?;
    let mut in_offsets: Vec<u32> = Vec::with_capacity(n as usize + 1);
    let mut in_sources: Vec<VertexId> = Vec::with_capacity(m as usize);
    in_offsets.push(0);
    let mut bits = BitReader::new(r);
    for _ in 0..n {
        read_row(&mut bits, n as u32, m - in_sources.len() as u32, &mut in_sources)?;
        in_offsets.push(in_sources.len() as u32);
    }
    bits.finish()?;
    if in_sources.len() != m as usize {
        return Err(WireError::Malformed("row lengths fall short of the declared edge count"));
    }
    Ok(Graph::from_in_rows(n as usize, in_offsets, in_sources))
}

/// Writes the wire form of `geo`: graph, DC count, the locations as a DC-id
/// plane, and the data sizes as runs.
pub fn encode_geo<W: Write>(geo: &GeoGraph, w: &mut W) -> io::Result<()> {
    encode_graph(&geo.graph, w)?;
    put_varint(w, geo.num_dcs as u64)?;
    put_dcs(w, &geo.locations, geo.num_dcs)?;
    put_runs(w, geo.data_sizes.iter().copied(), |s| s, |w, s| put_varint(w, s))
}

/// Decodes one geo-graph from `r`, validating shapes and DC bounds.
pub fn decode_geo(r: &mut Reader<'_>) -> Result<GeoGraph, WireError> {
    let graph = decode_graph(r)?;
    let n = graph.num_vertices();
    let num_dcs = r.varint()?;
    if num_dcs == 0 || num_dcs > MAX_DCS as u64 {
        return Err(WireError::Malformed("DC count out of range"));
    }
    let num_dcs = num_dcs as usize;
    let locations = read_dcs(r, n, num_dcs, "vertex location out of range")?;
    let data_sizes = r.runs(n, Reader::varint)?;
    Ok(GeoGraph { graph, locations, data_sizes, num_dcs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{EdgeEvent, EventKind};
    use crate::{GraphBuilder, LocalityConfig};

    /// `delta` as a standalone byte blob.
    fn delta_to_bytes(delta: &GraphDelta) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 2 * delta.num_edge_changes());
        encode_delta(delta, &mut out).expect("writing into a Vec cannot fail");
        out
    }

    /// Decodes a standalone delta blob, requiring full consumption.
    fn delta_from_bytes(bytes: &[u8]) -> Result<GraphDelta, WireError> {
        let mut r = Reader::new(bytes);
        let d = decode_delta(&mut r)?;
        r.finish()?;
        Ok(d)
    }

    fn base() -> Graph {
        let mut b = GraphBuilder::new(6);
        b.add_edges([(0u32, 1u32), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        b.build()
    }

    fn ev(src: u32, dst: u32, ts: u64, kind: EventKind) -> EdgeEvent {
        EdgeEvent { src, dst, timestamp_ms: ts, kind }
    }

    #[test]
    fn delta_round_trips() {
        let g = base();
        let events = vec![
            ev(0, 3, 0, EventKind::Insert),
            ev(1, 2, 1, EventKind::Delete),
            ev(8, 0, 2, EventKind::Insert),
            ev(4, 5, 3, EventKind::Delete),
            ev(4, 5, 4, EventKind::Insert), // nets out
        ];
        let d = GraphDelta::from_events(&g, &events);
        let restored = delta_from_bytes(&delta_to_bytes(&d)).unwrap();
        assert_eq!(d, restored);
    }

    #[test]
    fn empty_delta_round_trips() {
        let d = GraphDelta::from_events(&base(), &[]);
        assert!(d.is_empty());
        assert_eq!(delta_from_bytes(&delta_to_bytes(&d)).unwrap(), d);
    }

    fn graph_bytes(g: &Graph) -> Vec<u8> {
        let mut out = Vec::new();
        encode_graph(g, &mut out).unwrap();
        out
    }

    fn decode_full(bytes: &[u8]) -> Result<Graph, WireError> {
        let mut r = Reader::new(bytes);
        let g = decode_graph(&mut r)?;
        r.finish()?;
        Ok(g)
    }

    #[test]
    fn graph_round_trips() {
        let g = base();
        let restored = decode_full(&graph_bytes(&g)).unwrap();
        assert_eq!(g, restored);
        // The empty graph and the vertex-free graph travel too.
        for g in [Graph::empty(7), Graph::empty(0)] {
            assert_eq!(decode_full(&graph_bytes(&g)).unwrap(), g);
        }
    }

    #[test]
    fn duplicates_are_refused_self_loops_and_isolated_tail_round_trip() {
        // Self-loops and isolated vertices travel; a duplicate has no gap.
        let g = Graph::from_edges(6, &[(0, 1), (2, 2), (1, 0), (1, 1)]);
        assert_eq!(decode_full(&graph_bytes(&g)).unwrap(), g);
        let dup = Graph::from_edges(6, &[(0, 1), (0, 1)]);
        let err = encode_graph(&dup, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn geo_round_trips() {
        let mut geo = GeoGraph::from_graph(base(), &LocalityConfig::uniform(4, 7));
        geo.data_sizes = vec![64, 64, 64, 9, 1 << 40, 64];
        let mut out = Vec::new();
        encode_geo(&geo, &mut out).unwrap();
        let mut r = Reader::new(&out);
        let restored = decode_geo(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(geo.graph, restored.graph);
        assert_eq!(geo.locations, restored.locations);
        assert_eq!(geo.data_sizes, restored.data_sizes);
        assert_eq!(geo.num_dcs, restored.num_dcs);
    }

    #[test]
    fn truncation_never_panics() {
        let g = base();
        let d = GraphDelta::from_events(&g, &[ev(0, 3, 0, EventKind::Insert)]);
        let bytes = delta_to_bytes(&d);
        for len in 0..bytes.len() {
            assert!(delta_from_bytes(&bytes[..len]).is_err(), "len {len} decoded");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let d = GraphDelta::from_events(&base(), &[]);
        let mut bytes = delta_to_bytes(&d);
        bytes.push(0);
        assert!(matches!(delta_from_bytes(&bytes), Err(WireError::TrailingBytes)));
    }

    /// A hand-built delta blob: the two vertex counts, then one bit section
    /// that `body` writes.
    fn crafted_delta(
        old_n: u64,
        new_n: u64,
        body: impl FnOnce(&mut BitWriter<'_, Vec<u8>>) -> io::Result<()>,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, old_n).unwrap();
        put_varint(&mut out, new_n).unwrap();
        let mut bits = BitWriter::new(&mut out);
        body(&mut bits).unwrap();
        bits.finish().unwrap();
        out
    }

    fn malformed(got: Result<GraphDelta, WireError>, what: &str) {
        match got {
            Err(WireError::Malformed(msg)) => assert_eq!(msg, what),
            other => panic!("expected {what}, got {other:?}"),
        }
    }

    #[test]
    fn malformed_deltas_rejected() {
        let lists = |ins: &[(u32, u32)], del: &[(u32, u32)]| {
            let (ins, del) = (ins.to_vec(), del.to_vec());
            move |w: &mut BitWriter<'_, Vec<u8>>| {
                put_edge_rows(w, &ins)?;
                put_edge_rows(w, &del)
            }
        };
        // The helper itself is pinned by a well-formed twin.
        let ok = delta_from_bytes(&crafted_delta(4, 5, lists(&[(0, 4), (2, 1)], &[(1, 3)])));
        assert_eq!(ok.unwrap().inserted(), &[(0, 4), (2, 1)]);

        malformed(delta_from_bytes(&crafted_delta(4, 2, lists(&[], &[]))), "delta vertex counts");
        malformed(
            delta_from_bytes(&crafted_delta(4, 4, lists(&[(0, 1)], &[(0, 1)]))),
            "edge both inserted and deleted",
        );
        malformed(
            delta_from_bytes(&crafted_delta(4, 4, lists(&[(2, 2)], &[]))),
            "delta edge is a self-loop",
        );
        // Deleted endpoints predate the delta.
        malformed(
            delta_from_bytes(&crafted_delta(4, 5, lists(&[], &[(0, 4)]))),
            "edge endpoint out of range",
        );
        malformed(
            delta_from_bytes(&crafted_delta(4, 5, lists(&[], &[(4, 0)]))),
            "delta source out of range",
        );
        // Two rows of source 1: sorted pairs, but a second form of the list.
        let twice = |w: &mut BitWriter<'_, Vec<u8>>| {
            w.gamma(2)?;
            for gap in [1, 0] {
                w.gamma(gap)?;
                put_row(w, &[2 + gap])?;
            }
            w.gamma(0)
        };
        malformed(delta_from_bytes(&crafted_delta(4, 4, twice)), "delta source gap of 0");
        let empty_row = |w: &mut BitWriter<'_, Vec<u8>>| {
            w.gamma(1)?;
            w.gamma(1)?;
            put_row(w, &[])?;
            w.gamma(0)
        };
        malformed(delta_from_bytes(&crafted_delta(4, 4, empty_row)), "empty delta row");
        malformed(
            delta_from_bytes(&crafted_delta(4, 4, |w| w.gamma(5))),
            "more delta rows than vertices",
        );
    }

    #[test]
    fn corrupt_length_prefix_is_truncation_not_alloc() {
        // A row count and a row length each as large as a 2^31-vertex delta
        // allows, with nothing behind them: both read to the end of the
        // bytes, nothing is reserved by the declared value.
        let n = 1 << 31;
        let rows = crafted_delta(n, n, |w| w.gamma(1 << 30));
        assert!(matches!(delta_from_bytes(&rows), Err(WireError::Truncated)));
        let row = crafted_delta(n, n, |w| {
            w.gamma(1)?;
            w.gamma(7)?;
            w.gamma(1 << 30)
        });
        assert!(matches!(delta_from_bytes(&row), Err(WireError::Truncated)));
    }

    /// `row` alone in a bit section.
    fn row_bytes(row: &[VertexId]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut bits = BitWriter::new(&mut out);
        put_row(&mut bits, row).unwrap();
        bits.finish().unwrap();
        out
    }

    fn read_row_full(bytes: &[u8], n: u32) -> Result<Vec<VertexId>, WireError> {
        let mut r = Reader::new(bytes);
        let mut bits = BitReader::new(&mut r);
        let mut row = Vec::new();
        read_row(&mut bits, n, n, &mut row)?;
        bits.finish()?;
        r.finish()?;
        Ok(row)
    }

    #[test]
    fn rows_take_only_the_derived_rice_parameter_and_zero_padding() {
        let row = [3u32, 9, 10, 40];
        let bytes = row_bytes(&row);
        assert_eq!(read_row_full(&bytes, 41).unwrap(), row);
        // Coded values 3, 5, 0, 29: mean 9, so k = 3. Every other k is a
        // second spelling of the same row and is refused.
        for k in (0..32).filter(|&k| k != 3) {
            let mut out = Vec::new();
            let mut bits = BitWriter::new(&mut out);
            bits.gamma(4).unwrap();
            bits.bits(k, RICE_PARAMETER_BITS).unwrap();
            for x in [3, 5, 0, 29] {
                bits.rice(x, k as u32).unwrap();
            }
            bits.finish().unwrap();
            match read_row_full(&out, 41) {
                Err(WireError::Malformed(what)) => {
                    assert_eq!(what, "rice parameter is not the one the row derives")
                }
                other => panic!("k = {k}: expected Malformed, got {other:?}"),
            }
        }
        // Set padding bits: the same row, not the same bytes.
        let pad = (bytes.len() * 8) as u32 - bit_len(&row);
        assert!(pad > 0, "the test row must leave padding");
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() |= 1 << 7;
        assert!(matches!(
            read_row_full(&bad, 41),
            Err(WireError::Malformed("padding bits are not zero"))
        ));
        // An id at or past n, and a unary run past any id below n.
        assert!(matches!(read_row_full(&bytes, 40), Err(WireError::Malformed(_))));
        let mut out = Vec::new();
        let mut bits = BitWriter::new(&mut out);
        bits.gamma(1).unwrap();
        bits.bits(0, RICE_PARAMETER_BITS).unwrap();
        (0..40).try_for_each(|_| bits.bits(0, 32)).unwrap();
        bits.finish().unwrap();
        assert!(matches!(
            read_row_full(&out, 1000),
            Err(WireError::Malformed("edge endpoint out of range"))
        ));
    }

    /// Bits `put_row` spends on `row` (before padding).
    fn bit_len(row: &[VertexId]) -> u32 {
        let gamma = |x: u32| 2 * (x as u64 + 1).ilog2() + 1;
        if row.is_empty() {
            return gamma(0);
        }
        let coded: Vec<u32> = row
            .iter()
            .enumerate()
            .map(|(i, &v)| if i == 0 { v } else { v - row[i - 1] - 1 })
            .collect();
        let k = rice_parameter(coded.iter().map(|&x| x as u64).sum(), coded.len());
        gamma(row.len() as u32)
            + RICE_PARAMETER_BITS
            + coded.iter().map(|&x| (x >> k) + 1 + k).sum::<u32>()
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A random base graph plus a random raw event stream against it.
        /// Vertex ids run past the base count so streams exercise growth;
        /// kind 0 = insert, 1 = delete (of possibly-absent edges — the
        /// cleaner drops those, which is part of what's under test).
        fn build(n: usize, edges: &[(u32, u32)], raw: &[(u32, u32, u8)]) -> GraphDelta {
            let mut b = GraphBuilder::new(n);
            b.add_edges(edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)));
            let g = b.build();
            let events: Vec<EdgeEvent> = raw
                .iter()
                .enumerate()
                .map(|(t, &(src, dst, k))| EdgeEvent {
                    src,
                    dst,
                    timestamp_ms: t as u64,
                    kind: if k == 0 { EventKind::Insert } else { EventKind::Delete },
                })
                .collect();
            GraphDelta::from_events(&g, &events)
        }

        /// A duplicate-free graph over `n` vertices (self-loops kept);
        /// `hub`, when given, is adjacent to every vertex — a max-degree row.
        fn simple_graph(n: usize, edges: &[(u32, u32)], hub: Option<u32>) -> Graph {
            let n32 = n as u32;
            let mut edges: Vec<_> = edges.iter().map(|&(u, v)| (u % n32, v % n32)).collect();
            if let Some(h) = hub {
                edges.extend((0..n32).map(|v| (h % n32, v)));
            }
            edges.sort_unstable();
            edges.dedup();
            Graph::from_edges(n, &edges)
        }

        /// A strictly increasing row of ids below `n`: `keep` picks them
        /// from a random subset, `shape` forces the empty row, a single id,
        /// every id, or one that ends at `n − 1`.
        fn row_of(n: u32, keep: &[bool], shape: u8) -> Vec<VertexId> {
            match shape {
                0 => Vec::new(),
                1 => vec![n / 2],
                2 => (0..n).collect(),
                _ => (0..n).filter(|&v| keep[v as usize] || v == n - 1).collect(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// encode → decode ≡ identity for the net-effect cleaned form
            /// of arbitrary insert/delete streams, including streams that
            /// net out to the empty delta.
            #[test]
            fn delta_wire_round_trip(
                n in 2usize..40,
                edges in vec((0u32..64, 0u32..64), 0..80),
                raw in vec((0u32..56, 0u32..56, 0u8..2), 0..120),
            ) {
                let d = build(n, &edges, &raw);
                let restored = delta_from_bytes(&delta_to_bytes(&d)).unwrap();
                prop_assert_eq!(&d, &restored);
                // Encoding the decoded delta is byte-identical too: the
                // derived fields (touched, degree changes) never travel,
                // so one round trip is a fixed point.
                prop_assert_eq!(delta_to_bytes(&d), delta_to_bytes(&restored));
            }

            /// Graph encode → decode ≡ identity for arbitrary simple
            /// graphs (self-loops, empty rows and a full row included),
            /// and re-encoding the decoded graph is a byte fixed point.
            #[test]
            fn graph_wire_round_trip(
                n in 1usize..40,
                edges in vec((0u32..64, 0u32..64), 0..120),
                hub in 0u32..64,
            ) {
                let g = simple_graph(n, &edges, Some(hub));
                let out = graph_bytes(&g);
                let restored = decode_full(&out).unwrap();
                prop_assert_eq!(&g, &restored);
                prop_assert_eq!(out, graph_bytes(&restored));
            }

            /// Every truncation of a random graph blob errors instead of
            /// decoding or panicking.
            #[test]
            fn graph_wire_truncations_all_error(
                n in 1usize..16,
                edges in vec((0u32..16, 0u32..16), 0..24),
            ) {
                let bytes = graph_bytes(&simple_graph(n, &edges, None));
                for len in 0..bytes.len() {
                    prop_assert!(decode_full(&bytes[..len]).is_err(), "len {} decoded", len);
                }
            }

            /// Every truncation of a random delta's encoding errors
            /// instead of decoding or panicking.
            #[test]
            fn delta_wire_truncations_all_error(
                n in 2usize..24,
                edges in vec((0u32..32, 0u32..32), 0..30),
                raw in vec((0u32..28, 0u32..28, 0u8..2), 1..40),
            ) {
                let bytes = delta_to_bytes(&build(n, &edges, &raw));
                for len in 0..bytes.len() {
                    prop_assert!(delta_from_bytes(&bytes[..len]).is_err(), "len {} decoded", len);
                }
            }

            /// A row — empty, one id, every id, or a random subset ending
            /// at n − 1, over n up to 2^32 − 2 — reads back as itself,
            /// re-encodes to the same bytes, and costs the bits its codes
            /// add up to plus under a byte of padding.
            #[test]
            fn row_wire_round_trip(
                n in 1u32..600,
                keep in vec(0u8..2, 300..301),
                shape in 0u8..4,
            ) {
                // Half the cases sit at the top of the id space.
                let n = if n < 300 { n } else { u32::MAX - 2 - (n - 300) };
                let keep: Vec<bool> = keep.iter().map(|&b| b == 1).collect();
                // Past 300 ids, the same shapes over the top 300.
                let top = n.saturating_sub(300);
                let row: Vec<u32> =
                    row_of(n - top, &keep, shape).into_iter().map(|v| top + v).collect();
                let bytes = row_bytes(&row);
                prop_assert_eq!(bytes.len(), bit_len(&row).div_ceil(8) as usize);
                let back = read_row_full(&bytes, n).unwrap();
                prop_assert_eq!(&back, &row);
                prop_assert_eq!(row_bytes(&back), bytes);
            }

            /// Fixed-width fields of every width 0–32, mixed with gamma and
            /// Rice codes, read back in order and re-encode identically;
            /// every truncation errors.
            #[test]
            fn bit_fields_round_trip(
                fields in vec((0u32..40, 0u64..u64::MAX, 0u8..3, 0u32..32), 0..64),
            ) {
                // Widths past 32 stand for the edges 0, 31 and 32.
                let fields = fields.into_iter().map(|(w, v, kind, k)| {
                    (if w > 32 { [0, 31, 32][w as usize % 3] } else { w }, v, kind, k)
                });
                // (width, value, kind, k): kind 0 a `width`-bit field, 1 a
                // gamma code of any u32, 2 a Rice code whose unary part is
                // under 256 bits.
                let fields: Vec<(u32, u64, u8, u32)> = fields
                    .map(|(w, v, kind, k)| match kind {
                        0 => (w, v & ((1 << w) - 1), kind, k),
                        1 => (w, (v as u32 >> (w % 32)) as u64, kind, k),
                        _ => (w, v & ((1 << (k + 8).min(32)) - 1), kind, k),
                    })
                    .collect();
                let encode = |fields: &[(u32, u64, u8, u32)]| {
                    let mut out = Vec::new();
                    let mut bits = BitWriter::new(&mut out);
                    for &(w, v, kind, k) in fields {
                        match kind {
                            0 => bits.bits(v, w),
                            1 => bits.gamma(v as u32),
                            _ => bits.rice(v as u32, k),
                        }
                        .unwrap();
                    }
                    bits.finish().unwrap();
                    out
                };
                let decode = |bytes: &[u8]| -> Result<Vec<(u32, u64, u8, u32)>, WireError> {
                    let mut r = Reader::new(bytes);
                    let mut bits = BitReader::new(&mut r);
                    let mut back = Vec::new();
                    for &(w, _, kind, k) in &fields {
                        let v = match kind {
                            0 => bits.bits(w)?,
                            1 => bits.gamma(u32::MAX, "gamma")? as u64,
                            _ => bits.rice(k, u32::MAX, "rice")? as u64,
                        };
                        back.push((w, v, kind, k));
                    }
                    bits.finish()?;
                    r.finish()?;
                    Ok(back)
                };
                let bytes = encode(&fields);
                let back = decode(&bytes).unwrap();
                prop_assert_eq!(&back, &fields);
                prop_assert_eq!(encode(&back), bytes.clone());
                for len in 0..bytes.len() {
                    prop_assert!(decode(&bytes[..len]).is_err(), "len {} decoded", len);
                }
            }

            /// DC-id planes at M ∈ {1, 2, 8, 64} take ⌈log2 M⌉ bits a
            /// vertex, read back, re-encode identically, and refuse an id
            /// of M or more.
            #[test]
            fn dcs_wire_round_trip(
                m_index in 0usize..4,
                raw in vec(0u8..=255, 0..200),
            ) {
                let (m, width) = [(1usize, 0usize), (2, 1), (8, 3), (64, 6)][m_index];
                let dcs: Vec<DcId> = raw.iter().map(|&d| d % m as u8).collect();
                let mut bytes = Vec::new();
                put_dcs(&mut bytes, &dcs, m).unwrap();
                prop_assert_eq!(bytes.len(), (dcs.len() * width).div_ceil(8));
                let mut r = Reader::new(&bytes);
                let back = read_dcs(&mut r, dcs.len(), m, "dc").unwrap();
                r.finish().unwrap();
                prop_assert_eq!(&back, &dcs);
                let mut again = Vec::new();
                put_dcs(&mut again, &back, m).unwrap();
                prop_assert_eq!(again, bytes);
                if m > 2 {
                    // One fewer DC than the plane was written for, at the
                    // same width: the top id alone is refused.
                    let top = dcs.iter().position(|&d| d as usize == m - 1);
                    let got = read_dcs(&mut Reader::new(&bytes), dcs.len(), m - 1, "dc");
                    prop_assert_eq!(top.is_some(), got.is_err());
                }
            }
        }

        #[test]
        fn empty_stream_is_the_empty_delta() {
            let d = build(4, &[(0, 1)], &[]);
            assert!(d.is_empty());
            assert_eq!(delta_from_bytes(&delta_to_bytes(&d)).unwrap(), d);
        }
    }
}
