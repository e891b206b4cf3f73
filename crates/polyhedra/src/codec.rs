//! Deterministic, versioned byte codecs: the one encoding of stage
//! artifacts and of the polyhedral memo caches.
//!
//! The persistent artifact store (the `dmc-store` crate) keeps compilation-stage
//! outputs on disk, keyed by the same structural fingerprints the
//! in-memory session store uses. That only works if serialization is a
//! *pure function of the value*: two equal artifacts must encode to the
//! same bytes on every host, every run, every thread count — the store
//! re-fingerprints payloads on load and treats any mismatch as
//! corruption. The memo caches ([`crate::cache`]) write their keys and
//! values with the same [`Enc`] and read the values back with the same
//! [`Dec`], so a constraint row has one layout wherever it is stored. The
//! discipline enforced here:
//!
//! - **Fixed field order.** Every [`Codec`] impl writes struct fields in
//!   declaration order and enum variants as a `u8` discriminant followed
//!   by the payload. No maps are serialized in iteration order unless
//!   the container itself is ordered.
//! - **Length-prefixed sequences.** Every `Vec`/`String` starts with its
//!   `u64` element/byte count, so truncation is always detectable (a
//!   short payload fails with [`CodecError::Truncated`], never decodes
//!   to a shorter value).
//! - **Varint integers.** `u64`/`usize` (every length prefix included)
//!   encode as unsigned LEB128: seven bits per byte, low group first, the
//!   top bit set on every byte but the last. `i128` zigzags first
//!   (0, -1, 1, -2, … → 0, 1, 2, 3, …), so a small coefficient of either
//!   sign takes one byte. `f64` keeps its 8 little-endian IEEE bytes
//!   (`to_bits`), so `-0.0` and NaN payloads round-trip bit-exactly; `u8`
//!   and `bool` are one byte.
//! - **Sparse constraint rows.** A row lists its non-zero coefficients
//!   only, as `(dimension + 2, coefficient)` pairs in increasing
//!   dimension order, then a tag (0 or 1, below every `dimension + 2`, so
//!   it ends the list; a constraint's tag is `is_eq`), then the constant.
//!   A [`Polyhedron`] is its space, `rows << 1 | contradiction`, and its
//!   rows; a standalone [`LinExpr`] is its length and one tag-0 row.
//! - **Canonical decoding.** Each value has exactly one accepted
//!   encoding: a varint with a redundant zero final byte (overlong), or
//!   one that runs past its type's width (more than 10 bytes or a value
//!   above `u64::MAX` for `u64`, a 19th byte above 3 for `i128`), is
//!   [`CodecError::Invalid`]; one cut short is [`CodecError::Truncated`].
//!   So is a row whose dimension is out of range or not above the one
//!   before it, or whose coefficient is zero. So a payload that decodes
//!   re-encodes to exactly its own bytes.
//! - **Schema-tagged payloads.** The store layer prepends a codec
//!   version and stage tag to every payload (see `dmc-core`'s artifact
//!   module); a version bump invalidates every cached artifact rather
//!   than risking a silent misparse.
//!
//! Decoding is total: every error path returns [`CodecError`], never
//! panics, because the input may be a corrupted or truncated disk file.

use crate::constraint::Constraint;
use crate::linexpr::LinExpr;
use crate::polyhedron::Polyhedron;
use crate::space::{Dim, DimKind, Space};

/// Why a payload failed to decode. All variants are misses from the
/// store's point of view — a corrupt artifact is recomputed, never
/// trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A tag, length or reference was out of range for the schema.
    Invalid(&'static str),
    /// The value decoded but bytes remained — the payload cannot have
    /// been produced by `encode` for this type.
    Trailing(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "payload truncated: needed {need} byte(s), had {have}")
            }
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
            CodecError::Trailing(n) => write!(f, "{n} trailing byte(s) after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A byte-stream encoder. Append-only; the writer discipline (field
/// order, length prefixes) lives in the [`Codec`] impls.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Unsigned LEB128: seven bits per byte, low group first.
    fn varint(&mut self, mut v: u128) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A `u64` as unsigned LEB128 (1–10 bytes).
    pub fn u64(&mut self, v: u64) {
        self.varint(u128::from(v));
    }

    /// A `usize`, as `u64` (the codec is host-width-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `i128` as zigzag LEB128 (1–19 bytes).
    pub fn i128(&mut self, v: i128) {
        self.varint(((v << 1) ^ (v >> 127)) as u128);
    }

    /// A bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// An `f64` as its IEEE-754 bit pattern — bit-exact round-trips,
    /// including NaN payloads and signed zero.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// A UTF-8 string: `u64` byte length, then the bytes.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// One constraint row: `e`'s non-zero `(dimension + 2, coefficient)`
    /// pairs in increasing dimension order, `tag`, then the constant.
    pub(crate) fn row(&mut self, e: &LinExpr, tag: bool) {
        for (d, &a) in e.coeffs().iter().enumerate() {
            if a != 0 {
                self.usize(d + 2);
                self.i128(a);
            }
        }
        self.bool(tag);
        self.i128(e.constant_term());
    }

    /// A constraint list: `rows << 1 | contradiction`, then the rows.
    pub(crate) fn rows(&mut self, rows: &[Constraint], contradiction: bool) {
        self.usize(rows.len() << 1 | usize::from(contradiction));
        for c in rows {
            self.row(c.expr(), c.is_eq());
        }
    }

    /// The bytes written so far.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends bytes another encoder wrote.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Forgets what was written, keeping the buffer for the next value.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

/// The widest standalone [`LinExpr`] a payload may declare. Its sparse
/// row costs no byte per dimension, so the payload's length cannot bound
/// what decoding it allocates; this does (1 MiB of coefficients). A
/// polyhedron's rows need no such cap: their width is their decoded
/// space's, which pays bytes for every dimension.
const MAX_EXPR_DIMS: usize = 1 << 16;

/// A byte-stream decoder over a borrowed payload. Every read is
/// bounds-checked and returns [`CodecError`] on under- or over-run.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the payload is exhausted.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A canonical unsigned LEB128 of at most `BITS` bits: at most
    /// `ceil(BITS / 7)` bytes, the last of which carries only the bits
    /// left over, and no zero final byte after the first. A one-byte
    /// value, most of what an artifact holds, returns without the loop.
    #[inline]
    fn varint<const BITS: u32>(&mut self) -> Result<u128, CodecError> {
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u128::from(b))
            }
            _ => self.varint_long::<BITS>(),
        }
    }

    #[inline(never)]
    fn varint_long<const BITS: u32>(&mut self) -> Result<u128, CodecError> {
        let last = (BITS as usize).div_ceil(7) - 1;
        let spare = BITS - 7 * last as u32;
        let rest = &self.buf[self.pos..];
        let mut v = 0u128;
        for (i, &b) in rest.iter().take(last + 1).enumerate() {
            if i == last && u32::from(b) >> spare != 0 {
                return Err(CodecError::Invalid("varint overflows its type"));
            }
            v |= u128::from(b & 0x7F) << (7 * i);
            if b < 0x80 {
                if b == 0 && i > 0 {
                    return Err(CodecError::Invalid("overlong varint"));
                }
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(CodecError::Truncated {
            need: rest.len() + 1,
            have: rest.len(),
        })
    }

    /// A `u64` from canonical unsigned LEB128.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the varint runs off the end;
    /// [`CodecError::Invalid`] when it is overlong or exceeds `u64::MAX`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(self.varint::<64>()? as u64)
    }

    /// A `usize` encoded as `u64`; rejects values beyond the host width
    /// or beyond the remaining payload when used as a length.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or overflow.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// A sequence length: like [`Dec::usize`], but additionally bounded
    /// by the remaining payload (each element needs ≥ 1 byte), so a
    /// corrupted length cannot trigger a huge allocation.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or an impossible length.
    pub fn seq_len(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        self.fits(n)
    }

    /// `n`, if `n` values of at least one byte each fit what remains.
    fn fits(&self, n: usize) -> Result<usize, CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// An `i128` from canonical zigzag LEB128.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when the varint runs off the end;
    /// [`CodecError::Invalid`] when it is overlong or exceeds 128 bits.
    pub fn i128(&mut self) -> Result<i128, CodecError> {
        let z = self.varint::<128>()?;
        Ok((z >> 1) as i128 ^ -((z & 1) as i128))
    }

    /// A bool byte; anything but 0/1 is invalid.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a non-boolean byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte out of range")),
        }
    }

    /// An `f64` from its 8 little-endian IEEE bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.seq_len()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::Invalid("string is not UTF-8"))
    }

    /// A row written by [`Enc::row`] over `dims` dimensions, and its tag.
    /// Only the canonical row is accepted: every dimension below `dims`
    /// and above the one before it, no zero coefficient.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a non-canonical row.
    pub(crate) fn row(&mut self, dims: usize) -> Result<(LinExpr, bool), CodecError> {
        let mut e = LinExpr::zero(dims);
        let mut next = 0;
        let tag = loop {
            match self.usize()? {
                tag @ 0..=1 => break tag == 1,
                d => {
                    let d = d - 2;
                    if d < next || d >= dims {
                        return Err(CodecError::Invalid("row dimension out of range or order"));
                    }
                    let a = self.i128()?;
                    if a == 0 {
                        return Err(CodecError::Invalid("zero coefficient in a row"));
                    }
                    e.set_coeff(d, a);
                    next = d + 1;
                }
            }
        };
        e.set_constant(self.i128()?);
        Ok((e, tag))
    }

    /// A list written by [`Enc::rows`]: the rows over `dims` dimensions
    /// and the contradiction flag.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, an impossible count or a
    /// non-canonical row.
    pub(crate) fn rows(&mut self, dims: usize) -> Result<(Vec<Constraint>, bool), CodecError> {
        let head = self.usize()?;
        let n = self.fits(head >> 1)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(match self.row(dims)? {
                (e, true) => Constraint::eq(e),
                (e, false) => Constraint::ge(e),
            });
        }
        Ok((rows, head & 1 == 1))
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Trailing`] when bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// A deterministic byte codec: `decode(encode(v)) == v` and
/// `encode(decode(bytes)) == bytes` for every `bytes` produced by
/// `encode`. Implementations must write fields in a fixed order and
/// must not consult any ambient state.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, e: &mut Enc);

    /// Decodes one value, consuming exactly the bytes `encode` wrote.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated, malformed or out-of-range payloads.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value to a standalone byte vector.
pub fn encode_to_vec<T: Codec>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.encode(&mut e);
    e.into_bytes()
}

/// Decodes a standalone byte vector, requiring full consumption.
///
/// # Errors
///
/// [`CodecError`] on any malformation, including trailing bytes.
pub fn decode_from_slice<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Dec::new(bytes);
    let v = T::decode(&mut d)?;
    d.finish()?;
    Ok(v)
}

impl Codec for u64 {
    fn encode(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Codec for usize {
    fn encode(&self, e: &mut Enc) {
        e.usize(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.usize()
    }
}

impl Codec for i128 {
    fn encode(&self, e: &mut Enc) {
        e.i128(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.i128()
    }
}

impl Codec for bool {
    fn encode(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.bool()
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            _ => Err(CodecError::Invalid("Option tag out of range")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

// ---------------------------------------------------------------------------
// Engine types. A polyhedron serializes as its space, then its rows and
// contradiction flag ([`Enc::rows`]); the rows are stored exactly as
// `constraints()` holds them — already normalized and deduplicated — and
// reassembled via `Polyhedron::from_parts`, which trusts them verbatim, so
// the re-encoded bytes are identical and no normalization pass runs on
// load.

impl Codec for DimKind {
    fn encode(&self, e: &mut Enc) {
        e.u8(match self {
            DimKind::Index => 0,
            DimKind::Param => 1,
            DimKind::Proc => 2,
            DimKind::Array => 3,
            DimKind::Aux => 4,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => DimKind::Index,
            1 => DimKind::Param,
            2 => DimKind::Proc,
            3 => DimKind::Array,
            4 => DimKind::Aux,
            _ => return Err(CodecError::Invalid("DimKind tag out of range")),
        })
    }
}

impl Codec for Dim {
    fn encode(&self, e: &mut Enc) {
        e.str(self.name());
        self.kind().encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let name = d.str()?;
        let kind = DimKind::decode(d)?;
        Ok(Dim::new(name, kind))
    }
}

impl Codec for Space {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.len());
        for dim in self.iter() {
            dim.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.seq_len()?;
        let mut dims = Vec::with_capacity(n);
        for _ in 0..n {
            dims.push(Dim::decode(d)?);
        }
        // A space never holds two dimensions of one name; a corrupted
        // payload must surface as an error instead.
        for i in 1..dims.len() {
            if dims[..i].iter().any(|p: &Dim| p.name() == dims[i].name()) {
                return Err(CodecError::Invalid("duplicate dimension name"));
            }
        }
        Ok(Space::from_distinct(dims))
    }
}

impl Codec for LinExpr {
    fn encode(&self, e: &mut Enc) {
        e.usize(self.len());
        e.row(self, false);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.usize()?;
        if n > MAX_EXPR_DIMS {
            return Err(CodecError::Invalid("expression wider than MAX_EXPR_DIMS"));
        }
        match d.row(n)? {
            (e, false) => Ok(e),
            (_, true) => Err(CodecError::Invalid("expression row tagged 1")),
        }
    }
}

impl Codec for Polyhedron {
    fn encode(&self, e: &mut Enc) {
        self.space().encode(e);
        e.rows(self.constraints(), self.is_obviously_empty());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let space = Space::decode(d)?;
        let (cons, contradiction) = d.rows(space.len())?;
        Ok(Polyhedron::from_parts(space, cons, contradiction))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo's dependency-free PRNG (xorshift64*), as in the PR-1
    /// property suites.
    pub struct XorShift(u64);

    impl XorShift {
        pub fn new(seed: u64) -> Self {
            XorShift(seed.max(1))
        }
        pub fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        pub fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
        pub fn i128_small(&mut self) -> i128 {
            self.below(201) as i128 - 100
        }
    }

    fn random_space(rng: &mut XorShift) -> Space {
        let kinds = [
            DimKind::Index,
            DimKind::Param,
            DimKind::Proc,
            DimKind::Array,
            DimKind::Aux,
        ];
        let n = 1 + rng.below(6) as usize;
        Space::from_dims((0..n).map(|i| (format!("d{i}"), kinds[rng.below(5) as usize])))
    }

    fn random_linexpr(rng: &mut XorShift, n: usize) -> LinExpr {
        LinExpr::from_coeffs((0..n).map(|_| rng.i128_small()).collect(), rng.i128_small())
    }

    fn random_poly(rng: &mut XorShift) -> Polyhedron {
        let space = random_space(rng);
        let n = space.len();
        let mut p = Polyhedron::universe(space);
        for _ in 0..rng.below(6) {
            let e = random_linexpr(rng, n);
            let c = if rng.below(2) == 0 {
                Constraint::ge(e)
            } else {
                Constraint::eq(e)
            };
            p.add(c);
        }
        p
    }

    /// encode → decode → re-encode must be the identity on bytes and on
    /// values, for every engine type.
    #[test]
    fn engine_round_trips() {
        let mut rng = XorShift::new(0xDECAF);
        for _ in 0..200 {
            let p = random_poly(&mut rng);
            let bytes = encode_to_vec(&p);
            let back: Polyhedron = decode_from_slice(&bytes).expect("decodes");
            assert_eq!(back, p, "polyhedron value round-trip");
            assert_eq!(encode_to_vec(&back), bytes, "byte-identical re-encode");

            let n = 1 + rng.below(20) as usize;
            let e = random_linexpr(&mut rng, n);
            let bytes = encode_to_vec(&e);
            let back: LinExpr = decode_from_slice(&bytes).expect("decodes");
            assert_eq!(back, e);
            assert_eq!(encode_to_vec(&back), bytes);
        }
    }

    /// A `LinExpr` that spills past the inline buffer (> 12 coeffs) still
    /// round-trips byte-identically — the codec sees coefficients, not
    /// the storage representation.
    #[test]
    fn heap_linexpr_round_trips() {
        let e = LinExpr::from_coeffs((0..40).map(|i| i as i128 - 20).collect(), 7);
        let bytes = encode_to_vec(&e);
        let back: LinExpr = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, e);
        assert_eq!(encode_to_vec(&back), bytes);
    }

    /// Every strict prefix of a valid payload fails to decode — length
    /// prefixes make truncation always detectable.
    #[test]
    fn truncation_always_detected() {
        let mut rng = XorShift::new(0xBEEF);
        let p = random_poly(&mut rng);
        let bytes = encode_to_vec(&p);
        for cut in 0..bytes.len() {
            assert!(
                decode_from_slice::<Polyhedron>(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    /// Trailing garbage after a valid value is rejected.
    #[test]
    fn trailing_bytes_rejected() {
        let e = LinExpr::from_coeffs(vec![1, -2], 3);
        let mut bytes = encode_to_vec(&e);
        bytes.push(0);
        assert_eq!(
            decode_from_slice::<LinExpr>(&bytes),
            Err(CodecError::Trailing(1))
        );
    }

    /// A flipped bit either fails to decode or decodes to a different
    /// value whose re-encoding differs — it can never silently round-trip
    /// back to the original bytes at a different value.
    #[test]
    fn bit_flips_never_confuse_values() {
        let mut rng = XorShift::new(0xF00D);
        for _ in 0..40 {
            let p = random_poly(&mut rng);
            let bytes = encode_to_vec(&p);
            let pos = rng.below(bytes.len() as u64) as usize;
            let bit = 1u8 << rng.below(8);
            let mut flipped = bytes.clone();
            flipped[pos] ^= bit;
            match decode_from_slice::<Polyhedron>(&flipped) {
                Err(_) => {}
                Ok(q) => {
                    // Decoded fine: the value must differ (the flip landed
                    // in a payload field), and re-encoding must reproduce
                    // the flipped bytes, not the original.
                    assert_ne!(q, p, "bit flip produced an equal value");
                    assert_eq!(encode_to_vec(&q), flipped);
                }
            }
        }
    }

    /// Bool and Option tags reject out-of-range bytes.
    #[test]
    fn invalid_tags_rejected() {
        assert!(decode_from_slice::<bool>(&[2]).is_err());
        assert!(decode_from_slice::<Option<bool>>(&[9]).is_err());
        let mut e = Enc::new();
        e.u8(7);
        assert!(decode_from_slice::<DimKind>(&e.into_bytes()).is_err());
    }

    /// Varints round-trip at their byte-count boundaries and at the ends
    /// of their types, in the byte counts LEB128 and zigzag give.
    #[test]
    fn varint_edges_round_trip() {
        for (v, len) in [(0, 1), (1, 1), (63, 1), (64, 1), (127, 1), (128, 2)] {
            let bytes = encode_to_vec(&(v as u64));
            assert_eq!(bytes.len(), len, "u64 {v}");
            assert_eq!(decode_from_slice::<u64>(&bytes), Ok(v as u64));
        }
        let max = encode_to_vec(&u64::MAX);
        assert_eq!(max, [&[0xFF; 9][..], &[0x01]].concat());
        assert_eq!(decode_from_slice::<u64>(&max), Ok(u64::MAX));

        for (v, len) in [
            (0, 1),
            (1, 1),
            (-1, 1),
            (63, 1),
            (-63, 1),
            (64, 2),
            (-64, 1),
            (127, 2),
            (128, 2),
            (i128::MIN, 19),
            (i128::MAX, 19),
        ] {
            let bytes = encode_to_vec(&v);
            assert_eq!(bytes.len(), len, "i128 {v}");
            assert_eq!(decode_from_slice::<i128>(&bytes), Ok(v));
        }
    }

    /// Every value has one accepted encoding: overlong varints and ones
    /// past their type's width are invalid; one whose continuation bit
    /// runs off the end is truncated.
    #[test]
    fn non_canonical_varints_are_rejected() {
        fn invalid<T>(r: Result<T, CodecError>) -> bool {
            matches!(r, Err(CodecError::Invalid(_)))
        }
        assert!(invalid(decode_from_slice::<u64>(&[0x80, 0x00])));
        assert!(invalid(decode_from_slice::<i128>(&[0x80, 0x00])));
        assert!(invalid(decode_from_slice::<u64>(&[0x81, 0x80, 0x00])));
        // 11 bytes for a u64, and 10 bytes whose value exceeds u64::MAX.
        let eleven = [&[0xFF; 10][..], &[0x01]].concat();
        assert!(invalid(decode_from_slice::<u64>(&eleven)));
        let above = [&[0xFF; 9][..], &[0x02]].concat();
        assert!(invalid(decode_from_slice::<u64>(&above)));
        // 20 bytes for an i128, and a 19th byte above 3.
        let twenty = [&[0xFF; 19][..], &[0x01]].concat();
        assert!(invalid(decode_from_slice::<i128>(&twenty)));
        let wide = [&[0xFF; 18][..], &[0x04]].concat();
        assert!(invalid(decode_from_slice::<i128>(&wide)));

        for cut in [&[0x80][..], &[0xFF, 0xFF], &[0xFF; 9]] {
            assert!(
                matches!(
                    decode_from_slice::<u64>(cut),
                    Err(CodecError::Truncated { .. })
                ),
                "{cut:?}"
            );
        }
        assert!(matches!(
            decode_from_slice::<i128>(&[0xFF; 18]),
            Err(CodecError::Truncated { .. })
        ));
    }

    /// A row has one accepted encoding: a dimension out of range, one not
    /// above the one before it, or a zero coefficient is invalid, and so
    /// is a standalone expression tagged 1 or wider than the cap.
    #[test]
    fn non_canonical_rows_are_rejected() {
        fn invalid<T>(r: Result<T, CodecError>) -> bool {
            matches!(r, Err(CodecError::Invalid(_)))
        }
        // `3 · x1 - x2 + 4 >= 0` over three dimensions, as a standalone
        // expression: length, (1 + 2, 3), (2 + 2, -1), tag, constant.
        let good = [3, 3, 6, 4, 1, 0, 8];
        let e = decode_from_slice::<LinExpr>(&good).expect("canonical");
        assert_eq!(e, LinExpr::from_slice(&[0, 3, -1], 4));
        assert_eq!(encode_to_vec(&e), good);
        for (bad, why) in [
            ([3, 5, 6, 4, 1, 0, 8], "dimension 3 of three"),
            ([3, 4, 6, 3, 1, 0, 8], "dimensions out of order"),
            ([3, 3, 6, 3, 1, 0, 8], "a dimension repeated"),
            ([3, 3, 0, 4, 1, 0, 8], "a zero coefficient"),
            ([3, 3, 6, 4, 1, 1, 8], "tag 1"),
        ] {
            assert!(invalid(decode_from_slice::<LinExpr>(&bad)), "{why}");
        }
        let mut wide = Enc::new();
        wide.usize(MAX_EXPR_DIMS + 1);
        wide.row(&LinExpr::zero(0), false);
        assert!(invalid(decode_from_slice::<LinExpr>(&wide.into_bytes())));
    }

    /// `f64` keeps its 8 IEEE bytes: signed zero and a NaN payload come
    /// back bit for bit.
    #[test]
    fn f64_keeps_its_exact_bits() {
        for bits in [
            (-0.0f64).to_bits(),
            0x7FF8_0000_DEAD_BEEF,
            0xFFF0_0000_0000_0001,
        ] {
            let mut e = Enc::new();
            e.f64(f64::from_bits(bits));
            let bytes = e.into_bytes();
            assert_eq!(bytes, bits.to_le_bytes());
            let mut d = Dec::new(&bytes);
            assert_eq!(d.f64().map(f64::to_bits), Ok(bits));
            assert_eq!(d.finish(), Ok(()));
        }
    }

    /// A corrupted length prefix cannot trigger a huge allocation: it is
    /// bounded by the remaining payload and fails as truncation.
    #[test]
    fn absurd_length_is_truncation() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let err = decode_from_slice::<Vec<u64>>(&e.into_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::Truncated { .. }), "{err:?}");
    }
}
