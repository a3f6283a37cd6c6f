//! The fixed-size journal codec.
//!
//! [`Snap`] is a flat, versionless little-endian encoding for the few
//! value types whose bytes reach disk: the sweep journal writes each
//! completed job's `MeasuredRun` (with its CPI breakdown) through it, and
//! the benchmark's results digest hashes the same bytes. Only fixed-width
//! scalars implement it, so every encoded record has one size and one
//! layout, and a journal written by one build is read back field for field
//! by another.
//!
//! The format has no headers, tags or self-description; the journal frames
//! each payload with its own length and checksum (see `rnuca_sim::journal`).

/// A reader over an encoded buffer.
///
/// Tracks a cursor into the byte slice; every decode consumes exactly the
/// bytes its encode produced. Running past the end panics, so callers
/// reading untrusted bytes check lengths before decoding.
#[derive(Debug)]
pub struct SnapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos + n;
        assert!(end <= self.bytes.len(), "snapshot buffer underrun");
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        out
    }

    /// Decodes one value of type `T` at the cursor.
    pub fn get<T: Snap>(&mut self) -> T {
        T::decode(self)
    }
}

/// Byte-exact fixed-size encoding for one type: `decode(encode(x)) == x`
/// field for field.
pub trait Snap: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value back from the cursor of `r`.
    fn decode(r: &mut SnapReader<'_>) -> Self;
}

macro_rules! impl_snap_int {
    ($($t:ty),*) => {$(
        impl Snap for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn decode(r: &mut SnapReader<'_>) -> Self {
                let bytes = r.take(std::mem::size_of::<$t>());
                <$t>::from_le_bytes(bytes.try_into().expect("sized take"))
            }
        }
    )*};
}

impl_snap_int!(u8, u32, u64);

impl Snap for f64 {
    /// Encoded via [`f64::to_bits`]: the decode is bit-identical, NaN
    /// payloads and signed zeros included.
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }

    fn decode(r: &mut SnapReader<'_>) -> Self {
        f64::from_bits(u64::decode(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(value: T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        assert_eq!(buf.len(), std::mem::size_of::<T>(), "fixed-size encoding");
        let mut r = SnapReader::new(&buf);
        assert_eq!(T::decode(&mut r), value);
        assert_eq!(r.remaining(), 0, "decode must consume the whole encoding");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX - 3);
        roundtrip(1.25f64);
        roundtrip(-0.0f64);
    }

    #[test]
    fn f64_is_bit_exact() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        nan.encode(&mut buf);
        let decoded = f64::decode(&mut SnapReader::new(&buf));
        assert_eq!(decoded.to_bits(), nan.to_bits());
    }

    #[test]
    #[should_panic(expected = "snapshot buffer underrun")]
    fn underrun_panics() {
        let mut r = SnapReader::new(&[1, 2]);
        let _ = u64::decode(&mut r);
    }
}
