//! A minimal deterministic byte codec for the RVaaS wire protocol.
//!
//! The workspace has no serialization framework (the build vendors none),
//! so the packets that travel through the simulated data plane are encoded
//! with this small length-prefixed writer/reader pair. Every protocol message implements its
//! own `encode`/`decode` on top of these primitives.

use rvaas_types::{Error, Result};

/// Incremental byte writer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an unsigned LEB128 varint: seven bits per byte, the low
    /// group first, the top bit set on every byte but the last.
    pub(crate) fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// The bytes written so far, for a coder that appends its own bit
    /// stream.
    pub(crate) fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finishes and returns the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential byte reader; every accessor returns a codec error on underrun.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(Error::codec(format!(
                "buffer underrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an unsigned LEB128 varint (see [`ByteWriter::put_varint`]);
    /// one that does not fit a `u64` is an error.
    pub(crate) fn get_varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7f);
            if group >> (64 - shift).min(7) != 0 {
                return Err(Error::codec("varint overflows u64"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::codec("varint overflows u64"))
    }

    /// The unread bytes, for a coder that reads its own bit stream and then
    /// [`skip`](Self::skip)s what it used.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Steps over `n` bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| Error::codec("invalid utf-8 string"))
    }

    /// Reads a u32 element count and validates it against the bytes actually
    /// left in the buffer: a count of `n` is only plausible when at least
    /// `n * min_elem_size` bytes follow. Decoders must call this instead of
    /// `get_u32` before any `Vec::with_capacity(count)` — otherwise a
    /// four-byte prefix in a hostile frame can demand a multi-gigabyte
    /// allocation before the first element read fails.
    pub fn get_count(&mut self, min_elem_size: usize) -> Result<usize> {
        let count = self.get_u32()? as usize;
        let need = count.saturating_mul(min_elem_size.max(1));
        if need > self.remaining() {
            return Err(Error::codec(format!(
                "implausible element count {count}: needs at least {need} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Number of unread bytes.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(1000);
        w.put_u32(70_000);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"payload");
        w.put_str("a string");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 1000);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_bytes().unwrap(), b"payload");
        assert_eq!(r.get_str().unwrap(), "a string");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[0, 0, 0, 10, 1, 2]);
        assert!(r.get_bytes().is_err(), "length prefix larger than buffer");
    }

    #[test]
    fn implausible_counts_are_rejected_before_allocation() {
        // A 4-byte buffer claiming u32::MAX eight-byte elements: get_count
        // must fail instead of letting a decoder reserve 32 GiB.
        let huge = u32::MAX.to_be_bytes();
        let mut r = ByteReader::new(&huge);
        assert!(r.get_count(8).is_err());

        // A plausible count passes and consumes exactly the prefix.
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u64(1);
        w.put_u64(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_count(8).unwrap(), 2);
        assert_eq!(r.get_u64().unwrap(), 1);

        // Zero-size elements never divide by zero.
        let zero = 0u32.to_be_bytes();
        let mut r = ByteReader::new(&zero);
        assert_eq!(r.get_count(0).unwrap(), 0);
    }

    #[test]
    fn varints_roundtrip_and_reject_overflow() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            300,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            assert_eq!(
                bytes.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
        // Bits past the 64th, in the tenth byte or in an eleventh, and a
        // run that stops before its last byte.
        for hostile in [
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02][..],
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
            ][..],
            &[0x80][..],
        ] {
            assert!(
                ByteReader::new(hostile).get_varint().is_err(),
                "{hostile:?}"
            );
        }
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
