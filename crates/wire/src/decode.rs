//! Decoding half of the network data representation.
//!
//! Decoding is *hardened*: an ODP capsule accepts payloads from federated
//! peers it does not administer (§4.2), so a malformed or hostile encoding
//! must never panic, loop, or exhaust memory. Concretely:
//!
//! * every length is checked against the bytes actually remaining before
//!   any allocation sized by it;
//! * nesting depth is bounded by `MAX_DEPTH` (32);
//! * varints are bounded at 10 bytes;
//! * trailing garbage after a complete payload is an error (it usually
//!   indicates a framing bug and would otherwise hide corruption).

use crate::encode::{spec_tag, tag, unzigzag};
use crate::ifref::InterfaceRef;
use crate::value::{Value, WireStr};
use odp_types::{
    GroupId, InterfaceId, InterfaceType, NodeId, OperationKind, OperationSig, OutcomeSig,
    ProtocolId, TypeSpec,
};
use std::fmt;

/// Maximum nesting depth accepted for values, specs and signatures.
const MAX_DEPTH: usize = 32;

/// Cap on speculative pre-allocation from attacker-controlled counts.
pub const MAX_PREALLOC: usize = 1024;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value did.
    Truncated,
    /// Unknown value or spec tag byte.
    UnknownTag(u8),
    /// A varint ran past its 10-byte bound.
    VarintTooLong,
    /// A declared length exceeds the remaining buffer.
    LengthOverflow(u64),
    /// String bytes were not valid UTF-8.
    InvalidUtf8,
    /// Nesting exceeded `MAX_DEPTH` (32).
    TooDeep,
    /// The wire version byte is not supported.
    UnsupportedVersion(u8),
    /// Bytes remained after a complete payload.
    TrailingBytes(usize),
    /// An option marker byte was neither 0 nor 1, or an enum byte was out
    /// of range.
    InvalidMarker(u8),
    /// An interface signature violated a structural invariant (e.g.
    /// duplicate operation names).
    InvalidSignature(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown tag 0x{t:02x}"),
            DecodeError::VarintTooLong => write!(f, "varint longer than 10 bytes"),
            DecodeError::LengthOverflow(n) => write!(f, "declared length {n} exceeds payload"),
            DecodeError::InvalidUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::TooDeep => write!(f, "nesting exceeds {MAX_DEPTH}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            DecodeError::InvalidMarker(b) => write!(f, "invalid marker byte 0x{b:02x}"),
            DecodeError::InvalidSignature(why) => write!(f, "invalid signature: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked read cursor over a byte slice.
///
/// A cursor created with [`Cursor::new`] copies payloads out (owned
/// decode); one created with [`Cursor::for_frame`] additionally knows
/// the refcounted arrival frame the slice belongs to, and decodes
/// string/bytes payloads as zero-copy slices of that frame instead.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    frame: Option<&'a bytes::Bytes>,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            frame: None,
        }
    }

    /// Creates a cursor over a refcounted arrival frame. String and
    /// bytes payloads decode as slices sharing the frame's buffer —
    /// no copy, no allocation.
    #[must_use]
    pub fn for_frame(frame: &'a bytes::Bytes) -> Self {
        Self {
            data: frame,
            pos: 0,
            frame: Some(frame),
        }
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bytes.
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] if fewer than `n` remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        // odp-lint: allow(l1, reason = "remaining() < n returns Truncated on the line above; the slice is in bounds")
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    /// [`DecodeError::VarintTooLong`] or [`DecodeError::Truncated`].
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut result: u64 = 0;
        for shift in 0..10 {
            let byte = self.u8()?;
            result |= u64::from(byte & 0x7f) << (7 * shift);
            if byte & 0x80 == 0 {
                return Ok(result);
            }
        }
        Err(DecodeError::VarintTooLong)
    }

    /// Reads a zigzag signed varint.
    ///
    /// # Errors
    /// As [`Cursor::varint`].
    fn signed(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Reads a length prefix, validating it against the remaining bytes.
    ///
    /// # Errors
    /// [`DecodeError::LengthOverflow`] if the claim exceeds what remains.
    fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let n_usize = usize::try_from(n).map_err(|_| DecodeError::LengthOverflow(n))?;
        if n_usize > self.remaining() {
            return Err(DecodeError::LengthOverflow(n));
        }
        Ok(n_usize)
    }

    /// Validates a claimed *element count* (each element needs ≥1 byte).
    ///
    /// # Errors
    /// [`DecodeError::LengthOverflow`] if more elements are claimed than
    /// bytes remain.
    pub fn check_claimed_len(&self, count: usize) -> Result<(), DecodeError> {
        if count > self.remaining() {
            return Err(DecodeError::LengthOverflow(count as u64));
        }
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// Truncation, overflow or [`DecodeError::InvalidUtf8`].
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Reads a length-prefixed UTF-8 string as a *payload* value:
    /// zero-copy (a slice of the arrival frame) on a frame-backed
    /// cursor, an owned copy otherwise. Either way the bytes are
    /// counted in [`odp_telemetry::WireStats`].
    ///
    /// # Errors
    /// Truncation, overflow or [`DecodeError::InvalidUtf8`].
    fn string_value(&mut self) -> Result<WireStr, DecodeError> {
        let n = self.len_prefix()?;
        let start = self.pos;
        let raw = self.take(n)?;
        if let Some(frame) = self.frame {
            let shared = frame.slice(start..start + n);
            let s = WireStr::from_utf8_shared(shared).map_err(|_| DecodeError::InvalidUtf8)?;
            odp_telemetry::wire_stats().decode_borrowed(n as u64);
            Ok(s)
        } else {
            let s = String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::InvalidUtf8)?;
            odp_telemetry::wire_stats().decode_copied(n as u64);
            Ok(WireStr::from(s))
        }
    }

    /// Reads a length-prefixed blob as a *payload* value: zero-copy on
    /// a frame-backed cursor, an owned copy otherwise.
    ///
    /// # Errors
    /// Truncation or overflow.
    fn bytes_value(&mut self) -> Result<bytes::Bytes, DecodeError> {
        let n = self.len_prefix()?;
        let start = self.pos;
        let raw = self.take(n)?;
        if let Some(frame) = self.frame {
            odp_telemetry::wire_stats().decode_borrowed(n as u64);
            Ok(frame.slice(start..start + n))
        } else {
            odp_telemetry::wire_stats().decode_copied(n as u64);
            Ok(bytes::Bytes::copy_from_slice(raw))
        }
    }

    /// Asserts the input is fully consumed.
    ///
    /// # Errors
    /// [`DecodeError::TrailingBytes`] otherwise.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decodes one value at nesting `depth`.
///
/// # Errors
///
/// Any [`DecodeError`]; see module docs for the hardening rules.
pub fn decode_value(c: &mut Cursor<'_>, depth: usize) -> Result<Value, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    match c.u8()? {
        tag::UNIT => Ok(Value::Unit),
        tag::BOOL => match c.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            b => Err(DecodeError::InvalidMarker(b)),
        },
        tag::INT => Ok(Value::Int(c.signed()?)),
        tag::FLOAT => {
            let bytes = c.take(8)?;
            let mut arr = [0u8; 8];
            arr.copy_from_slice(bytes);
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(arr))))
        }
        tag::STR => Ok(Value::Str(c.string_value()?)),
        tag::BYTES => Ok(Value::Bytes(c.bytes_value()?)),
        tag::SEQ => {
            let count = c.varint()?;
            let count = usize::try_from(count).map_err(|_| DecodeError::LengthOverflow(count))?;
            c.check_claimed_len(count)?;
            let mut items = Vec::with_capacity(count.min(MAX_PREALLOC));
            for _ in 0..count {
                items.push(decode_value(c, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        tag::RECORD => {
            let count = c.varint()?;
            let count = usize::try_from(count).map_err(|_| DecodeError::LengthOverflow(count))?;
            c.check_claimed_len(count)?;
            let mut fields = Vec::with_capacity(count.min(MAX_PREALLOC));
            for _ in 0..count {
                let name = c.string()?;
                let v = decode_value(c, depth + 1)?;
                fields.push((name, v));
            }
            Ok(Value::Record(fields))
        }
        tag::IFREF => Ok(Value::Interface(decode_interface_ref(c, depth + 1)?)),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

/// Decodes an [`InterfaceRef`] body.
///
/// # Errors
///
/// Any [`DecodeError`].
fn decode_interface_ref(c: &mut Cursor<'_>, depth: usize) -> Result<InterfaceRef, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let iface = InterfaceId(c.varint()?);
    let home = NodeId(c.varint()?);
    let epoch = c.varint()?;
    let proto_count = c.varint()?;
    let proto_count =
        usize::try_from(proto_count).map_err(|_| DecodeError::LengthOverflow(proto_count))?;
    c.check_claimed_len(proto_count)?;
    let mut protocols = Vec::with_capacity(proto_count.min(MAX_PREALLOC));
    for _ in 0..proto_count {
        protocols.push(ProtocolId(c.varint()?));
    }
    let relocator = match c.u8()? {
        0 => None,
        1 => Some(NodeId(c.varint()?)),
        b => return Err(DecodeError::InvalidMarker(b)),
    };
    let group = match c.u8()? {
        0 => None,
        1 => Some(GroupId(c.varint()?)),
        b => return Err(DecodeError::InvalidMarker(b)),
    };
    let ty = decode_interface_type_at(c, depth + 1)?;
    Ok(InterfaceRef {
        iface,
        home,
        epoch,
        ty,
        protocols,
        relocator,
        group,
    })
}

/// Decodes an [`InterfaceType`] at depth 0.
///
/// # Errors
///
/// Any [`DecodeError`].
pub fn decode_interface_type(c: &mut Cursor<'_>) -> Result<InterfaceType, DecodeError> {
    decode_interface_type_at(c, 0)
}

fn decode_interface_type_at(
    c: &mut Cursor<'_>,
    depth: usize,
) -> Result<InterfaceType, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    let op_count = c.varint()?;
    let op_count = usize::try_from(op_count).map_err(|_| DecodeError::LengthOverflow(op_count))?;
    c.check_claimed_len(op_count)?;
    let mut ops = Vec::with_capacity(op_count.min(MAX_PREALLOC));
    let mut names = std::collections::HashSet::new();
    for _ in 0..op_count {
        let op = decode_operation(c, depth)?;
        if !names.insert(op.name.clone()) {
            return Err(DecodeError::InvalidSignature(format!(
                "duplicate operation `{}`",
                op.name
            )));
        }
        ops.push(op);
    }
    Ok(InterfaceType::new(ops))
}

fn decode_operation(c: &mut Cursor<'_>, depth: usize) -> Result<OperationSig, DecodeError> {
    let name = c.string()?;
    let kind = match c.u8()? {
        0 => OperationKind::Interrogation,
        1 => OperationKind::Announcement,
        b => return Err(DecodeError::InvalidMarker(b)),
    };
    let param_count = c.varint()?;
    let param_count =
        usize::try_from(param_count).map_err(|_| DecodeError::LengthOverflow(param_count))?;
    c.check_claimed_len(param_count)?;
    let mut params = Vec::with_capacity(param_count.min(MAX_PREALLOC));
    for _ in 0..param_count {
        params.push(decode_type_spec(c, depth + 1)?);
    }
    let out_count = c.varint()?;
    let out_count =
        usize::try_from(out_count).map_err(|_| DecodeError::LengthOverflow(out_count))?;
    c.check_claimed_len(out_count)?;
    let mut outcomes = Vec::with_capacity(out_count.min(MAX_PREALLOC));
    for _ in 0..out_count {
        let oname = c.string()?;
        let res_count = c.varint()?;
        let res_count =
            usize::try_from(res_count).map_err(|_| DecodeError::LengthOverflow(res_count))?;
        c.check_claimed_len(res_count)?;
        let mut results = Vec::with_capacity(res_count.min(MAX_PREALLOC));
        for _ in 0..res_count {
            results.push(decode_type_spec(c, depth + 1)?);
        }
        outcomes.push(OutcomeSig::new(oname, results));
    }
    if kind == OperationKind::Announcement && !outcomes.is_empty() {
        return Err(DecodeError::InvalidSignature(format!(
            "announcement `{name}` declares outcomes"
        )));
    }
    Ok(OperationSig {
        name,
        kind,
        params,
        outcomes,
    })
}

/// Decodes a [`TypeSpec`] at nesting `depth`.
///
/// # Errors
///
/// Any [`DecodeError`].
fn decode_type_spec(c: &mut Cursor<'_>, depth: usize) -> Result<TypeSpec, DecodeError> {
    if depth >= MAX_DEPTH {
        return Err(DecodeError::TooDeep);
    }
    match c.u8()? {
        spec_tag::UNIT => Ok(TypeSpec::Unit),
        spec_tag::BOOL => Ok(TypeSpec::Bool),
        spec_tag::INT => Ok(TypeSpec::Int),
        spec_tag::FLOAT => Ok(TypeSpec::Float),
        spec_tag::STR => Ok(TypeSpec::Str),
        spec_tag::BYTES => Ok(TypeSpec::Bytes),
        spec_tag::SEQ => Ok(TypeSpec::seq(decode_type_spec(c, depth + 1)?)),
        spec_tag::RECORD => {
            let count = c.varint()?;
            let count = usize::try_from(count).map_err(|_| DecodeError::LengthOverflow(count))?;
            c.check_claimed_len(count)?;
            let mut fields = Vec::with_capacity(count.min(MAX_PREALLOC));
            for _ in 0..count {
                let name = c.string()?;
                fields.push((name, decode_type_spec(c, depth + 1)?));
            }
            Ok(TypeSpec::Record(fields))
        }
        spec_tag::INTERFACE => Ok(TypeSpec::interface(decode_interface_type_at(c, depth + 1)?)),
        spec_tag::ANY => Ok(TypeSpec::Any),
        t => Err(DecodeError::UnknownTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_value, put_varint};
    use bytes::BytesMut;

    fn round_trip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, v);
        let mut c = Cursor::new(&buf);
        let out = decode_value(&mut c, 0).expect("decode");
        c.finish().expect("fully consumed");
        out
    }

    #[test]
    fn primitive_round_trips() {
        for v in [
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::str(""),
            Value::str("héllo ✨"),
            Value::bytes(vec![0u8, 255, 7]),
        ] {
            let rt = round_trip(&v);
            match (&v, &rt) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, rt),
            }
        }
    }

    #[test]
    fn nested_round_trips() {
        let v = Value::record([
            ("xs", Value::from(vec![1i64, 2, 3])),
            ("inner", Value::record([("s", Value::str("deep"))])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn truncated_inputs_error() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::str("hello"));
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert!(decode_value(&mut c, 0).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn frame_backed_decode_borrows_payloads() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::str("shared-payload"));
        encode_value(&mut buf, &Value::bytes(vec![9u8; 32]));
        let frame = buf.freeze();
        let mut c = Cursor::for_frame(&frame);
        match decode_value(&mut c, 0).unwrap() {
            Value::Str(s) => {
                assert!(s.is_shared(), "frame decode must alias, not copy");
                assert_eq!(s.as_str(), "shared-payload");
            }
            other => panic!("expected Str, got {other:?}"),
        }
        match decode_value(&mut c, 0).unwrap() {
            Value::Bytes(b) => assert_eq!(&b[..], &[9u8; 32]),
            other => panic!("expected Bytes, got {other:?}"),
        }
        c.finish().unwrap();
    }

    #[test]
    fn unknown_tag_rejected() {
        let data = [0x7f];
        let mut c = Cursor::new(&data);
        assert_eq!(decode_value(&mut c, 0), Err(DecodeError::UnknownTag(0x7f)));
    }

    #[test]
    fn hostile_length_rejected_without_allocation() {
        // Seq claiming u64::MAX elements in a 12-byte buffer.
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[super::tag::SEQ]);
        put_varint(&mut buf, u64::MAX);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            decode_value(&mut c, 0),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn deep_nesting_rejected() {
        // MAX_DEPTH+1 nested single-element seqs.
        let mut buf = BytesMut::new();
        for _ in 0..=MAX_DEPTH {
            buf.extend_from_slice(&[super::tag::SEQ, 1]);
        }
        buf.extend_from_slice(&[super::tag::UNIT]);
        let mut c = Cursor::new(&buf);
        assert_eq!(decode_value(&mut c, 0), Err(DecodeError::TooDeep));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[super::tag::STR, 2, 0xff, 0xfe]);
        let mut c = Cursor::new(&buf);
        assert_eq!(decode_value(&mut c, 0), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn invalid_bool_marker_rejected() {
        let data = [super::tag::BOOL, 2];
        let mut c = Cursor::new(&data);
        assert_eq!(decode_value(&mut c, 0), Err(DecodeError::InvalidMarker(2)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = BytesMut::new();
        encode_value(&mut buf, &Value::Unit);
        buf.extend_from_slice(&[0x00]);
        let mut c = Cursor::new(&buf);
        decode_value(&mut c, 0).unwrap();
        assert_eq!(c.finish(), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn varint_over_ten_bytes_rejected() {
        let data = [0x80u8; 11];
        let mut c = Cursor::new(&data);
        assert_eq!(c.varint(), Err(DecodeError::VarintTooLong));
    }

    #[test]
    fn errors_display() {
        assert!(DecodeError::TooDeep.to_string().contains("nesting"));
        assert!(DecodeError::UnsupportedVersion(9).to_string().contains('9'));
    }
}
