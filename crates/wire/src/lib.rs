//! # odp-wire — network data representation and marshalling
//!
//! §5.1 of *The Challenge of ODP*: *"From a description of the signatures of
//! the operations in an interface, a compiler can automatically generate
//! code to marshal data from the local representation format to a network
//! format and vice versa."* This crate is that network format and the
//! marshalling engine, written by hand because a portable, self-describing
//! representation is part of the paper's contribution (access transparency
//! must "mask any differences in representation").
//!
//! * [`value`] — the dynamic [`Value`] model: every argument or result of an
//!   ODP invocation is a `Value`. Constant-state ADTs (integers, strings,
//!   records of them…) are carried **by copy**, the optimization §4.5 of the
//!   paper justifies ("objects which have constant state can be copied
//!   without breaking computational semantics"); mutable ADTs are carried as
//!   **interface references** ([`InterfaceRef`]).
//! * [`ifref`] — interface references: the distribution-transparent
//!   "pointers" of the computational model, carrying identity, a location
//!   hint with an epoch, the full structural signature, the protocols the
//!   interface speaks, and an optional relocator and group (§5.4).
//! * [`encode`] / [`decode`] — a compact, self-describing, byte-order-
//!   independent binary encoding (LEB128 varints, length-prefixed strings)
//!   with hardened decoding: depth limits and length sanity checks so a
//!   malformed or hostile peer cannot crash a capsule.
//! * [`typecheck`] — runtime checking of values against
//!   [`TypeSpec`](odp_types::TypeSpec)s, the dynamic half of the signature
//!   type system.
//! * [`pool`] — the encode-buffer pool behind the zero-copy hot path:
//!   [`marshal_pooled`] writes into a recycled [`PooledBuf`] sized by
//!   running the same encoder into a [`ByteCount`] first (see
//!   [`payload_len`]), and [`unmarshal_frame`] decodes string
//!   and blob payloads as refcounted slices of the arrival frame
//!   ([`value::WireStr`]) instead of copying.
//!
//! The encoding is versioned by a leading format byte so that "the new and
//! the old components will be required to interwork" (§2) across upgrades.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod decode;
pub mod encode;
pub mod ifref;
pub mod overload;
pub mod pool;
pub mod trace;
pub mod typecheck;
pub mod value;

pub use decode::{decode_interface_type, decode_value, DecodeError};
pub use encode::{encode_interface_type, encode_value, encoded_len, ByteCount, EncodeBuf};
pub use ifref::InterfaceRef;
pub use overload::CallPriority;
pub use pool::PooledBuf;
pub use typecheck::{check_value, TypeCheckError};
pub use value::{Value, WireStr};

/// Current wire format version byte. Decoders accept only versions they
/// know; encoders always emit the latest.
pub const WIRE_VERSION: u8 = 1;

/// Exact encoded size of a full invocation payload, including the
/// version byte and count prefix: the marshaller run into a
/// [`ByteCount`]. [`marshal`] and [`marshal_pooled`] size their buffers
/// with this, so the steady-state encode path never reallocates.
#[must_use]
pub fn payload_len(values: &[Value]) -> usize {
    ByteCount::measure(|count| marshal_into(count, values))
}

/// Writes an invocation payload: version byte, value count, values.
fn marshal_into<B: EncodeBuf + ?Sized>(buf: &mut B, values: &[Value]) {
    buf.push_u8(WIRE_VERSION);
    encode::put_varint(buf, values.len() as u64);
    for v in values {
        encode_value(buf, v);
    }
}

/// Marshals a full argument/result vector (one invocation payload) to bytes,
/// prefixed with the wire version.
#[must_use]
pub fn marshal(values: &[Value]) -> bytes::Bytes {
    let mut buf = bytes::BytesMut::with_capacity(payload_len(values));
    marshal_into(&mut buf, values);
    buf.freeze()
}

/// Marshals an invocation payload into a recycled [`PooledBuf`] sized by
/// [`payload_len`]: the steady-state encode path costs zero heap
/// allocations.
#[must_use]
pub fn marshal_pooled(values: &[Value]) -> PooledBuf {
    let mut buf = PooledBuf::acquire(payload_len(values));
    marshal_into(&mut buf, values);
    buf
}

fn unmarshal_cursor(mut cursor: decode::Cursor<'_>) -> Result<Vec<Value>, DecodeError> {
    let version = cursor.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let count = cursor.varint()?;
    let count = usize::try_from(count).map_err(|_| DecodeError::LengthOverflow(count))?;
    cursor.check_claimed_len(count)?;
    let mut out = Vec::with_capacity(count.min(decode::MAX_PREALLOC));
    for _ in 0..count {
        out.push(decode_value(&mut cursor, 0)?);
    }
    cursor.finish()?;
    Ok(out)
}

/// Unmarshals an invocation payload produced by [`marshal`], copying
/// string and blob payloads into owned storage.
///
/// # Errors
///
/// Returns a [`DecodeError`] on version mismatch, truncation, unknown tags,
/// excessive nesting or trailing garbage.
pub fn unmarshal(bytes: &[u8]) -> Result<Vec<Value>, DecodeError> {
    unmarshal_cursor(decode::Cursor::new(bytes))
}

/// Unmarshals an invocation payload *zero-copy*: string and blob values
/// in the result are refcounted slices of `frame` rather than copies.
/// Servants that retain values past the invocation should call
/// [`Value::into_owned`] on them; everything consumed in place stays
/// borrowed for free.
///
/// # Errors
///
/// As [`unmarshal`].
pub fn unmarshal_frame(frame: &bytes::Bytes) -> Result<Vec<Value>, DecodeError> {
    unmarshal_cursor(decode::Cursor::for_frame(frame))
}
