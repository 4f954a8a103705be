//! The framed wire protocol: layout, verbs, codec and frame I/O.
//!
//! # Frame layout
//!
//! ```text
//! ┌────────────────┬────────┬─────────────────────────┐
//! │ body len (u32) │ opcode │ payload (body len − 1)  │
//! │   big-endian   │  (u8)  │                         │
//! └────────────────┴────────┴─────────────────────────┘
//! ```
//!
//! The length prefix counts the body (opcode + payload), not itself.
//! Bodies larger than the server's configured maximum
//! ([`MAX_FRAME_DEFAULT`] by default) are refused with
//! [`ErrorCode::FrameTooLarge`] *without reading the body*, so a hostile
//! length cannot make the server allocate.
//!
//! Scalars inside payloads are fixed-width big-endian; `f64` travels as
//! its IEEE-754 bit pattern. Variable-length fields carry a `u32` count
//! first; every count is validated against the bytes actually remaining
//! in the frame before anything is allocated, so a forged count of four
//! billion costs the decoder nothing. The encoder is checked the same
//! way: a length or index that does not fit the wire format's 32-bit
//! fields is a typed [`EncodeError`], never a silent truncation.
//!
//! Each layout is written once. A private `Wire` trait encodes and
//! decodes by walking the same field list, and a sequence's forged-count
//! guard is its element type's smallest encoding. The `verbs!`,
//! `wire_struct!` and `wire_instruction!` invocations below declare
//! every verb, payload struct and instruction field by field in wire
//! order, so encoder and decoder cannot disagree on that order.
//!
//! # Verbs
//!
//! | opcode | direction | verb |
//! |---|---|---|
//! | `0x01` | → | [`Request::Hello`] — authenticate the connection |
//! | `0x02` | → | [`Request::Submit`] — one or more MVP programs |
//! | `0x03` | → | [`Request::ApOpen`] — compile patterns into a session |
//! | `0x04` | → | [`Request::ApFeed`] — stream a chunk into a session |
//! | `0x05` | → | [`Request::ApFinish`] — end the stream, collect matches |
//! | `0x06` | → | [`Request::ApClose`] — drop the session |
//! | `0x07` | → | [`Request::Usage`] — the tenant's accumulated bill |
//! | `0x08` | → | [`Request::Stats`] — service-wide health and load |
//! | `0x09` | → | [`Request::CorrOpen`] — open a correlation session |
//! | `0x0A` | → | [`Request::CorrFeed`] — stream one event window |
//! | `0x0B` | → | [`Request::CorrFinish`] — collect the correlated set |
//! | `0x0C` | → | [`Request::ApFeedMany`] — one chunk per stream lane |
//! | `0x0D` | → | [`Request::ApFinishMany`] — end every lane's stream |
//! | `0x81`–`0x8D` | ← | the matching success responses |
//! | `0xEE` | ← | [`Response::Error`] with an [`ErrorCode`] |
//!
//! Correlation sessions are closed with the kind-agnostic `ApClose`
//! verb (`0x06`): the session table does not care which workload's
//! state it drops.
//!
//! Each connection is a synchronous request/response stream: the server
//! answers every request frame with exactly one response frame, in
//! order. (Pipelining across *connections* is how the load generator
//! drives overload.)

use crate::{ServeError, SessionId, TenantId};
use core::fmt;
use memcim_ap::ApReport;
use memcim_bits::BitVec;
use memcim_mvp::Instruction;
use memcim_units::{Joules, Seconds};
use std::io::{Read, Write};

/// Default cap on a frame body, and the largest body
/// [`read_frame`] will accept unless told otherwise. Large enough for a
/// burst of wide bitmap programs, small enough that a hostile length
/// prefix cannot balloon server memory.
pub const MAX_FRAME_DEFAULT: usize = 1 << 20;

/// Upper bound on patterns per `ApOpen` — a compile is synchronous
/// work, so the count is capped independently of the frame size.
const MAX_PATTERNS: usize = 1024;

/// Upper bound on stream lanes per multi-stream AP request. Like
/// [`MAX_PATTERNS`], this caps what a hostile frame can make the server
/// allocate and execute in one job.
const MAX_STREAMS: usize = 64;

// --- Opcodes ----------------------------------------------------------

const OP_HELLO: u8 = 0x01;
const OP_SUBMIT: u8 = 0x02;
const OP_AP_OPEN: u8 = 0x03;
const OP_AP_FEED: u8 = 0x04;
const OP_AP_FINISH: u8 = 0x05;
const OP_AP_CLOSE: u8 = 0x06;
const OP_USAGE: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_CORR_OPEN: u8 = 0x09;
const OP_CORR_FEED: u8 = 0x0A;
const OP_CORR_FINISH: u8 = 0x0B;
const OP_AP_FEED_MANY: u8 = 0x0C;
const OP_AP_FINISH_MANY: u8 = 0x0D;

const OP_HELLO_OK: u8 = 0x81;
const OP_MVP_RESULT: u8 = 0x82;
const OP_AP_OPENED: u8 = 0x83;
const OP_AP_FEED_OK: u8 = 0x84;
const OP_AP_MATCHES: u8 = 0x85;
const OP_AP_CLOSED: u8 = 0x86;
const OP_USAGE_REPORT: u8 = 0x87;
const OP_STATS_REPORT: u8 = 0x88;
const OP_CORR_OPENED: u8 = 0x89;
const OP_CORR_FEED_OK: u8 = 0x8A;
const OP_CORR_REPORT: u8 = 0x8B;
const OP_AP_FED_MANY: u8 = 0x8C;
const OP_AP_MATCHES_MANY: u8 = 0x8D;
const OP_ERROR: u8 = 0xEE;

// --- Error taxonomy ---------------------------------------------------

/// Defines [`ErrorCode`] from one table of variants and their wire
/// numbers, which both [`ErrorCode::as_u16`] and [`ErrorCode::from_u16`]
/// read.
macro_rules! error_codes {
    ($(#[$meta:meta])* pub enum ErrorCode { $($(#[$vmeta:meta])* $code:ident = $n:literal,)* }) => {
        $(#[$meta])*
        pub enum ErrorCode {
            $($(#[$vmeta])* $code,)*
        }

        impl ErrorCode {
            /// The code's wire representation.
            pub fn as_u16(self) -> u16 {
                match self {
                    $(ErrorCode::$code => $n,)*
                }
            }

            /// Decodes a wire code; unknown values collapse to
            /// [`ErrorCode::Internal`] so old clients survive new servers.
            pub fn from_u16(raw: u16) -> Self {
                match raw {
                    $($n => ErrorCode::$code,)*
                    _ => ErrorCode::Internal,
                }
            }
        }
    };
}

error_codes! {
    /// Typed failure codes carried by [`Response::Error`] frames.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum ErrorCode {
        /// The frame body could not be decoded (truncated payload, trailing
        /// garbage, invalid UTF-8, nonsense counts).
        BadFrame = 1,
        /// The declared body length exceeds the server's maximum.
        FrameTooLarge = 2,
        /// The opcode is not a known request verb.
        UnknownOpcode = 3,
        /// A request other than `Hello` arrived before authentication.
        Unauthenticated = 10,
        /// `Hello` named an unknown tenant or presented a wrong token.
        BadCredentials = 11,
        /// The connection sent a second `Hello`.
        AlreadyAuthenticated = 12,
        /// Admission control: the tenant's job quota is spent.
        QuotaExceeded = 20,
        /// Admission control: the tenant's token bucket is empty.
        RateLimited = 21,
        /// The bounded queue is at capacity; the submission was refused
        /// *before* it could block the connection (back off and retry).
        OverCapacity = 22,
        /// The service is shutting down.
        ShuttingDown = 30,
        /// A streaming verb referenced a session this tenant does not hold.
        UnknownSession = 31,
        /// The session is busy on another in-flight job.
        SessionBusy = 32,
        /// The session exists but holds a different streaming workload's
        /// state (e.g. an `ApFeed` aimed at a correlation session).
        WrongSessionKind = 38,
        /// Pattern compilation failed in `ApOpen`.
        Compile = 33,
        /// The job reached an engine and failed there.
        Engine = 34,
        /// Every engine has been retired; MVP jobs cannot be placed.
        NoHealthyEngine = 35,
        /// Every replica of one shard is dead; sub-queries touching its
        /// records cannot fail over anywhere (other shards keep serving).
        ShardUnavailable = 36,
        /// Static verification refused a submitted program *before*
        /// admission: the engine would provably reject it at runtime. The
        /// message carries the diagnostic (stable code, instruction index);
        /// nothing was billed and nothing was queued.
        InvalidProgram = 37,
        /// An internal server failure (never the client's fault).
        Internal = 99,
    }
}

impl ErrorCode {
    /// Maps a service-side failure to its wire code.
    pub fn from_serve_error(e: &ServeError) -> Self {
        match e {
            ServeError::QueueFull { .. } => ErrorCode::OverCapacity,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::UnknownSession { .. } => ErrorCode::UnknownSession,
            ServeError::SessionBusy { .. } => ErrorCode::SessionBusy,
            ServeError::WrongSessionKind { .. } => ErrorCode::WrongSessionKind,
            ServeError::Compile { .. } => ErrorCode::Compile,
            ServeError::Mvp(_) | ServeError::Ap(_) => ErrorCode::Engine,
            ServeError::NoHealthyEngine => ErrorCode::NoHealthyEngine,
            ServeError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
            ServeError::InvalidProgram { .. } => ErrorCode::InvalidProgram,
            ServeError::RateLimited { .. } => ErrorCode::RateLimited,
            // A cost-bound refusal is a quota-class answer: the tenant's
            // budget, not the program's validity, is what ran out.
            ServeError::CostBoundExceeded { .. } => ErrorCode::QuotaExceeded,
            ServeError::QuotaExceeded { .. } => ErrorCode::QuotaExceeded,
            ServeError::Unauthenticated => ErrorCode::Unauthenticated,
            ServeError::BadCredentials => ErrorCode::BadCredentials,
            ServeError::Internal { .. } => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Why a frame body failed to decode. Local diagnosis only — on the
/// wire it travels as [`ErrorCode::BadFrame`] / `UnknownOpcode`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the last field of the verb.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The first body byte is not a known opcode (for the direction
    /// being decoded).
    UnknownOpcode(u8),
    /// A field's value is invalid for its type.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The wire code a server answers this decode failure with.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            FrameError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::BadFrame,
        }
    }
}

/// A value that cannot be encoded into a frame: the wire format carries
/// lengths, counts and row indices as `u32`, and this field's value
/// does not fit. Refusing with a typed error beats the silent `as u32`
/// truncation it replaces, which would have framed a *different*
/// payload than the caller asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// Which field overflowed.
    pub field: &'static str,
    /// The value that did not fit.
    pub value: usize,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot encode frame: {} of {} exceeds the wire format's 32-bit fields",
            self.field, self.value
        )
    }
}

impl std::error::Error for EncodeError {}

// --- The codec --------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u32` element count and proves the frame can actually
    /// hold `count` elements of at least `min_bytes` each *before* the
    /// caller allocates — the defense against forged counts.
    fn count(&mut self, min_bytes: usize) -> Result<usize, FrameError> {
        let count = u32::get(self, ())? as usize;
        if count.checked_mul(min_bytes.max(1)).is_none_or(|need| need > self.remaining()) {
            return Err(FrameError::BadPayload("element count exceeds frame"));
        }
        Ok(count)
    }

    fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(FrameError::Trailing { extra }),
        }
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(opcode: u8) -> Self {
        Self { buf: vec![opcode] }
    }

    /// Writes a `usize` into one of the protocol's `u32` fields
    /// (a length prefix, an element count, a row index), checked: a
    /// value that does not fit is a typed [`EncodeError`], not a
    /// truncated frame.
    fn u32_of(&mut self, field: &'static str, value: usize) -> Result<(), EncodeError> {
        let v = u32::try_from(value).map_err(|_| EncodeError { field, value })?;
        v.put(self, ())
    }

    /// Appends one field, builder-style.
    fn with<T: Wire>(mut self, value: &T, spec: T::Spec) -> Result<Self, EncodeError> {
        value.put(&mut self, spec)?;
        Ok(self)
    }
}

/// One type's wire layout, written once: [`put`](Wire::put) and
/// [`get`](Wire::get) are the same field walk in both directions.
trait Wire: Sized {
    /// What a field of this type needs besides its value: the
    /// [`EncodeError`] label of a `u32` length or index, and for a
    /// sequence its count's label, range and element spec. `()` for
    /// fixed-width types.
    type Spec: Copy;

    /// The fewest bytes one value can occupy — what a forged element
    /// count is checked against before anything is allocated.
    const MIN_BYTES: usize;

    /// Appends the value to the frame body.
    fn put(&self, w: &mut Writer, spec: Self::Spec) -> Result<(), EncodeError>;

    /// Reads one value, trusting no more bytes than the frame holds.
    fn get(r: &mut Reader<'_>, spec: Self::Spec) -> Result<Self, FrameError>;

    /// Writes a run of values; bytes override this to copy in bulk.
    fn put_all(items: &[Self], w: &mut Writer, spec: Self::Spec) -> Result<(), EncodeError> {
        items.iter().try_for_each(|item| item.put(w, spec))
    }

    /// Reads `n` values; bytes override this to copy in bulk. `n` has
    /// passed [`Reader::count`], so reserving it up front is safe.
    fn get_all(r: &mut Reader<'_>, n: usize, spec: Self::Spec) -> Result<Vec<Self>, FrameError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::get(r, spec)?);
        }
        Ok(out)
    }
}

/// A field's spec, `()` when the macro input names none.
macro_rules! spec {
    () => {
        ()
    };
    ($spec:expr) => {
        $spec
    };
}

/// Fixed-width big-endian integers.
macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            type Spec = ();
            const MIN_BYTES: usize = size_of::<$int>();

            fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
                w.buf.extend_from_slice(&self.to_be_bytes());
                Ok(())
            }

            fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
                let mut raw = [0; size_of::<$int>()];
                raw.copy_from_slice(r.take(size_of::<$int>())?);
                Ok(<$int>::from_be_bytes(raw))
            }
        }
    )*};
}

wire_int!(u16, u32, u64);

impl Wire for u8 {
    type Spec = ();
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        w.buf.push(*self);
        Ok(())
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        Ok(r.take(1)?[0])
    }

    fn put_all(items: &[Self], w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        w.buf.extend_from_slice(items);
        Ok(())
    }

    fn get_all(r: &mut Reader<'_>, n: usize, (): ()) -> Result<Vec<Self>, FrameError> {
        Ok(r.take(n)?.to_vec())
    }
}

impl Wire for bool {
    type Spec = ();
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        u8::from(*self).put(w, ())
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        match u8::get(r, ())? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload("boolean out of range")),
        }
    }
}

/// `f64` and the physical quantities travel as the IEEE-754 bit pattern
/// of their base-unit value.
macro_rules! wire_float {
    ($($float:ty: $to:expr, $from:expr;)*) => {$(
        impl Wire for $float {
            type Spec = ();
            const MIN_BYTES: usize = 8;

            fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
                $to(*self).to_bits().put(w, ())
            }

            fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
                Ok($from(f64::from_bits(u64::get(r, ())?)))
            }
        }
    )*};
}

wire_float! {
    f64: f64::from, f64::from;
    Joules: Joules::as_joules, Joules::new;
    Seconds: Seconds::as_seconds, Seconds::new;
}

/// Row indices and stream counts travel as a checked `u32`; the spec is
/// the field's [`EncodeError`] label.
impl Wire for usize {
    type Spec = &'static str;
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, *self)
    }

    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, FrameError> {
        Ok(u32::get(r, ())? as usize)
    }
}

/// A match event — `(end position, pattern index)` — travels as two
/// `u64`s, unlike a lone `usize`.
impl Wire for (usize, usize) {
    type Spec = ();
    const MIN_BYTES: usize = 16;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        (self.0 as u64).put(w, ())?;
        (self.1 as u64).put(w, ())
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        Ok((u64::get(r, ())? as usize, u64::get(r, ())? as usize))
    }
}

/// A `u32` byte length, then UTF-8.
impl Wire for String {
    type Spec = &'static str;
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, self.len())?;
        u8::put_all(self.as_bytes(), w, ())
    }

    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, FrameError> {
        let len = r.count(1)?;
        let bytes = u8::get_all(r, len, ())?;
        String::from_utf8(bytes).map_err(|_| FrameError::BadPayload("invalid UTF-8"))
    }
}

/// A `u32` bit length, then the `u64` words; set bits past the length
/// are refused.
impl Wire for BitVec {
    type Spec = &'static str;
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer, field: &'static str) -> Result<(), EncodeError> {
        w.u32_of(field, self.len())?;
        u64::put_all(self.as_words(), w, ())
    }

    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, FrameError> {
        let bits = u32::get(r, ())? as usize;
        let words = bits.div_ceil(64);
        if words.checked_mul(8).is_none_or(|need| need > r.remaining()) {
            return Err(FrameError::BadPayload("bit vector exceeds frame"));
        }
        let mut out = BitVec::new(bits);
        for w in 0..words {
            let mut word = u64::get(r, ())?;
            while word != 0 {
                let index = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if index >= bits {
                    return Err(FrameError::BadPayload("set bit beyond bit vector length"));
                }
                out.set(index, true);
            }
        }
        Ok(out)
    }
}

/// How a `Vec` field travels: a `u32` count labelled `count`, then each
/// element under `each`. The decoder refuses a count outside
/// `min..=max` with `refusal`, before decoding any element.
#[derive(Clone, Copy)]
struct Seq<S> {
    count: &'static str,
    each: S,
    min: usize,
    max: usize,
    refusal: &'static str,
}

/// An unbounded sequence spec.
fn seq<S>(count: &'static str, each: S) -> Seq<S> {
    Seq { count, each, min: 0, max: usize::MAX, refusal: "" }
}

impl<S> Seq<S> {
    fn within(self, min: usize, max: usize, refusal: &'static str) -> Self {
        Self { min, max, refusal, ..self }
    }
}

impl<T: Wire> Wire for Vec<T> {
    type Spec = Seq<T::Spec>;
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut Writer, spec: Self::Spec) -> Result<(), EncodeError> {
        w.u32_of(spec.count, self.len())?;
        T::put_all(self, w, spec.each)
    }

    fn get(r: &mut Reader<'_>, spec: Self::Spec) -> Result<Self, FrameError> {
        let n = r.count(T::MIN_BYTES)?;
        if !(spec.min..=spec.max).contains(&n) {
            return Err(FrameError::BadPayload(spec.refusal));
        }
        T::get_all(r, n, spec.each)
    }
}

/// `quota_remaining`: `u64::MAX` is the no-quota sentinel — a real
/// limit of `u64::MAX` admits jobs faster than anyone can count.
impl Wire for Option<u64> {
    type Spec = ();
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        self.unwrap_or(u64::MAX).put(w, ())
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        Ok(Some(u64::get(r, ())?).filter(|&limit| limit != u64::MAX))
    }
}

/// `rate`: a presence byte, then the headroom when present.
impl Wire for Option<WireRate> {
    type Spec = ();
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        self.is_some().put(w, ())?;
        self.as_ref().map_or(Ok(()), |rate| rate.put(w, ()))
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        if bool::get(r, ())? {
            WireRate::get(r, ()).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl Wire for ErrorCode {
    type Spec = ();
    const MIN_BYTES: usize = 2;

    fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
        self.as_u16().put(w, ())
    }

    fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
        u16::get(r, ()).map(ErrorCode::from_u16)
    }
}

/// Gives a payload struct its [`Wire`] layout from one field list in
/// wire order: each field's type and, where the type needs one, its
/// spec (`= spec`). The `pub struct` form also defines the struct, so
/// each field — a `Stats` counter, say — is written exactly once.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty $(= $spec:expr)?,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        wire_struct!(impl $name { $($field: $ty $(= $spec)?,)* });
    };
    (impl $name:path { $($field:ident: $ty:ty $(= $spec:expr)?,)* }) => {
        impl Wire for $name {
            type Spec = ();
            const MIN_BYTES: usize = 0 $(+ <$ty as Wire>::MIN_BYTES)*;

            fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
                $(self.$field.put(w, spec!($($spec)?))?;)*
                Ok(())
            }

            fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
                Ok(Self { $($field: Wire::get(r, spec!($($spec)?))?,)* })
            }
        }
    };
}

wire_struct!(impl ApReport { cycles: u64, latency: Seconds, energy: Joules, });

wire_struct!(impl crate::ApMatches {
    accepted: bool,
    symbols: u64,
    report: ApReport,
    matches: Vec<(usize, usize)> = seq("match count", ()),
});

wire_struct!(impl crate::CorrFeedReport { events: u64, energy: Joules, busy: Seconds, });

wire_struct!(impl crate::CorrOutcome {
    correlated: BitVec = "correlated set",
    scores: Vec<u64> = seq("score count", ()),
    events: u64,
    threshold: u64,
});

/// The smallest of `sizes`: a tagged union's lightest variant.
const fn min_of(sizes: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < sizes.len() {
        if sizes[i] < min {
            min = sizes[i];
        }
        i += 1;
    }
    min
}

/// An instruction is a tag byte, then its variant's fields.
macro_rules! wire_instruction {
    ($($tag:literal => $variant:ident { $($field:ident: $ty:ty = $spec:expr,)* },)*) => {
        impl Wire for Instruction {
            type Spec = ();
            const MIN_BYTES: usize = 1 + min_of(&[$(0 $(+ <$ty as Wire>::MIN_BYTES)*),*]);

            fn put(&self, w: &mut Writer, (): ()) -> Result<(), EncodeError> {
                match self {
                    $(Instruction::$variant { $($field),* } => {
                        $tag.put(w, ())?;
                        $($field.put(w, $spec)?;)*
                    })*
                }
                Ok(())
            }

            fn get(r: &mut Reader<'_>, (): ()) -> Result<Self, FrameError> {
                match u8::get(r, ())? {
                    $($tag => Ok(Instruction::$variant { $($field: Wire::get(r, $spec)?),* }),)*
                    _ => Err(FrameError::BadPayload("unknown instruction tag")),
                }
            }
        }
    };
}

wire_instruction! {
    0u8 => Store { row: usize = "store row", data: BitVec = "store data", },
    1u8 => Or {
        srcs: Vec<usize> = seq("OR source count", "OR source row"),
        dst: usize = "OR destination row",
    },
    2u8 => And {
        srcs: Vec<usize> = seq("AND source count", "AND source row"),
        dst: usize = "AND destination row",
    },
    3u8 => Xor {
        a: usize = "XOR operand row",
        b: usize = "XOR operand row",
        dst: usize = "XOR destination row",
    },
    4u8 => Read { row: usize = "read row", },
}

/// Defines a verb enum and its frame codec from one variant list: each
/// variant's opcode, then its fields in wire order with their types and,
/// where the type needs one, their spec (`= spec`). A newtype variant
/// names a binding for its payload: `Mvp(result: WireMvpResult)`.
macro_rules! verbs {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $op:ident => $variant:ident
                $(($inner:ident: $ity:ty $(= $ispec:expr)?))?
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty $(= $fspec:expr)?,)* })?,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $(($ity))? $({ $($(#[$fmeta])* $field: $fty,)* })?,
            )*
        }

        impl $name {
            /// Encodes the verb into a frame body (opcode + payload).
            ///
            /// # Errors
            ///
            /// [`EncodeError`] when a field's length or index does not
            /// fit the wire format's 32-bit fields; nothing is silently
            /// truncated.
            pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
                let w = match self {
                    $($name::$variant $(($inner))? $({ $($field),* })? => Writer::new($op)
                        $(.with($inner, spec!($($ispec)?))?)?
                        $($(.with($field, spec!($($fspec)?))?)*)?,)*
                };
                Ok(w.buf)
            }

            /// Decodes a frame body into a verb.
            ///
            /// # Errors
            ///
            /// [`FrameError`] on truncation, trailing bytes, unknown
            /// opcodes or invalid field values; the body is never
            /// trusted further than the bytes it actually contains.
            pub fn decode(body: &[u8]) -> Result<Self, FrameError> {
                let mut r = Reader::new(body);
                let verb = match u8::get(&mut r, ())? {
                    $($op => $name::$variant
                        $((<$ity as Wire>::get(&mut r, spec!($($ispec)?))?))?
                        $({ $($field: Wire::get(&mut r, spec!($($fspec)?))?,)* })?,)*
                    other => return Err(FrameError::UnknownOpcode(other)),
                };
                r.finish()?;
                Ok(verb)
            }
        }
    };
}

// --- Requests ---------------------------------------------------------

verbs! {
    /// A client-to-server verb.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Request {
        /// Authenticates the connection; must be the first frame.
        OP_HELLO => Hello {
            /// The tenant this connection will act as.
            tenant: TenantId,
            /// The tenant's secret token.
            token: String = "token",
        },
        /// Submits MVP macro-instruction programs: a single program enters
        /// the coalescer like an in-process [`Job::MvpProgram`]; several
        /// execute as one pre-assembled batch.
        ///
        /// [`Job::MvpProgram`]: crate::Job::MvpProgram
        OP_SUBMIT => Submit {
            /// The programs; must be non-empty.
            programs: Vec<Vec<Instruction>> = seq("program count", seq("instruction count", ()))
                .within(1, usize::MAX, "empty submission"),
        },
        /// Compiles patterns into a streaming AP session.
        OP_AP_OPEN => ApOpen {
            /// The regex patterns (capped at 1024 per request).
            patterns: Vec<String> = seq("pattern count", "pattern")
                .within(1, MAX_PATTERNS, "pattern count out of range"),
        },
        /// Streams one chunk of input through an open session.
        OP_AP_FEED => ApFeed {
            /// The session to feed.
            session: SessionId,
            /// The input bytes.
            chunk: Vec<u8> = seq("chunk", ()),
        },
        /// Ends a session's stream and collects its matches.
        OP_AP_FINISH => ApFinish {
            /// The session to finish.
            session: SessionId,
        },
        /// Drops a session — any streaming workload kind, not only AP.
        OP_AP_CLOSE => ApClose {
            /// The session to close.
            session: SessionId,
        },
        /// Requests the authenticated tenant's accumulated usage.
        OP_USAGE => Usage,
        /// Requests service-wide health and load counters.
        OP_STATS => Stats,
        /// Opens a streaming temporal-correlation session.
        OP_CORR_OPEN => CorrOpen {
            /// Event streams the session tracks.
            streams: usize = "stream count",
            /// Co-activation score above which a stream is reported
            /// correlated.
            threshold: u64,
        },
        /// Streams one time window — one activity bit vector per stream,
        /// all the same width — through an open correlation session.
        OP_CORR_FEED => CorrFeed {
            /// The session to feed.
            session: SessionId,
            /// Per-stream activity over the window's steps.
            window: Vec<BitVec> = seq("window stream count", "window stream"),
        },
        /// Ends a correlation session's stream and collects the correlated
        /// set; the session resets and stays open for the next stream.
        OP_CORR_FINISH => CorrFinish {
            /// The session to finish.
            session: SessionId,
        },
        /// Streams one chunk into **each** lane of an AP session:
        /// `chunks[i]` goes to lane `i`, lanes growing on demand (capped at
        /// 64 per request).
        OP_AP_FEED_MANY => ApFeedMany {
            /// The session to feed.
            session: SessionId,
            /// Per-lane input bytes.
            chunks: Vec<Vec<u8>> = seq("stream count", seq("chunk", ()))
                .within(1, MAX_STREAMS, "stream count out of range"),
        },
        /// Ends the current stream of every lane of an AP session and
        /// collects per-lane matches.
        OP_AP_FINISH_MANY => ApFinishMany {
            /// The session to finish.
            session: SessionId,
        },
    }
}

// --- Responses --------------------------------------------------------

wire_struct! {
    /// The wire-visible result of a `Submit`: program outputs plus the
    /// burst-level cost summary (counts and physical totals; the full
    /// [`OpLedger`] breakdown stays server-side in the tenant's bill).
    ///
    /// [`OpLedger`]: memcim_crossbar::OpLedger
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireMvpResult {
        /// Jobs coalesced into the burst this submission rode in.
        pub jobs: u64,
        /// Programs executed across the burst.
        pub programs: u64,
        /// The burst's dynamic energy.
        pub energy: Joules,
        /// The burst's engine busy time.
        pub busy: Seconds,
        /// `outputs[i]` holds the `Read` results of the `i`-th submitted
        /// program, in program order.
        pub outputs: Vec<Vec<BitVec>> = seq("output count", seq("read count", "read output")),
    }
}

wire_struct! {
    /// The wire-visible form of a tenant's [`TenantUsage`] bill.
    ///
    /// [`TenantUsage`]: crate::TenantUsage
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct WireUsage {
        /// MVP jobs completed.
        pub mvp_jobs: u64,
        /// MVP row reads billed.
        pub mvp_reads: u64,
        /// MVP scouting operations billed.
        pub mvp_scouting_ops: u64,
        /// MVP row programs billed.
        pub mvp_programs: u64,
        /// ECC-corrected upsets observed while serving this tenant.
        pub mvp_corrected_errors: u64,
        /// MVP dynamic energy billed.
        pub mvp_energy: Joules,
        /// MVP engine time billed.
        pub mvp_busy: Seconds,
        /// AP jobs (feeds and finishes) completed.
        pub ap_jobs: u64,
        /// Input symbols streamed through the tenant's sessions.
        pub ap_symbols: u64,
        /// AP dynamic energy billed.
        pub ap_energy: Joules,
        /// AP pipeline latency billed.
        pub ap_busy: Seconds,
        /// Correlation jobs (feeds and finishes) completed.
        pub corr_jobs: u64,
        /// Event stream-slots billed through correlation session
        /// watermarks (the engine work itself lands on the MVP ledger).
        pub corr_events: u64,
        /// Jobs the tenant may still admit before its configured quota
        /// refuses with [`ErrorCode::QuotaExceeded`]; `None` when the
        /// tenant is not quota-limited.
        pub quota_remaining: Option<u64>,
        /// The tenant's rate-limit headroom; `None` when the tenant is not
        /// rate-limited.
        pub rate: Option<WireRate>,
    }
}

wire_struct! {
    /// A rate-limited tenant's token-bucket headroom, as reported by the
    /// `Usage` verb.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct WireRate {
        /// Tokens currently available (jobs admissible right now without a
        /// [`ErrorCode::RateLimited`] refusal).
        pub tokens: f64,
        /// The bucket's capacity — the largest instantaneous burst the
        /// tenant can ever spend.
        pub burst: u32,
    }
}

wire_struct! {
    /// One tenant's row in a [`WireStats`] report.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TenantStat {
        /// The tenant.
        pub tenant: TenantId,
        /// Jobs completed across both engine kinds.
        pub jobs: u64,
        /// Total dynamic energy billed.
        pub energy: Joules,
        /// Total engine time billed.
        pub busy: Seconds,
    }
}

wire_struct! {
    /// Service-wide health and load, as exposed by the `Stats` verb.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireStats {
        /// Worker threads serving the queue.
        pub workers: u64,
        /// Engines still healthy (serving MVP jobs).
        pub live_engines: u64,
        /// Engines retired after fault-fatal errors.
        pub retired_engines: u64,
        /// Jobs currently queued.
        pub queue_depth: u64,
        /// The bounded queue's capacity.
        pub queue_capacity: u64,
        /// Open AP sessions.
        pub sessions: u64,
        /// Shards in the placement catalog (0 when unsharded).
        pub shards: u64,
        /// Replicas per shard (0 when unsharded).
        pub replicas: u64,
        /// Shards whose whole replica set is dead — sub-queries touching
        /// them fail with [`ErrorCode::ShardUnavailable`].
        pub unavailable_shards: u64,
        /// AP session opens whose hierarchical routing fell back to a
        /// dense matrix.
        pub routing_fallbacks: u64,
        /// AP session opens served from the compile cache.
        pub ap_cache_hits: u64,
        /// AP session opens that had to compile.
        pub ap_cache_misses: u64,
        /// MVP submissions whose static verification was served from the
        /// verify cache.
        pub mvp_cache_hits: u64,
        /// MVP program verifications that actually ran.
        pub mvp_cache_misses: u64,
        /// Per-tenant usage rows, sorted by tenant id.
        pub tenants: Vec<TenantStat> = seq("tenant count", ()),
    }
}

verbs! {
    /// A server-to-client verb.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum Response {
        /// `Hello` accepted; the connection is bound to its tenant.
        OP_HELLO_OK => HelloOk,
        /// A `Submit` completed.
        OP_MVP_RESULT => Mvp(result: WireMvpResult),
        /// An `ApOpen` compiled; the session is ready to feed.
        OP_AP_OPENED => ApOpened {
            /// The new session's id.
            session: SessionId,
            /// Hierarchical routing ran out of global wires and the session
            /// runs on a dense routing matrix (functionally identical,
            /// costlier per symbol).
            routing_fallback: bool,
            /// The compiled automaton came from the server's compile cache.
            cache_hit: bool,
        },
        /// An `ApFeed` ran; the report is cumulative for the stream so far.
        OP_AP_FEED_OK => ApFed(report: ApReport),
        /// An `ApFinish` ran: anchored acceptance, `(end position, pattern
        /// index)` match events, symbols and stream cost.
        OP_AP_MATCHES => ApFinished(run: crate::ApMatches),
        /// An `ApClose` dropped the session.
        OP_AP_CLOSED => ApClosed,
        /// The tenant's accumulated bill.
        OP_USAGE_REPORT => Usage(usage: WireUsage),
        /// Service-wide health and load.
        OP_STATS_REPORT => Stats(stats: WireStats),
        /// A `CorrOpen` registered; the session is ready to feed.
        OP_CORR_OPENED => CorrOpened {
            /// The new session's id.
            session: SessionId,
        },
        /// A `CorrFeed` ran; the report is cumulative for the stream so
        /// far.
        OP_CORR_FEED_OK => CorrFed(report: crate::CorrFeedReport),
        /// A `CorrFinish` ran: the thresholded correlated set with its
        /// evidence.
        OP_CORR_REPORT => CorrReport(outcome: crate::CorrOutcome),
        /// An `ApFeedMany` ran; per-lane cumulative reports, in lane order.
        OP_AP_FED_MANY => ApFedMany(reports: Vec<ApReport> = seq("lane count", ())),
        /// An `ApFinishMany` ran; per-lane stream results, in lane order.
        OP_AP_MATCHES_MANY => ApFinishedMany(runs: Vec<crate::ApMatches> = seq("lane count", ())),
        /// The request failed; `code` is machine-readable, `message` is for
        /// the operator's log.
        OP_ERROR => Error {
            /// The typed failure code.
            code: ErrorCode,
            /// Human-readable detail.
            message: String = "error message",
        },
    }
}

// --- Frame I/O --------------------------------------------------------

/// Why reading a frame off a stream failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameReadError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The stream ended mid-frame (header or body).
    Truncated,
    /// The declared body length exceeds `max` — the body was **not**
    /// read; the caller should answer [`ErrorCode::FrameTooLarge`] and
    /// drop the connection (the stream can no longer be framed).
    TooLarge {
        /// The declared body length.
        declared: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Closed => write!(f, "connection closed"),
            FrameReadError::Truncated => write!(f, "stream ended mid-frame"),
            FrameReadError::TooLarge { declared, max } => {
                write!(f, "declared frame body of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameReadError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads one length-prefixed frame body (opcode + payload) off `stream`,
/// refusing bodies larger than `max` without reading them.
///
/// # Errors
///
/// [`FrameReadError`] — see each variant.
pub fn read_frame(stream: &mut impl Read, max: usize) -> Result<Vec<u8>, FrameReadError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameReadError::Closed),
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared == 0 {
        // A bodyless frame has no opcode; report it as a truncation so
        // the server answers BadFrame.
        return Err(FrameReadError::Truncated);
    }
    if declared > max {
        return Err(FrameReadError::TooLarge { declared, max });
    }
    let mut body = vec![0u8; declared];
    let mut filled = 0;
    while filled < declared {
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(body)
}

/// Writes one frame: the 4-byte big-endian length of `body`, then
/// `body` itself.
///
/// # Errors
///
/// Propagates the socket error. A body whose length does not fit the
/// `u32` prefix is an `InvalidInput` error (carrying an [`EncodeError`]
/// as its source) with nothing written — truncating the prefix would
/// desynchronize the stream for good.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(body.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            EncodeError { field: "frame body", value: body.len() },
        )
    })?;
    stream.write_all(&len.to_be_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let body = request.encode().expect("encodes");
        assert_eq!(Request::decode(&body).expect("decodes"), request);
    }

    fn roundtrip_response(response: Response) {
        let body = response.encode().expect("encodes");
        assert_eq!(Response::decode(&body).expect("decodes"), response);
    }

    #[test]
    fn every_request_verb_round_trips() {
        roundtrip_request(Request::Hello { tenant: 7, token: "secret-π".into() });
        roundtrip_request(Request::Submit {
            programs: vec![
                vec![
                    Instruction::Store { row: 0, data: BitVec::from_indices(130, &[0, 64, 129]) },
                    Instruction::Or { srcs: vec![0, 1], dst: 2 },
                    Instruction::And { srcs: vec![2, 0, 1], dst: 3 },
                    Instruction::Xor { a: 3, b: 0, dst: 4 },
                    Instruction::Read { row: 4 },
                ],
                vec![Instruction::Read { row: 0 }],
            ],
        });
        roundtrip_request(Request::ApOpen { patterns: vec!["ab+c".into(), "x[yz]".into()] });
        roundtrip_request(Request::ApFeed { session: 9, chunk: b"GET /index".to_vec() });
        roundtrip_request(Request::ApFinish { session: 9 });
        roundtrip_request(Request::ApClose { session: 9 });
        roundtrip_request(Request::Usage);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::CorrOpen { streams: 24, threshold: 1556 });
        roundtrip_request(Request::CorrFeed {
            session: 4,
            window: vec![BitVec::from_indices(130, &[0, 64, 129]), BitVec::new(130)],
        });
        roundtrip_request(Request::CorrFinish { session: 4 });
        roundtrip_request(Request::ApFeedMany {
            session: 9,
            chunks: vec![b"GET /a".to_vec(), Vec::new(), b"POST /b".to_vec()],
        });
        roundtrip_request(Request::ApFinishMany { session: 9 });
    }

    #[test]
    fn every_response_verb_round_trips() {
        roundtrip_response(Response::HelloOk);
        roundtrip_response(Response::Mvp(WireMvpResult {
            outputs: vec![vec![BitVec::from_indices(65, &[64]), BitVec::new(3)], vec![]],
            jobs: 2,
            programs: 3,
            energy: Joules::from_femtojoules(12.5),
            busy: Seconds::from_nanoseconds(7.25),
        }));
        roundtrip_response(Response::ApOpened {
            session: 3,
            routing_fallback: false,
            cache_hit: false,
        });
        roundtrip_response(Response::ApOpened {
            session: 4,
            routing_fallback: true,
            cache_hit: true,
        });
        roundtrip_response(Response::ApFed(ApReport {
            cycles: 11,
            latency: Seconds::from_nanoseconds(2.0),
            energy: Joules::from_femtojoules(4.0),
        }));
        roundtrip_response(Response::ApFinished(crate::ApMatches {
            accepted: true,
            matches: vec![(5, 0), (9, 1)],
            symbols: 15,
            report: ApReport {
                cycles: 15,
                latency: Seconds::from_nanoseconds(3.0),
                energy: Joules::from_femtojoules(6.0),
            },
        }));
        roundtrip_response(Response::ApClosed);
        roundtrip_response(Response::Usage(WireUsage {
            mvp_jobs: 1,
            mvp_reads: 2,
            mvp_scouting_ops: 3,
            mvp_programs: 4,
            mvp_corrected_errors: 5,
            mvp_energy: Joules::from_femtojoules(6.0),
            mvp_busy: Seconds::from_nanoseconds(7.0),
            ap_jobs: 8,
            ap_symbols: 9,
            ap_energy: Joules::from_femtojoules(10.0),
            ap_busy: Seconds::from_nanoseconds(11.0),
            corr_jobs: 12,
            corr_events: 3072,
            quota_remaining: Some(12),
            rate: Some(WireRate { tokens: 2.5, burst: 8 }),
        }));
        roundtrip_response(Response::Usage(WireUsage {
            mvp_jobs: 0,
            mvp_reads: 0,
            mvp_scouting_ops: 0,
            mvp_programs: 0,
            mvp_corrected_errors: 0,
            mvp_energy: Joules::from_femtojoules(0.0),
            mvp_busy: Seconds::from_nanoseconds(0.0),
            ap_jobs: 0,
            ap_symbols: 0,
            ap_energy: Joules::from_femtojoules(0.0),
            ap_busy: Seconds::from_nanoseconds(0.0),
            corr_jobs: 0,
            corr_events: 0,
            quota_remaining: None,
            rate: None,
        }));
        roundtrip_response(Response::Stats(WireStats {
            workers: 4,
            live_engines: 3,
            retired_engines: 1,
            queue_depth: 2,
            queue_capacity: 64,
            sessions: 5,
            shards: 8,
            replicas: 2,
            unavailable_shards: 1,
            routing_fallbacks: 2,
            ap_cache_hits: 13,
            ap_cache_misses: 4,
            mvp_cache_hits: 21,
            mvp_cache_misses: 9,
            tenants: vec![TenantStat {
                tenant: 7,
                jobs: 12,
                energy: Joules::from_femtojoules(1.0),
                busy: Seconds::from_nanoseconds(2.0),
            }],
        }));
        roundtrip_response(Response::CorrOpened { session: 11 });
        roundtrip_response(Response::CorrFed(crate::CorrFeedReport {
            events: 3072,
            energy: Joules::from_femtojoules(8.5),
            busy: Seconds::from_nanoseconds(3.25),
        }));
        roundtrip_response(Response::CorrReport(crate::CorrOutcome {
            correlated: BitVec::from_indices(24, &[2, 7, 11]),
            scores: vec![700, 701, 1654, 699],
            events: 18432,
            threshold: 1556,
        }));
        roundtrip_response(Response::ApFedMany(vec![
            ApReport {
                cycles: 11,
                latency: Seconds::from_nanoseconds(2.0),
                energy: Joules::from_femtojoules(4.0),
            },
            ApReport {
                cycles: 0,
                latency: Seconds::from_nanoseconds(0.0),
                energy: Joules::from_femtojoules(0.0),
            },
        ]));
        roundtrip_response(Response::ApFinishedMany(vec![
            crate::ApMatches {
                accepted: true,
                matches: vec![(5, 0)],
                symbols: 15,
                report: ApReport {
                    cycles: 15,
                    latency: Seconds::from_nanoseconds(3.0),
                    energy: Joules::from_femtojoules(6.0),
                },
            },
            crate::ApMatches {
                accepted: false,
                matches: vec![],
                symbols: 2,
                report: ApReport {
                    cycles: 2,
                    latency: Seconds::from_nanoseconds(0.5),
                    energy: Joules::from_femtojoules(1.0),
                },
            },
        ]));
        roundtrip_response(Response::Error {
            code: ErrorCode::RateLimited,
            message: "slow down".into(),
        });
    }

    #[test]
    fn forged_counts_are_refused_before_allocation() {
        // An ApOpen claiming 4 billion patterns in a 16-byte frame.
        let mut body = vec![OP_AP_OPEN];
        body.extend_from_slice(&u32::MAX.to_be_bytes());
        body.extend_from_slice(&[0; 8]);
        assert_eq!(
            Request::decode(&body),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
        // An ApFeedMany claiming more lanes than the stream cap.
        let mut body = vec![OP_AP_FEED_MANY];
        body.extend_from_slice(&9u64.to_be_bytes());
        body.extend_from_slice(&(MAX_STREAMS as u32 + 1).to_be_bytes());
        body.extend_from_slice(&[0; 4 * (MAX_STREAMS + 1)]);
        assert_eq!(
            Request::decode(&body),
            Err(FrameError::BadPayload("stream count out of range"))
        );
        // An ApFinishedMany claiming one lane in fewer bytes than the
        // smallest ApMatches (1 + 8 + 24 + 4) can occupy.
        let mut body = vec![OP_AP_MATCHES_MANY];
        body.extend_from_slice(&1u32.to_be_bytes());
        body.extend_from_slice(&[0; 33]);
        assert_eq!(
            Response::decode(&body),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
        // A bit vector claiming 2^31 bits in a tiny frame.
        let mut body = vec![OP_SUBMIT];
        body.extend_from_slice(&1u32.to_be_bytes()); // one program
        body.extend_from_slice(&1u32.to_be_bytes()); // one instruction
        body.push(0); // Store
        body.extend_from_slice(&0u32.to_be_bytes()); // row 0
        body.extend_from_slice(&(1u32 << 31).to_be_bytes()); // absurd bit length
        assert!(matches!(Request::decode(&body), Err(FrameError::BadPayload(_))));
    }

    #[test]
    fn oversized_fields_are_typed_encode_errors_not_truncations() {
        // A row index beyond u32: the old `as u32` cast would have
        // framed row 3 instead; the checked encoder refuses.
        let request =
            Request::Submit { programs: vec![vec![Instruction::Read { row: (1 << 32) + 3 }]] };
        let err = request.encode().expect_err("does not fit the wire format");
        assert_eq!(err, EncodeError { field: "read row", value: (1 << 32) + 3 });
        assert!(err.to_string().contains("read row"), "{err}");

        // The same guard at the writer level, for length prefixes.
        let mut w = Writer::new(OP_SUBMIT);
        assert_eq!(
            w.u32_of("program count", usize::MAX),
            Err(EncodeError { field: "program count", value: usize::MAX })
        );
        // In-range values still encode untouched.
        let mut w = Writer::new(OP_SUBMIT);
        w.u32_of("program count", 7).expect("fits");
        assert_eq!(w.buf, vec![OP_SUBMIT, 0, 0, 0, 7]);
    }

    #[test]
    fn trailing_and_truncated_bodies_are_typed_errors() {
        let mut body = Request::Usage.encode().expect("encodes");
        body.push(0xAB);
        assert_eq!(Request::decode(&body), Err(FrameError::Trailing { extra: 1 }));
        let body = Request::Hello { tenant: 1, token: "t".into() }.encode().expect("encodes");
        // Cut mid-u64: a plain truncation.
        assert_eq!(Request::decode(&body[..5]), Err(FrameError::Truncated));
        // Cut the token's last byte: the count guard catches it.
        assert_eq!(
            Request::decode(&body[..body.len() - 1]),
            Err(FrameError::BadPayload("element count exceeds frame"))
        );
        assert_eq!(Request::decode(&[0x7F]), Err(FrameError::UnknownOpcode(0x7F)));
        assert_eq!(FrameError::UnknownOpcode(0x7F).error_code(), ErrorCode::UnknownOpcode);
        assert_eq!(FrameError::Truncated.error_code(), ErrorCode::BadFrame);
    }

    #[test]
    fn error_codes_survive_the_wire_and_unknowns_collapse_to_internal() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::UnknownOpcode,
            ErrorCode::Unauthenticated,
            ErrorCode::BadCredentials,
            ErrorCode::AlreadyAuthenticated,
            ErrorCode::QuotaExceeded,
            ErrorCode::RateLimited,
            ErrorCode::OverCapacity,
            ErrorCode::ShuttingDown,
            ErrorCode::UnknownSession,
            ErrorCode::SessionBusy,
            ErrorCode::Compile,
            ErrorCode::Engine,
            ErrorCode::NoHealthyEngine,
            ErrorCode::ShardUnavailable,
            ErrorCode::InvalidProgram,
            ErrorCode::WrongSessionKind,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
        assert_eq!(ErrorCode::from_u16(0xBEEF), ErrorCode::Internal);
    }

    /// One fixed instance of every request verb, in opcode order.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { tenant: 7, token: "tok".into() },
            Request::Submit {
                programs: vec![
                    vec![
                        Instruction::Store { row: 1, data: BitVec::from_indices(65, &[0, 64]) },
                        Instruction::Or { srcs: vec![0, 1], dst: 2 },
                        Instruction::And { srcs: vec![2], dst: 3 },
                        Instruction::Xor { a: 3, b: 0, dst: 4 },
                        Instruction::Read { row: 4 },
                    ],
                    vec![],
                ],
            },
            Request::ApOpen { patterns: vec!["ab+".into(), "c".into()] },
            Request::ApFeed { session: 9, chunk: b"xy".to_vec() },
            Request::ApFinish { session: 9 },
            Request::ApClose { session: 10 },
            Request::Usage,
            Request::Stats,
            Request::CorrOpen { streams: 24, threshold: 1556 },
            Request::CorrFeed {
                session: 4,
                window: vec![BitVec::from_indices(3, &[0, 2]), BitVec::new(3)],
            },
            Request::CorrFinish { session: 4 },
            Request::ApFeedMany { session: 5, chunks: vec![b"a".to_vec(), Vec::new()] },
            Request::ApFinishMany { session: 5 },
        ]
    }

    fn sample_report(cycles: u64) -> ApReport {
        ApReport { cycles, latency: Seconds::new(0.5), energy: Joules::new(-2.0) }
    }

    fn sample_matches() -> crate::ApMatches {
        crate::ApMatches {
            accepted: true,
            matches: vec![(5, 0), (9, 1)],
            symbols: 15,
            report: sample_report(15),
        }
    }

    /// One fixed instance of every response verb, in opcode order, then
    /// `Error`.
    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloOk,
            Response::Mvp(WireMvpResult {
                outputs: vec![vec![BitVec::from_indices(65, &[64]), BitVec::new(0)], vec![]],
                jobs: 2,
                programs: 3,
                energy: Joules::new(1.5),
                busy: Seconds::new(0.25),
            }),
            Response::ApOpened { session: 3, routing_fallback: true, cache_hit: false },
            Response::ApFed(sample_report(11)),
            Response::ApFinished(sample_matches()),
            Response::ApClosed,
            Response::Usage(WireUsage {
                mvp_jobs: 1,
                mvp_reads: 2,
                mvp_scouting_ops: 3,
                mvp_programs: 4,
                mvp_corrected_errors: 5,
                mvp_energy: Joules::new(6.0),
                mvp_busy: Seconds::new(7.0),
                ap_jobs: 8,
                ap_symbols: 9,
                ap_energy: Joules::new(10.0),
                ap_busy: Seconds::new(11.0),
                corr_jobs: 12,
                corr_events: 13,
                quota_remaining: Some(14),
                rate: Some(WireRate { tokens: 2.5, burst: 8 }),
            }),
            Response::Stats(WireStats {
                workers: 1,
                live_engines: 2,
                retired_engines: 3,
                queue_depth: 4,
                queue_capacity: 5,
                sessions: 6,
                shards: 7,
                replicas: 8,
                unavailable_shards: 9,
                routing_fallbacks: 10,
                ap_cache_hits: 11,
                ap_cache_misses: 12,
                mvp_cache_hits: 13,
                mvp_cache_misses: 14,
                tenants: vec![TenantStat {
                    tenant: 7,
                    jobs: 12,
                    energy: Joules::new(1.0),
                    busy: Seconds::new(2.0),
                }],
            }),
            Response::CorrOpened { session: 11 },
            Response::CorrFed(crate::CorrFeedReport {
                events: 3072,
                energy: Joules::new(8.5),
                busy: Seconds::new(3.25),
            }),
            Response::CorrReport(crate::CorrOutcome {
                correlated: BitVec::from_indices(3, &[1]),
                scores: vec![700, 1654, 699],
                events: 18432,
                threshold: 1556,
            }),
            Response::ApFedMany(vec![sample_report(1), sample_report(0)]),
            Response::ApFinishedMany(vec![sample_matches()]),
            Response::Error { code: ErrorCode::RateLimited, message: "slow".into() },
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of [`sample_requests`], one frame body each.
    const GOLDEN_REQUESTS: [&str; 13] = [
        "01000000000000000700000003746f6b",
        concat!(
            "02000000020000000500000000010000004100000000000000010000000000000001010000000200",
            "00000000000001000000020200000001000000020000000303000000030000000000000004040000",
            "000400000000",
        ),
        "03000000020000000361622b0000000163",
        "040000000000000009000000027879",
        "050000000000000009",
        "06000000000000000a",
        "07",
        "08",
        "09000000180000000000000614",
        "0a000000000000000400000002000000030000000000000005000000030000000000000000",
        "0b0000000000000004",
        "0c000000000000000500000002000000016100000000",
        "0d0000000000000005",
    ];

    /// The exact bytes of [`sample_responses`], one frame body each.
    const GOLDEN_RESPONSES: [&str; 14] = [
        "81",
        concat!(
            "82000000000000000200000000000000033ff80000000000003fd000000000000000000002000000",
            "0200000041000000000000000000000000000000010000000000000000",
        ),
        "8300000000000000030100",
        "84000000000000000b3fe0000000000000c000000000000000",
        concat!(
            "8501000000000000000f000000000000000f3fe0000000000000c000000000000000000000020000",
            "000000000005000000000000000000000000000000090000000000000001",
        ),
        "86",
        concat!(
            "87000000000000000100000000000000020000000000000003000000000000000400000000000000",
            "054018000000000000401c0000000000000000000000000008000000000000000940240000000000",
            "004026000000000000000000000000000c000000000000000d000000000000000e01400400000000",
            "000000000008",
        ),
        concat!(
            "88000000000000000100000000000000020000000000000003000000000000000400000000000000",
            "05000000000000000600000000000000070000000000000008000000000000000900000000000000",
            "0a000000000000000b000000000000000c000000000000000d000000000000000e00000001000000",
            "0000000007000000000000000c3ff00000000000004000000000000000",
        ),
        "89000000000000000b",
        "8a0000000000000c004021000000000000400a000000000000",
        concat!(
            "8b0000000300000000000000020000000300000000000002bc000000000000067600000000000002",
            "bb00000000000048000000000000000614",
        ),
        concat!(
            "8c0000000200000000000000013fe0000000000000c00000000000000000000000000000003fe000",
            "0000000000c000000000000000",
        ),
        concat!(
            "8d0000000101000000000000000f000000000000000f3fe0000000000000c0000000000000000000",
            "00020000000000000005000000000000000000000000000000090000000000000001",
        ),
        "ee001500000004736c6f77",
    ];

    /// Round-trip tests cannot see a layout change made the same way on
    /// both sides; these pinned bytes can.
    #[test]
    fn golden_frames_are_pinned() {
        for (request, golden) in sample_requests().iter().zip(GOLDEN_REQUESTS) {
            let body = request.encode().expect("encodes");
            assert_eq!(hex(&body), golden, "{request:?}");
            assert_eq!(&Request::decode(&body).expect("decodes"), request);
        }
        for (response, golden) in sample_responses().iter().zip(GOLDEN_RESPONSES) {
            let body = response.encode().expect("encodes");
            assert_eq!(hex(&body), golden, "{response:?}");
            assert_eq!(&Response::decode(&body).expect("decodes"), response);
        }
    }

    /// A small seeded xorshift, enough to drive the mutation corpus
    /// without a dependency.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Truncates, flips a bit in, or replaces a byte of `body`.
    fn mutate(rng: &mut Xorshift, body: &mut Vec<u8>) {
        let at = rng.below(body.len());
        match rng.below(3) {
            0 => body.truncate(at.max(1)),
            1 => body[at] ^= 1 << rng.below(8),
            _ => body[at] = rng.below(256) as u8,
        }
    }

    /// Decoding is canonical: any body that decodes re-encodes to exactly
    /// the same bytes. The one exception is an `Error` frame whose code is
    /// unknown, which collapses to `Internal` by design.
    #[test]
    fn decoded_mutants_re_encode_byte_for_byte() {
        const MUTATIONS: usize = 100_000;
        let mut rng = Xorshift(0x5EED_C0DE_CAFE_F00D);
        let requests: Vec<Vec<u8>> =
            sample_requests().iter().map(|r| r.encode().expect("encodes")).collect();
        let mut decoded = 0;
        for round in 0..MUTATIONS {
            let mut body = requests[round % requests.len()].clone();
            mutate(&mut rng, &mut body);
            if let Ok(request) = Request::decode(&body) {
                decoded += 1;
                assert_eq!(request.encode().expect("re-encodes"), body, "{request:?}");
            }
        }
        assert!(decoded > MUTATIONS / 10, "only {decoded} request mutants decoded");

        let responses: Vec<Vec<u8>> =
            sample_responses().iter().map(|r| r.encode().expect("encodes")).collect();
        let mut decoded = 0;
        for round in 0..MUTATIONS {
            let mut body = responses[round % responses.len()].clone();
            mutate(&mut rng, &mut body);
            match Response::decode(&body) {
                Ok(Response::Error { code: ErrorCode::Internal, .. })
                    if body[1..3] != ErrorCode::Internal.as_u16().to_be_bytes() => {}
                Ok(response) => {
                    decoded += 1;
                    assert_eq!(response.encode().expect("re-encodes"), body, "{response:?}");
                }
                Err(_) => {}
            }
        }
        assert!(decoded > MUTATIONS / 10, "only {decoded} response mutants decoded");
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).expect("writes");
        let mut cursor = std::io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut cursor, 16).expect("reads"), vec![1, 2, 3]);
        // Same bytes under a smaller cap: refused without reading.
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 2),
            Err(FrameReadError::TooLarge { declared: 3, max: 2 })
        ));
        // Clean close vs mid-frame cut.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty, 16), Err(FrameReadError::Closed)));
        let mut cut = std::io::Cursor::new(vec![0, 0, 0, 9, 1, 2]);
        assert!(matches!(read_frame(&mut cut, 16), Err(FrameReadError::Truncated)));
        let mut zero = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(matches!(read_frame(&mut zero, 16), Err(FrameReadError::Truncated)));
    }
}
