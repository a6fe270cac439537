//! Hand-rolled binary persistence for durable snapshots.
//!
//! The durable checkpoint layer has to write a run's state and read it
//! back byte-exactly, offline and without a derive macro. This module is
//! the workspace's one serializer: a small, deterministic binary codec
//! with exactly the features snapshots need and nothing more.
//!
//! # Primitives
//!
//! * **Integers are varints.** Every `u16`/`u32`/`u64`/`usize` — and so
//!   every `Time`, `Span`, `Identity`, length prefix, enum payload and
//!   back-reference index — is a canonical LEB128 varint
//!   ([`Saver::u64`]): seven value bits a byte, low group first, high
//!   bit set on all but the last byte. A value costs its magnitude
//!   (one byte below 128, ten for `u64::MAX`), which is what makes a
//!   snapshot cost what the state costs: most of what a run persists
//!   is rounds, clocks and single-digit counts. The
//!   decoder accepts exactly one encoding per value — overlong forms
//!   (a trailing zero group), an eleventh byte and bits past the 64th
//!   are [`WireError::BadValue`] — so equal values still mean equal
//!   bytes.
//! * **High-entropy words are fixed-width.** RNG state words
//!   (`[u64; 4]`) go through [`Saver::fixed64`], eight little-endian
//!   bytes: a varint would spend ten on them.
//! * Tags, `bool`s and `u8`s are one raw byte; strings are a length and
//!   their UTF-8; `()` is no bytes at all.
//! * A container is its element count, then its elements. The decoder
//!   bounds every count by the bytes that remain before it allocates
//!   anything ([`Loader::len`], [`Loader::seq`]).
//!
//! # The aliasing contract
//!
//! An [`Arc`] handle to an immutable payload can alias others — the
//! `◇HP` bag every history entry shares since it last changed; the one
//! payload behind the copies of a broadcast still in flight — and all
//! of them go through one alias table ([`Saver::shared`] /
//! [`Loader::shared`]). Aliasing here is *cost*, not behaviour: the
//! payloads are immutable, so a handle decoded into a private copy
//! behaves the same, but re-encoding the payload per handle would make a
//! long history almost entirely copies of values already written, and a
//! resumed engine would hold one allocation per handle where the live
//! one holds one per value. No process holds shared *mutable* state
//! (a stacked detector hands its output to its consumer, see
//! `homonym_sim::stack`), so nothing else needs the table.
//!
//! The first handle to an allocation encodes its value and claims the
//! next index, every later handle encodes only the index, and decoding
//! re-seats all of them onto one rebuilt allocation. Handles number
//! themselves in one index space, in traversal order; a back-reference
//! naming a slot of another payload type, a slot still being decoded
//! (its own definition) or one past the table is
//! [`WireError::BadCellIndex`].
//!
//! # Determinism
//!
//! Encoding is a pure function of the traversal order, which is a pure
//! function of the value *and its sharing* — no maps with
//! nondeterministic iteration order, no addresses, no timestamps.
//! Encoding the same snapshot twice yields identical bytes, and so does
//! encoding what those bytes decode to (`to_bytes ∘ from_bytes` is the
//! identity on encodings), which is what lets the checkpoint layer
//! fingerprint and checksum its files. A value rebuilt some other way
//! — a fork that deep-copies a payload the original shared — is equal
//! and behaves identically, but need not encode to the same bytes.
//!
//! # Hostile input
//!
//! Every primitive and container here turns any byte string into a
//! typed [`WireError`] or a value — never a panic, and never a
//! reservation larger than the input that is left — and a [`Persist`]
//! impl built from them inherits that as long as its own `load` only
//! rejects, never asserts. `tests/wire_contract.rs` holds the engine
//! snapshots of the detector and of the log stack, every message of the
//! stacks and the command queue to it with arbitrary, truncated and
//! mutated inputs.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::classes::{EvtHPOutput, HOmegaOutput, HSigmaOutput, Label};
use crate::identity::{Identity, IdentityAssignment};
use crate::multiset::Multiset;
use crate::properties::{PropertyViolation, RunVerdict};
use crate::time::{Span, Time};

/// Why a decode failed. Carried up into the store layer's corruption
/// handling: any `WireError` on a checkpoint file means "treat this
/// checkpoint as absent and re-execute", never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Eof {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// An enum tag byte had no matching variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A decoded value was structurally impossible (e.g. a length that
    /// does not fit `usize`, or an unknown family name).
    BadValue {
        /// The type being decoded.
        what: &'static str,
    },
    /// An alias-table back-reference pointed outside the table, at a
    /// slot still being decoded, or at a handle of a different type.
    BadCellIndex {
        /// The offending index.
        index: u32,
    },
    /// The value decoded cleanly but bytes remained — a framing bug or
    /// a corrupted payload that happened to parse.
    TrailingBytes {
        /// Bytes left over.
        left: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof { wanted, left } => {
                write!(
                    f,
                    "unexpected end of input (wanted {wanted} bytes, {left} left)"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            WireError::BadValue { what } => write!(f, "invalid value for {what}"),
            WireError::BadCellIndex { index } => {
                write!(
                    f,
                    "alias-table back-reference {index} out of range, unfilled or wrong type"
                )
            }
            WireError::TrailingBytes { left } => {
                write!(f, "{left} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A value that round-trips through the durable binary codec.
///
/// `load` must rebuild a value whose *future behaviour* is
/// byte-identical to the saved one's — what a `clone` gives. Representation may differ (a
/// vector's capacity, a recycling ring's spare pool) as long as no
/// observable behaviour can tell.
pub trait Persist: Sized {
    /// Appends this value's encoding to `s`.
    fn save(&self, s: &mut Saver);
    /// Decodes a value from the cursor position of `l`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] when the bytes do not describe a valid value.
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError>;
}

/// Encoding state: the output buffer plus the alias table.
#[derive(Default)]
pub struct Saver {
    buf: Vec<u8>,
    /// Alias-table index by allocation address. Addresses identify
    /// allocations because the value being saved is borrowed — every
    /// allocation it reaches stays alive — for the whole pass.
    cells: HashMap<usize, u32>,
}

impl Saver {
    /// A fresh saver with an empty buffer and alias table.
    #[must_use]
    pub fn new() -> Self {
        Saver::default()
    }

    /// Consumes the saver, returning the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Appends a `u64` as a canonical LEB128 varint: seven bits a byte,
    /// low group first, one to ten bytes.
    pub fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a `usize` as a varint (lengths, indices).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `u64` as eight little-endian bytes: the primitive for
    /// words with no small-magnitude bias (RNG state), which a varint
    /// would lengthen.
    pub fn fixed64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Encodes one handle to the shared allocation at address
    /// `addr`: the first handle of a pass writes tag 0, claims the
    /// next alias-table index and encodes the value through `value`;
    /// every later one writes tag 1 and that index. The index is
    /// claimed **before** the value is encoded so nested handles number
    /// themselves in the order the loader rebuilds them.
    pub fn shared(&mut self, addr: usize, value: impl FnOnce(&mut Saver)) {
        if let Some(&idx) = self.cells.get(&addr) {
            self.u8(1);
            self.u32(idx);
        } else {
            self.u8(0);
            let idx = self.cells.len() as u32;
            self.cells.insert(addr, idx);
            value(self);
        }
    }
}

/// Decoding state: a cursor over the input plus the rebuilt alias table.
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// One slot per shared allocation defined so far, holding a handle
    /// to it (`None` while its value is still being decoded).
    cells: Vec<Option<Box<dyn Any>>>,
}

impl<'a> Loader<'a> {
    /// A loader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Loader {
            buf,
            pos: 0,
            cells: Vec::new(),
        }
    }

    /// Bytes not yet consumed.
    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let left = self.left();
        if left < n {
            return Err(WireError::Eof { wanted: n, left });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] at end of input.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a varint that must fit a `u32`.
    ///
    /// # Errors
    ///
    /// As [`Loader::u64`], and [`WireError::BadValue`] past `u32::MAX`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.u64()?).map_err(|_| WireError::BadValue { what: "u32" })
    }

    /// Reads a canonical LEB128 varint (see [`Saver::u64`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when the input ends inside it;
    /// [`WireError::BadValue`] on an encoding [`Saver::u64`] never
    /// writes — overlong (a zero last group), an eleventh byte, or bits
    /// past the 64th.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        // Most of what a snapshot holds is below 128: one byte, no loop.
        let first = self.u8()?;
        if first < 0x80 {
            return Ok(u64::from(first));
        }
        const BAD: WireError = WireError::BadValue { what: "varint" };
        let mut v = u64::from(first & 0x7f);
        for shift in (7..63).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                // A zero last group is a shorter value written long.
                return if b == 0 { Err(BAD) } else { Ok(v) };
            }
        }
        // The tenth byte has room for bit 63 alone, and ends the varint.
        match self.u8()? {
            1 => Ok(v | 1 << 63),
            _ => Err(BAD),
        }
    }

    /// Reads eight little-endian bytes (see [`Saver::fixed64`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when fewer than 8 bytes remain.
    pub fn fixed64(&mut self) -> Result<u64, WireError> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    /// Reads the element count of a container whose every element
    /// encodes to at least one byte — true of every [`Persist`] type but
    /// the zero-sized ones — and rejects a count the remaining input
    /// cannot hold, before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// [`WireError::BadValue`] on a count past the bytes that remain.
    // Not a container: `len` consumes a length *prefix* from the
    // stream, so an `is_empty` counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, WireError> {
        match usize::try_from(self.u64()?) {
            Ok(n) if n <= self.left() => Ok(n),
            _ => Err(WireError::BadValue { what: "length" }),
        }
    }

    /// Reads the element count of a sequence of `T` and returns it with
    /// the empty vector to push the elements into. The reservation is
    /// capped at the *memory* the remaining input could pay for (a
    /// decoded element may be many times its encoding), so a corrupt
    /// count costs at most what the input itself costs before the first
    /// element fails to decode; a longer honest sequence grows as it
    /// fills.
    ///
    /// Zero-sized elements (`()`) encode to no bytes, so no count of
    /// them can be checked against the input: a sequence of them does
    /// not compile.
    ///
    /// # Errors
    ///
    /// As [`Loader::len`].
    pub fn seq<T>(&mut self) -> Result<(usize, Vec<T>), WireError> {
        let n = self.len()?;
        Ok((n, self.vec_for(n)))
    }

    /// An empty vector for `n` elements of `T` about to be decoded, its
    /// reservation capped as [`Loader::seq`]'s is: at the memory the
    /// remaining input could pay for.
    #[must_use]
    pub fn vec_for<T>(&self, n: usize) -> Vec<T> {
        const {
            assert!(
                std::mem::size_of::<T>() != 0,
                "a sequence of zero-byte elements has no checkable length"
            );
        }
        Vec::with_capacity(n.min(self.left() / std::mem::size_of::<T>()))
    }

    /// Asserts the whole input was consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        let left = self.left();
        if left != 0 {
            return Err(WireError::TrailingBytes { left });
        }
        Ok(())
    }

    /// Decodes one handle (`H`: an [`Arc`]) to a
    /// shared allocation, mirroring [`Saver::shared`]: tag 0 reserves
    /// the next alias-table slot, builds the allocation through `build`
    /// and seats a handle in the slot; tag 1 clones the handle seated
    /// at the index that follows.
    ///
    /// # Errors
    ///
    /// [`WireError::BadCellIndex`] on a back-reference to a slot that is
    /// absent, still being decoded, or holds a handle of another type;
    /// [`WireError::BadTag`] on any other tag; whatever `build` returns.
    pub fn shared<H: Clone + 'static>(
        &mut self,
        what: &'static str,
        build: impl FnOnce(&mut Self) -> Result<H, WireError>,
    ) -> Result<H, WireError> {
        match self.u8()? {
            0 => {
                let slot = self.cells.len();
                self.cells.push(None);
                let handle = build(self)?;
                self.cells[slot] = Some(Box::new(handle.clone()));
                Ok(handle)
            }
            1 => {
                let index = self.u32()?;
                self.cells
                    .get(index as usize)
                    .and_then(|slot| slot.as_ref())
                    .and_then(|boxed| boxed.downcast_ref::<H>())
                    .cloned()
                    .ok_or(WireError::BadCellIndex { index })
            }
            tag => Err(WireError::BadTag { what, tag }),
        }
    }
}

/// Interns a decoded string, returning a `'static` reference. Each
/// distinct string leaks exactly once for the process lifetime — the
/// price of round-tripping the workspace's pervasive `&'static str`
/// labels (message classes, property names, observability phases)
/// through a byte stream. Repeated decodes of the same label are free.
#[must_use]
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = pool.lock().expect("intern pool poisoned");
    if let Some(&hit) = guard.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// Generates a [`Persist`](crate::wire::Persist) impl for a struct by
/// encoding its named fields in declaration order. Invoke it in the
/// module that defines the type so private fields stay private.
///
/// * `impl[generics] Type<..> where [bounds] { .. }` covers a generic
///   type; the `where [..]` part is optional.
/// * Fields after a `;`, each `field = expr`, are not encoded but
///   rebuilt on decode: `expr` reads the decoded fields by name, as
///   references, and may apply `?` to an `Option`, whose `None` is
///   [`WireError::BadValue`]. A derived field's type must be `Default`.
/// * A trailing `if check`, a `fn(&Self) -> bool`, makes `load` refuse a
///   decoded value `check` rejects with [`WireError::BadValue`].
#[macro_export]
macro_rules! persist_fields {
    (impl [$($g:tt)*] $ty:ty $(where [$($b:tt)*])? { $($body:tt)* } $(if $check:expr)?) => {
        $crate::persist_fields!(@impl [$($g)*] [$($($b)*)?] $ty { $($body)* } [$($check)?]);
    };
    (@impl [$($g:tt)*] [$($b:tt)*] $ty:ty
        { $($f:ident),+ $(,)? $(; $($d:ident = $e:expr),+ $(,)?)? } [$($check:expr)?]) => {
        impl<$($g)*> $crate::wire::Persist for $ty where $($b)* {
            fn save(&self, s: &mut $crate::wire::Saver) {
                $( $crate::wire::Persist::save(&self.$f, s); )+
            }
            fn load(
                l: &mut $crate::wire::Loader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let value = Self {
                    $( $f: $crate::wire::Persist::load(l)?, )+
                    $($( $d: Default::default(), )+)?
                };
                $crate::persist_fields!(@derive value stringify!($ty), [$($f),+] [$($($d = $e),+)?]);
                $( let check: fn(&Self) -> bool = $check;
                   if !check(&value) {
                       let what = stringify!($ty);
                       return Err($crate::wire::WireError::BadValue { what });
                   } )?
                Ok(value)
            }
        }
    };
    (@derive $value:ident $what:expr, [$($f:ident),+] []) => {};
    // The derived expressions read the fields through a borrow of the
    // decoded value: plain bindings would leave their types uninferred.
    (@derive $value:ident $what:expr, [$($f:ident),+] [$($d:ident = $e:expr),+]) => {
        #[allow(unused_variables, clippy::redundant_closure_call)]
        let derived = {
            let Self { $($f,)+ .. } = &$value;
            (|| Some(($($e,)+)))()
        };
        let ($($d,)+) = derived.ok_or($crate::wire::WireError::BadValue { what: $what })?;
        let $value = Self { $($d,)+ ..$value };
    };
    ($ty:ty { $($body:tt)* } $(if $check:expr)?) => {
        $crate::persist_fields!(@impl [] [] $ty { $($body)* } [$($check)?]);
    };
}

/// Generates a [`Persist`](crate::wire::Persist) impl for a fieldless
/// enum from explicit `variant = tag` pairs.
#[macro_export]
macro_rules! persist_unit_enum {
    ($ty:ty { $($variant:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::wire::Persist for $ty {
            fn save(&self, s: &mut $crate::wire::Saver) {
                s.u8(match self { $( <$ty>::$variant => $tag, )+ });
            }
            fn load(
                l: &mut $crate::wire::Loader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match l.u8()? {
                    $( $tag => Ok(<$ty>::$variant), )+
                    tag => Err($crate::wire::WireError::BadTag {
                        what: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------
// Primitive and std-container impls.
// ---------------------------------------------------------------------

impl Persist for u8 {
    fn save(&self, s: &mut Saver) {
        s.u8(*self);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        l.u8()
    }
}

/// Travels as a varint like its wider siblings, range-checked on load.
impl Persist for u16 {
    fn save(&self, s: &mut Saver) {
        s.u32(u32::from(*self));
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        u16::try_from(l.u32()?).map_err(|_| WireError::BadValue { what: "u16" })
    }
}

impl Persist for u32 {
    fn save(&self, s: &mut Saver) {
        s.u32(*self);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        l.u32()
    }
}

impl Persist for u64 {
    fn save(&self, s: &mut Saver) {
        s.u64(*self);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        l.u64()
    }
}

impl Persist for usize {
    fn save(&self, s: &mut Saver) {
        s.len(*self);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        usize::try_from(l.u64()?).map_err(|_| WireError::BadValue { what: "usize" })
    }
}

impl Persist for bool {
    fn save(&self, s: &mut Saver) {
        s.u8(u8::from(*self));
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        match l.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Persist for () {
    fn save(&self, _s: &mut Saver) {}
    fn load(_l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

/// RNG state words: fixed-width, the one place the codec expects no
/// small values.
impl Persist for [u64; 4] {
    fn save(&self, s: &mut Saver) {
        for w in self {
            s.fixed64(*w);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok([l.fixed64()?, l.fixed64()?, l.fixed64()?, l.fixed64()?])
    }
}

impl Persist for String {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        s.bytes(self.as_bytes());
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let n = l.len()?;
        let raw = l.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadValue { what: "String" })
    }
}

impl Persist for &'static str {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        s.bytes(self.as_bytes());
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let n = l.len()?;
        let raw = l.take(n)?;
        let utf8 = std::str::from_utf8(raw).map_err(|_| WireError::BadValue {
            what: "&'static str",
        })?;
        Ok(intern(utf8))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, s: &mut Saver) {
        match self {
            None => s.u8(0),
            Some(v) => {
                s.u8(1);
                v.save(s);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        match l.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(l)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        for v in self {
            v.save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let (n, mut out) = l.seq()?;
        for _ in 0..n {
            out.push(T::load(l)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        for v in self {
            v.save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(Vec::load(l)?.into())
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        for (k, v) in self {
            k.save(s);
            v.save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let n = l.len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::load(l)?;
            let v = V::load(l)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Persist + Ord> Persist for BTreeSet<T> {
    fn save(&self, s: &mut Saver) {
        s.len(self.len());
        for v in self {
            v.save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let n = l.len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::load(l)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, s: &mut Saver) {
        self.0.save(s);
        self.1.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok((A::load(l)?, B::load(l)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, s: &mut Saver) {
        self.0.save(s);
        self.1.save(s);
        self.2.save(s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok((A::load(l)?, B::load(l)?, C::load(l)?))
    }
}

/// `Arc` payloads encode through the alias table (see the module
/// docs): the first handle to an allocation carries the value, every
/// later one an index, and decoding seats them all on one rebuilt
/// `Arc` — handles that were `Arc::ptr_eq` before a round trip are
/// after it. The payload is immutable, so the sharing is not behaviour;
/// it is what the value costs, in bytes on disk and in memory after a
/// resume, and the encoding is a function of it: two handles to equal
/// payloads in *separate* allocations encode the value twice, and
/// decode to separate allocations again.
impl<T: Persist + 'static> Persist for Arc<T> {
    fn save(&self, s: &mut Saver) {
        s.shared(Arc::as_ptr(self) as usize, |s| T::save(self, s));
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        l.shared("Arc", |l| Ok(Arc::new(T::load(l)?)))
    }
}

// ---------------------------------------------------------------------
// Core model types.
// ---------------------------------------------------------------------

impl Persist for Identity {
    fn save(&self, s: &mut Saver) {
        s.u64(self.raw());
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(Identity::new(l.u64()?))
    }
}

// An assignment is its identifiers in process order, through the alias
// table: the processes of a run share one table, and so do the ones
// decoded from it.
crate::persist_fields!(IdentityAssignment { ids } if |a| !a.ids.is_empty());

impl Persist for Time {
    fn save(&self, s: &mut Saver) {
        s.u64(self.ticks());
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(Time::from_ticks(l.u64()?))
    }
}

impl Persist for Span {
    fn save(&self, s: &mut Saver) {
        s.u64(self.ticks());
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(Span::from_ticks(l.u64()?))
    }
}

/// Multisets round-trip through their `(element, multiplicity)` pairs.
/// Decoding inserts each pair, so the decoded bag is sorted and its
/// total is the sum of its counts whatever order the bytes hold.
impl<T: Persist + Ord> Persist for Multiset<T> {
    fn save(&self, s: &mut Saver) {
        s.len(self.distinct_len());
        for (x, n) in self.counted() {
            x.save(s);
            s.len(n);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        let distinct = l.len()?;
        let mut out = Multiset::new();
        for _ in 0..distinct {
            let x = T::load(l)?;
            let n = usize::load(l)?;
            // Multiplicities are counts, not allocations, but their sum
            // is the set's length and must exist.
            if out.len().checked_add(n).is_none() {
                return Err(WireError::BadValue { what: "Multiset" });
            }
            out.insert_n(x, n);
        }
        Ok(out)
    }
}

impl Persist for Label {
    fn save(&self, s: &mut Saver) {
        match self {
            Label::IdSet(ids) => {
                s.u8(0);
                ids.save(s);
            }
            Label::IdMultiset(m) => {
                s.u8(1);
                m.save(s);
            }
            Label::Opaque(token) => {
                s.u8(2);
                s.u64(*token);
            }
            Label::Count(y) => {
                s.u8(3);
                s.len(*y);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        match l.u8()? {
            0 => Ok(Label::IdSet(Persist::load(l)?)),
            1 => Ok(Label::IdMultiset(Persist::load(l)?)),
            2 => Ok(Label::Opaque(l.u64()?)),
            3 => Ok(Label::Count(usize::load(l)?)),
            tag => Err(WireError::BadTag { what: "Label", tag }),
        }
    }
}

crate::persist_fields!(EvtHPOutput { h_trusted });
crate::persist_fields!(HOmegaOutput {
    h_leader,
    h_multiplicity
});
crate::persist_fields!(HSigmaOutput { h_quora, h_labels });
crate::persist_fields!(PropertyViolation {
    class,
    property,
    detail
});

impl<R: Persist> Persist for RunVerdict<R> {
    fn save(&self, s: &mut Saver) {
        match self {
            RunVerdict::Pass(r) => {
                s.u8(0);
                r.save(s);
            }
            RunVerdict::SafetyViolated(v) => {
                s.u8(1);
                v.save(s);
            }
            RunVerdict::LivenessViolated(v) => {
                s.u8(2);
                v.save(s);
            }
            RunVerdict::LivenessExcused(v) => {
                s.u8(3);
                v.save(s);
            }
            RunVerdict::ByzantineExpected(v) => {
                s.u8(4);
                v.save(s);
            }
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        match l.u8()? {
            0 => Ok(RunVerdict::Pass(R::load(l)?)),
            1 => Ok(RunVerdict::SafetyViolated(Persist::load(l)?)),
            2 => Ok(RunVerdict::LivenessViolated(Persist::load(l)?)),
            3 => Ok(RunVerdict::LivenessExcused(Persist::load(l)?)),
            4 => Ok(RunVerdict::ByzantineExpected(Persist::load(l)?)),
            tag => Err(WireError::BadTag {
                what: "RunVerdict",
                tag,
            }),
        }
    }
}

/// Encodes a value into a standalone byte vector.
#[must_use]
pub fn to_bytes<T: Persist>(value: &T) -> Vec<u8> {
    let mut s = Saver::new();
    value.save(&mut s);
    s.finish()
}

/// Decodes a value from a standalone byte vector, requiring the whole
/// input to be consumed.
///
/// # Errors
///
/// Any [`WireError`] on malformed or trailing bytes.
pub fn from_bytes<T: Persist>(bytes: &[u8]) -> Result<T, WireError> {
    let mut l = Loader::new(bytes);
    let v = T::load(&mut l)?;
    l.expect_end()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let bytes = to_bytes(v);
        from_bytes(&bytes).expect("roundtrip")
    }

    /// A generic struct with a field rebuilt on decode and a check.
    #[derive(Debug, PartialEq)]
    struct Toy<T> {
        items: Vec<T>,
        base: u64,
        top: u64,
    }

    crate::persist_fields!(impl[T: Persist] Toy<T> {
        items,
        base;
        top = base.checked_add(items.len() as u64)?
    } if |s| s.top < 1_000);

    #[test]
    fn a_generic_struct_encodes_its_encoded_fields_and_derives_the_rest() {
        let value = Toy {
            items: vec![7u8, 9],
            base: 40,
            top: 42,
        };
        assert_eq!(to_bytes(&value), to_bytes(&(vec![7u8, 9], 40u64)));
        assert_eq!(roundtrip(&value), value);
        let what = "Toy<T>";
        let overflow = to_bytes(&(vec![1u8], u64::MAX));
        assert_eq!(
            from_bytes::<Toy<u8>>(&overflow),
            Err(WireError::BadValue { what })
        );
        let refused = to_bytes(&(vec![1u8], 999u64));
        assert_eq!(
            from_bytes::<Toy<u8>>(&refused),
            Err(WireError::BadValue { what })
        );
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&7u64), 7);
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&String::from("hé")), "hé");
        assert_eq!(roundtrip(&Some(3u32)), Some(3));
        assert_eq!(roundtrip(&vec![1u64, 2, 3]), vec![1, 2, 3]);
        assert_eq!(
            roundtrip(&(Time::from_ticks(5), Span::from_ticks(9)))
                .0
                .ticks(),
            5
        );
    }

    #[test]
    fn static_str_interns_to_equal_value() {
        let s: &'static str = "safety";
        let back = roundtrip(&s);
        assert_eq!(back, "safety");
        // Two decodes of the same label share one interned allocation.
        let again: &'static str = from_bytes(&to_bytes(&s)).unwrap();
        assert!(std::ptr::eq(back.as_ptr(), again.as_ptr()));
    }

    #[test]
    fn multiset_roundtrips_through_its_pairs() {
        let mut m = Multiset::new();
        for i in 0..40u64 {
            m.insert_n(Identity::new(i % 5), (i as usize % 3) + 1);
        }
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn multiplicities_that_overflow_the_length_are_a_bad_value() {
        let mut bytes = varint(2);
        for id in [1u64, 2] {
            bytes.extend(varint(id));
            bytes.extend(varint(u64::MAX));
        }
        assert_eq!(
            from_bytes::<Multiset<Identity>>(&bytes),
            Err(WireError::BadValue { what: "Multiset" })
        );
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r: Result<Vec<u64>, _> = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&3u64);
        bytes.push(0);
        let r: Result<u64, _> = from_bytes(&bytes);
        assert_eq!(r, Err(WireError::TrailingBytes { left: 1 }));
    }

    #[test]
    fn verdicts_roundtrip() {
        let v: RunVerdict<()> = RunVerdict::SafetyViolated(PropertyViolation {
            class: "HΣ",
            property: "safety",
            detail: "quorums missed".into(),
        });
        assert_eq!(roundtrip(&v), v);
        let p: RunVerdict<()> = RunVerdict::Pass(());
        assert_eq!(roundtrip(&p), p);
    }

    /// Bytes [`Saver::u64`] writes for `v`.
    fn varint(v: u64) -> Vec<u8> {
        to_bytes(&v)
    }

    #[test]
    fn varints_are_minimal_at_every_group_boundary() {
        assert_eq!(varint(0), [0]);
        for k in 1..=9u32 {
            let below = (1u64 << (7 * k)) - 1;
            assert_eq!(varint(below).len(), k as usize, "2^{} - 1", 7 * k);
            assert_eq!(varint(below + 1).len(), k as usize + 1, "2^{}", 7 * k);
            assert_eq!(roundtrip(&below), below);
            assert_eq!(roundtrip(&(below + 1)), below + 1);
        }
        assert_eq!(varint(u64::MAX).len(), 10);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
    }

    proptest::proptest! {
        /// Every magnitude of `u64` (the shift spreads the draws over
        /// all ten lengths) round-trips, costs its magnitude, and cut
        /// short is an `Eof`, never a shorter value.
        #[test]
        fn varints_round_trip_over_all_of_u64(raw in proptest::any::<u64>(), shift in 0u32..64) {
            let v = raw >> shift;
            let bytes = varint(v);
            let bits = (64 - v.leading_zeros()).max(1) as usize;
            proptest::prop_assert_eq!(bytes.len(), bits.div_ceil(7));
            proptest::prop_assert_eq!(from_bytes::<u64>(&bytes), Ok(v));
            for cut in 0..bytes.len() {
                proptest::prop_assert!(matches!(
                    from_bytes::<u64>(&bytes[..cut]),
                    Err(WireError::Eof { .. })
                ));
            }
        }
    }

    #[test]
    fn encodings_the_saver_never_writes_are_bad_values() {
        let bad = Err(WireError::BadValue { what: "varint" });
        // Overlong: a zero last group.
        assert_eq!(from_bytes::<u64>(&[0x80, 0x00]), bad);
        assert_eq!(from_bytes::<u64>(&[0xff, 0x80, 0x00]), bad);
        // Bits past the 64th in the tenth byte.
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(from_bytes::<u64>(&wide), bad);
        // An eleventh byte.
        let mut long = vec![0x80; 10];
        long.push(0x01);
        assert_eq!(from_bytes::<u64>(&long), bad);
    }

    #[test]
    fn narrower_integers_reject_what_does_not_fit() {
        assert_eq!(roundtrip(&u16::MAX), u16::MAX);
        assert_eq!(roundtrip(&u32::MAX), u32::MAX);
        assert_eq!(
            from_bytes::<u16>(&varint(u64::from(u16::MAX) + 1)),
            Err(WireError::BadValue { what: "u16" })
        );
        assert_eq!(
            from_bytes::<u32>(&varint(u64::from(u32::MAX) + 1)),
            Err(WireError::BadValue { what: "u32" })
        );
    }

    #[test]
    fn rng_words_are_fixed_width() {
        let words = [0, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        assert_eq!(to_bytes(&words).len(), 32);
        assert_eq!(roundtrip(&words), words);
    }

    #[test]
    fn arc_sharing_survives_and_the_payload_is_written_once() {
        let shared = Arc::new(vec![300u64, 301, 302]);
        let equal_but_separate = Arc::new(Vec::clone(&shared));
        let handles = vec![shared.clone(), shared.clone(), equal_but_separate, shared];
        let bytes = to_bytes(&handles);
        let once = 1 + to_bytes(&*handles[0]).len();
        // Count, two definitions, two (tag, index) back-references.
        assert_eq!(bytes.len(), 1 + 2 * once + 2 * 2);
        let back: Vec<Arc<Vec<u64>>> = from_bytes(&bytes).unwrap();
        assert_eq!(back, handles);
        assert!(Arc::ptr_eq(&back[0], &back[1]));
        assert!(Arc::ptr_eq(&back[0], &back[3]));
        assert!(!Arc::ptr_eq(&back[0], &back[2]));
        assert!(!Arc::ptr_eq(&back[0], &handles[0]));
        // The bytes are a function of the value and its sharing: what
        // they decode to encodes to them again.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn bad_back_references_are_typed_errors() {
        let bad = |index| Err(WireError::BadCellIndex { index });
        // Past the table.
        assert_eq!(from_bytes::<Arc<u64>>(&[1, 5]).map(|_| ()), bad(5));
        // To its own definition: slot 0 is reserved but not yet seated
        // while the value that holds the back-reference is decoded.
        assert_eq!(from_bytes::<Arc<Arc<u64>>>(&[0, 1, 0]).map(|_| ()), bad(0));
        // Across payload types.
        let crossed = [0, 7, 1, 0];
        assert_eq!(
            from_bytes::<(Arc<u64>, Arc<u32>)>(&crossed).map(|_| ()),
            bad(0)
        );
        // Neither a definition nor a reference.
        assert_eq!(
            from_bytes::<Arc<u64>>(&[2, 0]).map(|_| ()),
            Err(WireError::BadTag {
                what: "Arc",
                tag: 2
            })
        );
    }

    #[test]
    fn a_count_is_bounded_by_the_input_before_anything_is_reserved() {
        // A count the input cannot hold.
        let mut bytes = varint(1 << 40);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::BadValue { what: "length" })
        );
        assert_eq!(
            from_bytes::<VecDeque<u64>>(&bytes),
            Err(WireError::BadValue { what: "length" })
        );
        // A count it could hold reserves no more memory than is left,
        // and the honest sequence still decodes.
        let honest = to_bytes(&vec![5u64; 1_000]);
        let mut l = Loader::new(&honest);
        let (n, out) = l.seq::<u64>().unwrap();
        assert_eq!(n, 1_000);
        assert!(out.capacity() * std::mem::size_of::<u64>() <= honest.len());
        assert_eq!(from_bytes::<Vec<u64>>(&honest).unwrap(), vec![5u64; 1_000]);
    }
}
