//! Hand-rolled binary persistence for durable snapshots.
//!
//! The workspace's vendored `serde` can serialize but its `Deserialize`
//! is a marker-only trait (no `Deserializer` machinery is vendored), so
//! the durable checkpoint layer cannot round-trip through it. This
//! module is the replacement: a small, deterministic, little-endian
//! binary codec with exactly the features snapshots need and nothing
//! more.
//!
//! # The aliasing contract
//!
//! Process state may contain [`SharedCell`]
//! handles that alias one shared allocation (a detector half wired to a
//! consensus half inside one simulated process — see [`crate::fork`]).
//! A naive per-field encoding would tear that wiring apart: each handle
//! would decode into its own private cell and the halves would stop
//! observing each other. [`Saver`] and [`Loader`] therefore carry an
//! alias table, the serialization analogue of
//! [`ForkSpace`](crate::fork::ForkSpace): the first handle to a cell
//! encodes its value and claims an index, every later handle encodes
//! only the index, and decoding re-seats all of them onto one rebuilt
//! cell. A round-tripped process keeps its internal wiring.
//!
//! # Determinism
//!
//! Encoding is a pure function of the traversal order, which is a pure
//! function of the value — no maps with nondeterministic iteration
//! order, no pointers, no timestamps. Encoding the same snapshot twice
//! yields identical bytes, which is what lets the checkpoint layer
//! fingerprint and checksum its files.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::classes::{EvtHPOutput, HOmegaOutput, HSigmaOutput, Label};
use crate::identity::Identity;
use crate::multiset::Multiset;
use crate::properties::{PropertyViolation, RunVerdict};
use crate::query::SharedCell;
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
    /// A shared-cell back-reference pointed outside the alias table or
    /// at a cell of a different type.
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
                    "shared-cell back-reference {index} out of range or wrong type"
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
/// The contract mirrors [`ForkState`](crate::fork::ForkState): `load`
/// must rebuild a value whose *future behaviour* is byte-identical to
/// the saved one's. Representation may differ (a
/// [`Multiset`]'s spill threshold, a recycling ring's spare pool) as
/// long as no observable behaviour can tell.
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

/// Encoding state: the output buffer plus the shared-cell alias table.
#[derive(Default)]
pub struct Saver {
    buf: Vec<u8>,
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

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lengths, indices).
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The alias-table index of a cell already encoded this pass, if any.
    #[must_use]
    pub fn cell_ref(&self, alias_key: usize) -> Option<u32> {
        self.cells.get(&alias_key).copied()
    }

    /// Claims the next alias-table index for a cell about to be encoded.
    /// Must be called **before** encoding the cell's value so nested
    /// cells number themselves in the same order the loader rebuilds.
    pub fn cell_define(&mut self, alias_key: usize) -> u32 {
        let idx = self.cells.len() as u32;
        self.cells.insert(alias_key, idx);
        idx
    }
}

/// Decoding state: a cursor over the input plus the rebuilt alias table.
pub struct Loader<'a> {
    buf: &'a [u8],
    pos: usize,
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

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let left = self.buf.len() - self.pos;
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

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Eof`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a length (`u64`) and checks it fits `usize` and the
    /// remaining input can plausibly hold that many elements (each at
    /// least one byte — rejects absurd lengths from corrupt input
    /// before any allocation).
    ///
    /// # Errors
    ///
    /// [`WireError::BadValue`] on an implausible length.
    // Not a container: `len` consumes a length *prefix* from the
    // stream, so an `is_empty` counterpart would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| WireError::BadValue { what: "length" })?;
        if v > self.buf.len().saturating_sub(self.pos).saturating_add(1) * 8 {
            return Err(WireError::BadValue { what: "length" });
        }
        Ok(v)
    }

    /// Asserts the whole input was consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(WireError::TrailingBytes { left });
        }
        Ok(())
    }

    /// Reserves the next alias-table slot (mirroring
    /// [`Saver::cell_define`]) and returns its index; fill it with
    /// [`Loader::cell_fill`] once the cell exists.
    pub fn cell_reserve(&mut self) -> u32 {
        self.cells.push(None);
        (self.cells.len() - 1) as u32
    }

    /// Seats the rebuilt cell into its reserved slot.
    pub fn cell_fill(&mut self, idx: u32, cell: Box<dyn Any>) {
        self.cells[idx as usize] = Some(cell);
    }

    /// An aliasing handle to the cell at `idx`.
    ///
    /// # Errors
    ///
    /// [`WireError::BadCellIndex`] when the slot is absent, unfilled, or
    /// holds a cell of a different type.
    pub fn cell_ref<T: Clone + 'static>(&self, idx: u32) -> Result<T, WireError> {
        self.cells
            .get(idx as usize)
            .and_then(|slot| slot.as_ref())
            .and_then(|boxed| boxed.downcast_ref::<T>())
            .cloned()
            .ok_or(WireError::BadCellIndex { index: idx })
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
#[macro_export]
macro_rules! persist_fields {
    ($ty:ty { $($f:ident),+ $(,)? }) => {
        impl $crate::wire::Persist for $ty {
            fn save(&self, s: &mut $crate::wire::Saver) {
                $( $crate::wire::Persist::save(&self.$f, s); )+
            }
            fn load(
                l: &mut $crate::wire::Loader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $( $f: $crate::wire::Persist::load(l)? ),+ })
            }
        }
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

/// Travels as a `u32`: the codec has no 16-bit primitive.
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
        let v = l.u64()?;
        usize::try_from(v).map_err(|_| WireError::BadValue { what: "usize" })
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

impl Persist for [u64; 4] {
    fn save(&self, s: &mut Saver) {
        for w in self {
            s.u64(*w);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok([l.u64()?, l.u64()?, l.u64()?, l.u64()?])
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
        let n = l.len()?;
        let mut out = Vec::with_capacity(n);
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
        let n = l.len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(l)?);
        }
        Ok(out)
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

/// `Arc` payloads are encoded by value; decoding allocates a fresh
/// `Arc`. Cross-handle sharing of *immutable* payloads is a cost
/// optimization, not observable state, so losing it across a round
/// trip cannot change behaviour.
impl<T: Persist> Persist for Arc<T> {
    fn save(&self, s: &mut Saver) {
        T::save(self, s);
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        Ok(Arc::new(T::load(l)?))
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

/// Multisets round-trip representation-independently through their
/// `(element, multiplicity)` pairs; whether the rebuilt set is inline
/// or spilled is unobservable.
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

/// Shared cells encode through the alias table (see the module docs):
/// tag 0 carries the value and claims the next index, tag 1 is a
/// back-reference. Decoding re-seats every back-reference onto the one
/// rebuilt cell, so aliasing survives the round trip.
impl<T: Persist + Clone + Send + 'static> Persist for SharedCell<T> {
    fn save(&self, s: &mut Saver) {
        if let Some(idx) = s.cell_ref(self.alias_key()) {
            s.u8(1);
            s.u32(idx);
        } else {
            s.u8(0);
            s.cell_define(self.alias_key());
            self.get().save(s);
        }
    }
    fn load(l: &mut Loader<'_>) -> Result<Self, WireError> {
        match l.u8()? {
            0 => {
                let idx = l.cell_reserve();
                let value = T::load(l)?;
                let cell = SharedCell::new(value);
                l.cell_fill(idx, Box::new(cell.clone()));
                Ok(cell)
            }
            1 => {
                let idx = l.u32()?;
                l.cell_ref::<SharedCell<T>>(idx)
            }
            tag => Err(WireError::BadTag {
                what: "SharedCell",
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
    fn multiset_roundtrips_representation_independently() {
        let mut m = Multiset::new();
        for i in 0..40u64 {
            m.insert_n(Identity::new(i % 5), (i as usize % 3) + 1);
        }
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn shared_cell_aliasing_survives() {
        let cell = SharedCell::new(HOmegaOutput::new(Identity::new(3), 2));
        let pair = (cell.clone(), cell.clone());
        let bytes = to_bytes(&pair);
        let (a, b): (SharedCell<HOmegaOutput>, SharedCell<HOmegaOutput>) =
            from_bytes(&bytes).unwrap();
        // Same rebuilt allocation: a write through one is seen by the other.
        a.set(HOmegaOutput::new(Identity::new(9), 1));
        assert_eq!(b.get().h_leader, Identity::new(9));
        // But fully detached from the original.
        assert_eq!(cell.get().h_leader, Identity::new(3));
    }

    #[test]
    fn distinct_cells_stay_distinct() {
        let a = SharedCell::new(1u64);
        let b = SharedCell::new(1u64);
        let (ra, rb): (SharedCell<u64>, SharedCell<u64>) =
            from_bytes(&to_bytes(&(a.clone(), b.clone()))).unwrap();
        ra.set(5);
        assert_eq!(rb.get(), 1);
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
}
