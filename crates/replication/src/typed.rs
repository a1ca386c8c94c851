//! The typed object API: `ObjectType` classes and `Handle<O>` object references.
//!
//! The paper's model is *typed* persistent objects — counters, accounts,
//! directories — invoked through atomic actions. This module gives the
//! transaction surface its types in two pieces:
//!
//! * [`ObjectType`] extends [`ReplicaObject`] with the *class-level* codec
//!   contract: an `Op` type, a `Reply` type, and encode/decode functions
//!   for both. The three built-in classes ([`Counter`], [`KvMap`],
//!   [`Account`]) implement it, and the scenario engine's oracle and
//!   workload generators dispatch through it instead of keeping parallel
//!   per-class match arms.
//! * [`Handle`]`<O>` names one object of class `O` for the transaction
//!   surface: `tx.invoke(&handle, CounterOp::Add(10))? -> i64`, with the
//!   read/write lock intent inferred from the operation
//!   ([`ObjectType::op_is_read_only`]) and the operation encoded into a
//!   pooled wire frame (no caller-side `Vec<u8>` per call).
//!
//! See `docs/OBJECTS.md` for the full design.

use crate::object::{Account, AccountOp, Counter, CounterOp, KvMap, KvOp, ReplicaObject};
use crate::system::Client;
use groupview_store::{TypeTag, Uid};
use std::fmt;
use std::marker::PhantomData;

/// A persistent object class: the replica behaviour of [`ReplicaObject`]
/// plus the typed operation/reply codec contract client surfaces need.
///
/// Implementations must keep `encode_op`/`decode_op` and
/// `encode_reply`/`decode_reply` exact inverses, and the reply wire format
/// identical to what [`ReplicaObject::invoke`] produces — property-tested
/// for the built-in classes in `tests/typed_properties.rs`.
pub trait ObjectType: ReplicaObject + Sized + 'static {
    /// The class's operation type (e.g. [`CounterOp`]).
    type Op: fmt::Debug + Clone + PartialEq;
    /// The class's decoded reply type (e.g. `i64` for counters).
    type Reply: fmt::Debug + Clone + PartialEq;

    /// The stable class tag ([`ReplicaObject::type_tag`] of every instance).
    const TAG: TypeTag;

    /// Appends the wire encoding of `op` to `buf` (composes with the
    /// pooled `WireEncoder`).
    fn encode_op(op: &Self::Op, buf: &mut Vec<u8>);

    /// Decodes an operation; `None` for malformed input.
    fn decode_op(bytes: &[u8]) -> Option<Self::Op>;

    /// Whether `op` is read-only (drives the object lock mode and the
    /// commit-time no-copy optimisation).
    fn op_is_read_only(op: &Self::Op) -> bool;

    /// Appends the wire encoding of `reply` to `buf` — the same bytes the
    /// class's [`ReplicaObject::invoke`] writes for the operation that
    /// produced it.
    fn encode_reply(reply: &Self::Reply, buf: &mut Vec<u8>);

    /// Decodes the reply to `op`; `None` for malformed bytes. The reply
    /// format may depend on the operation (a [`KvOp::Len`] reply is a
    /// count, a [`KvOp::Get`] reply a value), so decoding is op-contextual.
    fn decode_reply(op: &Self::Op, reply: &[u8]) -> Option<Self::Reply>;

    /// Convenience: the wire encoding of `op` as a fresh vector (cold
    /// paths; hot paths encode through a pooled frame).
    fn op_vec(op: &Self::Op) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::encode_op(op, &mut buf);
        buf
    }

    /// Convenience: the wire encoding of `reply` as a fresh vector.
    fn reply_vec(reply: &Self::Reply) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::encode_reply(reply, &mut buf);
        buf
    }

    /// Human-readable decode of encoded op bytes (oracle diagnostics).
    fn describe_op(bytes: &[u8]) -> String {
        format!("{:?}", Self::decode_op(bytes))
    }
}

// ---------------------------------------------------------------------------
// Built-in class implementations
// ---------------------------------------------------------------------------

impl ObjectType for Counter {
    type Op = CounterOp;
    type Reply = i64;

    const TAG: TypeTag = Counter::TYPE_TAG;

    fn encode_op(op: &CounterOp, buf: &mut Vec<u8>) {
        match op {
            CounterOp::Get => buf.push(0),
            CounterOp::Add(d) => {
                buf.push(1);
                buf.extend_from_slice(&d.to_le_bytes());
            }
        }
    }

    fn decode_op(bytes: &[u8]) -> Option<CounterOp> {
        CounterOp::decode(bytes)
    }

    fn op_is_read_only(op: &CounterOp) -> bool {
        matches!(op, CounterOp::Get)
    }

    fn encode_reply(reply: &i64, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&reply.to_le_bytes());
    }

    fn decode_reply(_op: &CounterOp, reply: &[u8]) -> Option<i64> {
        CounterOp::decode_reply(reply)
    }
}

/// A typed [`KvMap`] reply: values for `Get`/`Put`/`Delete` (empty when the
/// key was absent), a count for `Len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReply {
    /// The value read, or the previous value of a `Put`/`Delete` (empty
    /// string when there was none).
    Value(String),
    /// The entry count of a `Len`.
    Len(u64),
}

impl KvReply {
    /// The carried value, if this is a [`KvReply::Value`].
    pub fn value(&self) -> Option<&str> {
        match self {
            KvReply::Value(v) => Some(v),
            KvReply::Len(_) => None,
        }
    }

    /// The carried count, if this is a [`KvReply::Len`].
    pub fn count(&self) -> Option<u64> {
        match self {
            KvReply::Value(_) => None,
            KvReply::Len(n) => Some(*n),
        }
    }
}

impl ObjectType for KvMap {
    type Op = KvOp;
    type Reply = KvReply;

    const TAG: TypeTag = KvMap::TYPE_TAG;

    fn encode_op(op: &KvOp, buf: &mut Vec<u8>) {
        // Delegate to the escape-hatch encoder (one source of truth for the
        // wire layout); KvOp encoding builds nested strings anyway.
        buf.extend_from_slice(&op.encode());
    }

    fn decode_op(bytes: &[u8]) -> Option<KvOp> {
        KvOp::decode(bytes)
    }

    fn op_is_read_only(op: &KvOp) -> bool {
        matches!(op, KvOp::Get(_) | KvOp::Len)
    }

    fn encode_reply(reply: &KvReply, buf: &mut Vec<u8>) {
        match reply {
            KvReply::Value(v) => buf.extend_from_slice(v.as_bytes()),
            KvReply::Len(n) => buf.extend_from_slice(&n.to_le_bytes()),
        }
    }

    fn decode_reply(op: &KvOp, reply: &[u8]) -> Option<KvReply> {
        match op {
            KvOp::Len => Some(KvReply::Len(u64::from_le_bytes(
                reply.get(..8)?.try_into().ok()?,
            ))),
            KvOp::Get(_) | KvOp::Put(..) | KvOp::Delete(_) => {
                Some(KvReply::Value(std::str::from_utf8(reply).ok()?.to_string()))
            }
        }
    }
}

/// Derives an [`ObjectType`] impl for a class whose operations follow the
/// workspace's standard wire shape: one discriminant byte, then an optional
/// fixed-width little-endian integer payload, with replies that are a single
/// fixed-width little-endian integer. [`Counter`] and [`Account`] fit this
/// shape; [`KvMap`] (string payloads, op-contextual replies) does not and
/// keeps its hand-written impl.
///
/// ```rust
/// use groupview_replication::{object_class, ObjectType};
/// # use groupview_replication::{Account, AccountOp};
/// // The Account impl in this crate is exactly:
/// // object_class! {
/// //     impl ObjectType for Account {
/// //         type Op = AccountOp;
/// //         type Reply = u64;
/// //         const TAG = Account::TYPE_TAG;
/// //         ops {
/// //             0 => Balance: read,
/// //             1 => Deposit(u64): write,
/// //             2 => Withdraw(u64): write,
/// //         }
/// //     }
/// // }
/// assert_eq!(Account::op_vec(&AccountOp::Deposit(7)), AccountOp::Deposit(7).encode());
/// ```
///
/// The generated codec is bit-identical to the hand-written layout:
/// `encode_op` emits `[disc][payload.to_le_bytes()]`, `decode_op` reads the
/// payload from bytes `1..1+size_of::<P>()` (trailing bytes ignored, short
/// or unknown input decodes to `None`), and the reply codec is
/// `Reply::to_le_bytes`/`from_le_bytes`. Payload types must be `Copy`
/// integers (anything with `to_le_bytes`/`from_le_bytes`).
#[macro_export]
macro_rules! object_class {
    (
        impl ObjectType for $class:ty {
            type Op = $op:ident;
            type Reply = $reply:ty;
            const TAG = $tag:expr;
            ops {
                $( $disc:literal => $variant:ident $(($payload:ty))? : $mode:ident ),+ $(,)?
            }
        }
    ) => {
        impl $crate::ObjectType for $class {
            type Op = $op;
            type Reply = $reply;

            const TAG: $crate::__TypeTag = $tag;

            fn encode_op(op: &$op, buf: &mut Vec<u8>) {
                $( $crate::object_class!(@encode_arm op, buf, $disc, $op, $variant $(, $payload)?); )+
            }

            fn decode_op(bytes: &[u8]) -> Option<$op> {
                match *bytes.first()? {
                    $( $disc => $crate::object_class!(@decode_arm bytes, $op, $variant $(, $payload)?), )+
                    _ => None,
                }
            }

            fn op_is_read_only(op: &$op) -> bool {
                $( $crate::object_class!(@read_arm op, $op, $variant, $mode); )+
                unreachable!("operation not listed in object_class! ops")
            }

            fn encode_reply(reply: &$reply, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&reply.to_le_bytes());
            }

            fn decode_reply(_op: &$op, reply: &[u8]) -> Option<$reply> {
                Some(<$reply>::from_le_bytes(
                    reply.get(..core::mem::size_of::<$reply>())?.try_into().ok()?,
                ))
            }
        }
    };

    // -- internal: one encode_op arm (unit / payload variant) --------------
    (@encode_arm $val:ident, $buf:ident, $disc:literal, $op:ident, $variant:ident) => {
        if matches!($val, $op::$variant { .. }) {
            $buf.push($disc);
            return;
        }
    };
    (@encode_arm $val:ident, $buf:ident, $disc:literal, $op:ident, $variant:ident, $payload:ty) => {
        if let $op::$variant(payload) = $val {
            $buf.push($disc);
            $buf.extend_from_slice(&payload.to_le_bytes());
            return;
        }
    };

    // -- internal: one decode_op arm ---------------------------------------
    (@decode_arm $bytes:ident, $op:ident, $variant:ident) => {
        Some($op::$variant)
    };
    (@decode_arm $bytes:ident, $op:ident, $variant:ident, $payload:ty) => {
        Some($op::$variant(<$payload>::from_le_bytes(
            $bytes
                .get(1..1 + core::mem::size_of::<$payload>())?
                .try_into()
                .ok()?,
        )))
    };

    // -- internal: one op_is_read_only arm ---------------------------------
    (@read_arm $val:ident, $op:ident, $variant:ident, read) => {
        if matches!($val, $op::$variant { .. }) {
            return true;
        }
    };
    (@read_arm $val:ident, $op:ident, $variant:ident, write) => {
        if matches!($val, $op::$variant { .. }) {
            return false;
        }
    };
}

// Account is the macro's proof of use: the derived codec must stay
// bit-identical to the hand-written one it replaced (pinned by the
// `tests/typed_properties.rs` codec properties and the oracle's replay of
// recorded account histories).
object_class! {
    impl ObjectType for Account {
        type Op = AccountOp;
        type Reply = u64;
        const TAG = Account::TYPE_TAG;
        ops {
            0 => Balance: read,
            1 => Deposit(u64): write,
            2 => Withdraw(u64): write,
        }
    }
}

// ---------------------------------------------------------------------------
// TypedUid and Handle
// ---------------------------------------------------------------------------

/// A [`Uid`] carrying its object class at the type level, as returned by
/// `System::create_typed`. Opening it yields a [`Handle`] of the right
/// class without a turbofish.
///
/// The marker is `fn() -> O` rather than `O`: a `TypedUid` names a class,
/// it does not own an instance, so it stays `Send + Sync + Copy` for
/// every class — routed sharded calls ship it across shard threads.
pub struct TypedUid<O: ObjectType> {
    uid: Uid,
    _class: PhantomData<fn() -> O>,
}

impl<O: ObjectType> TypedUid<O> {
    /// Asserts (unchecked) that `uid` names an object of class `O` — the
    /// escape hatch for uids recovered from directories or specs. A wrong
    /// assertion surfaces as garbled typed replies (or
    /// [`InvokeError::MalformedReply`](crate::InvokeError::MalformedReply)).
    pub fn assume(uid: Uid) -> Self {
        TypedUid {
            uid,
            _class: PhantomData,
        }
    }

    /// The underlying uid.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// A typed handle for this object, for transactions on `client`.
    pub fn open(&self, client: &Client) -> Handle<O> {
        client.open(self.uid)
    }
}

impl<O: ObjectType> Clone for TypedUid<O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O: ObjectType> Copy for TypedUid<O> {}

impl<O: ObjectType> fmt::Debug for TypedUid<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypedUid({})", self.uid)
    }
}

impl<O: ObjectType> fmt::Display for TypedUid<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.uid.fmt(f)
    }
}

impl<O: ObjectType> From<TypedUid<O>> for Uid {
    fn from(t: TypedUid<O>) -> Uid {
        t.uid
    }
}

/// A typed reference to one persistent object, as transactions take it:
/// `tx.invoke(&handle, CounterOp::Add(10))? -> i64`.
///
/// A handle is only the object's uid and class — it is a [`TypedUid`] —
/// so it holds no client or per-action state, costs nothing to keep, and
/// any [`Tx`](crate::Tx) of the system accepts it. Obtain one from
/// [`Client::open`] or [`TypedUid::open`]:
///
/// ```rust
/// use groupview_replication::{Counter, CounterOp, System};
///
/// let sys = System::builder(7).nodes(5).build();
/// let nodes = sys.sim().nodes();
/// let uid = sys
///     .create_typed(Counter::new(0), &nodes[1..4], &nodes[1..4])
///     .expect("create");
/// let client = sys.client(nodes[4]);
/// let counter = uid.open(&client);
///
/// let mut tx = client.begin().with_replicas(2);
/// assert_eq!(tx.invoke(&counter, CounterOp::Add(10)).expect("invoke"), 10);
/// tx.commit().expect("commit");
/// ```
///
/// The lock intent (read vs write) is inferred from the operation, and the
/// operation is encoded straight into a pooled wire frame.
pub type Handle<O> = TypedUid<O>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codecs_roundtrip_through_the_trait() {
        let op = CounterOp::Add(-7);
        assert_eq!(Counter::decode_op(&Counter::op_vec(&op)), Some(op));
        assert!(Counter::op_is_read_only(&CounterOp::Get));
        assert!(!Counter::op_is_read_only(&CounterOp::Add(1)));

        let op = KvOp::Put("k".into(), "v".into());
        assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op));
        assert!(KvMap::op_is_read_only(&KvOp::Len));
        assert!(!KvMap::op_is_read_only(&KvOp::Delete("k".into())));

        let op = AccountOp::Withdraw(9);
        assert_eq!(Account::decode_op(&Account::op_vec(&op)), Some(op));
        assert!(Account::op_is_read_only(&AccountOp::Balance));
        assert!(!Account::op_is_read_only(&AccountOp::Deposit(1)));
    }

    #[test]
    fn reply_codecs_roundtrip_through_the_trait() {
        let r = -42i64;
        assert_eq!(
            Counter::decode_reply(&CounterOp::Get, &Counter::reply_vec(&r)),
            Some(r)
        );
        let r = KvReply::Value("hello".into());
        assert_eq!(
            KvMap::decode_reply(&KvOp::Get("k".into()), &KvMap::reply_vec(&r)),
            Some(r)
        );
        let r = KvReply::Len(3);
        assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&r)),
            Some(r)
        );
        let r = 77u64;
        assert_eq!(
            Account::decode_reply(&AccountOp::Balance, &Account::reply_vec(&r)),
            Some(r)
        );
    }

    #[test]
    fn kv_reply_accessors() {
        assert_eq!(KvReply::Value("v".into()).value(), Some("v"));
        assert_eq!(KvReply::Value("v".into()).count(), None);
        assert_eq!(KvReply::Len(2).count(), Some(2));
        assert_eq!(KvReply::Len(2).value(), None);
    }

    #[test]
    fn describe_op_is_informative() {
        assert!(Counter::describe_op(&Counter::op_vec(&CounterOp::Add(3))).contains("Add"));
        assert!(Account::describe_op(b"\xff").contains("None"));
    }

    #[test]
    fn typed_uid_is_copy_and_displays_like_its_uid() {
        let t = TypedUid::<Counter>::assume(Uid::from_raw(9));
        let t2 = t;
        assert_eq!(t.uid(), t2.uid());
        assert_eq!(t.to_string(), Uid::from_raw(9).to_string());
        assert!(format!("{t:?}").contains("TypedUid"));
        assert_eq!(Uid::from(t), Uid::from_raw(9));
    }
}
