//! The typed multi-object transaction surface: [`Tx`].
//!
//! The paper's central abstraction is the atomic action that touches
//! *several* persistent replicated objects, and [`Tx`] is the only way a
//! client runs one: [`Client::begin`] opens a top-level action and returns
//! a builder, each [`Tx::invoke`] auto-activates the object on first touch
//! and applies a typed operation under the *same* action (all three
//! replication policies), and [`Tx::commit`] drives the store two-phase
//! commit once over the union of touched objects:
//!
//! ```rust
//! use groupview_replication::{Account, AccountOp, System};
//!
//! let sys = System::builder(7).nodes(5).build();
//! let nodes = sys.sim().nodes();
//! let a = sys.create_typed(Account::new(100), &nodes[1..4], &nodes[1..4]).unwrap();
//! let b = sys.create_typed(Account::new(100), &nodes[1..4], &nodes[1..4]).unwrap();
//! let client = sys.client(nodes[4]);
//! let (from, to) = (a.open(&client), b.open(&client));
//!
//! let mut tx = client.begin();
//! tx.invoke(&from, AccountOp::Withdraw(10)).unwrap();
//! tx.invoke(&to, AccountOp::Deposit(10)).unwrap();
//! tx.commit().unwrap();
//! ```
//!
//! The `Tx` is the single owner of its action's activations: the bound
//! [`ObjectGroup`] of every touched object lives in the builder, and commit
//! or abort consumes them, so nothing about an action outlives it. Abort
//! (explicit [`Tx::abort`], an error return, or just dropping the builder)
//! replays the action's undo-log arena in reverse, restoring every touched
//! object to its pre-transaction state. [`Client::begin_read`] opens a
//! read-only transaction (every activation read-only, write operations
//! refused). A one-object `Tx` reproduces the retired manual action path
//! bit for bit — pinned by `tests/tx_surface.rs`.

use crate::error::{ActivateError, CommitError, InvokeError};
use crate::invoke::ObjectGroup;
use crate::system::Client;
use crate::typed::{Handle, ObjectType};
use groupview_actions::ActionId;
use groupview_obs::Phase;
use groupview_store::Uid;
use std::error::Error;
use std::fmt;

/// Any failure of a [`Tx::invoke`]: the auto-activation or the invocation
/// itself. Either way the transaction should be dropped (or
/// [`Tx::abort`]ed) — its effects so far are undone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOpError {
    /// Activating the object for this transaction failed.
    Activate(ActivateError),
    /// The operation itself failed.
    Invoke(InvokeError),
}

impl TxOpError {
    /// Whether this failure was caused by node/network failures, as opposed
    /// to ordinary lock contention between live transactions (see
    /// [`InvokeError::is_failure_caused`]).
    pub fn is_failure_caused(&self) -> bool {
        match self {
            TxOpError::Activate(e) => e.is_failure_caused(),
            TxOpError::Invoke(e) => e.is_failure_caused(),
        }
    }
}

impl fmt::Display for TxOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxOpError::Activate(e) => write!(f, "transaction activate: {e}"),
            TxOpError::Invoke(e) => write!(f, "transaction invoke: {e}"),
        }
    }
}

impl Error for TxOpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TxOpError::Activate(e) => Some(e),
            TxOpError::Invoke(e) => Some(e),
        }
    }
}

impl From<ActivateError> for TxOpError {
    fn from(e: ActivateError) -> Self {
        TxOpError::Activate(e)
    }
}

impl From<InvokeError> for TxOpError {
    fn from(e: InvokeError) -> Self {
        TxOpError::Invoke(e)
    }
}

/// A typed multi-object transaction in progress. Obtained from
/// [`Client::begin`] or [`Client::begin_read`]; see the
/// [module docs](self) for the lifecycle.
///
/// The builder owns its top-level [`ActionId`] and the groups it activated.
/// Consuming methods ([`Tx::commit`], [`Tx::abort`], [`Tx::crash`]) finish
/// the action; dropping an unfinished `Tx` aborts it, so an early `?`
/// return can never leak locks.
pub struct Tx {
    client: Client,
    action: ActionId,
    /// Server cap for activations (default: all functioning servers).
    replicas: usize,
    /// `false` for a [`Client::begin_read`] transaction: activations are
    /// read-only and write operations are refused.
    will_write: bool,
    /// The objects activated so far, in activation order (transactions
    /// touch a handful of objects, so a scan beats a map).
    groups: Vec<ObjectGroup>,
    done: bool,
}

impl fmt::Debug for Tx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tx")
            .field("action", &self.action)
            .field("will_write", &self.will_write)
            .field("objects", &self.groups.len())
            .finish()
    }
}

impl Tx {
    pub(crate) fn new(client: Client, action: ActionId, will_write: bool) -> Self {
        Tx {
            client,
            action,
            replicas: usize::MAX,
            will_write,
            groups: Vec::new(),
            done: false,
        }
    }

    /// Caps activations at `n` server replicas per object (the default
    /// binds all functioning servers, the paper's §3.2 rule).
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// The underlying action id (history records and traces key on it).
    pub fn action(&self) -> ActionId {
        self.action
    }

    /// The client this transaction runs on.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Activates the object behind `handle` without invoking it (a no-op
    /// if this transaction already did), and returns the bound group: its
    /// servers, `St` view and [`Binding`](groupview_core::Binding)
    /// statistics. The activation — and the read lock on the object's `St`
    /// entry — is held until the transaction ends.
    ///
    /// # Errors
    ///
    /// See [`ActivateError`]; per the paper a failed binding means the
    /// transaction must abort.
    pub fn bind<O: ObjectType>(
        &mut self,
        handle: &Handle<O>,
    ) -> Result<&ObjectGroup, ActivateError> {
        let i = self.activated(handle.uid())?;
        Ok(&self.groups[i])
    }

    /// Resolves `name` through the directory (a nested action of this
    /// transaction, per the paper's lookup-then-bind flow), activates the
    /// object, and returns a typed handle for it.
    ///
    /// # Errors
    ///
    /// [`ActivateError::Db`] for unknown names or directory failures, plus
    /// everything [`Tx::bind`] can report.
    pub fn bind_by_name<O: ObjectType>(&mut self, name: &str) -> Result<Handle<O>, ActivateError> {
        let inner = &self.client.sys().inner;
        let nested = inner.tx.begin_nested(self.action);
        let uid = match inner
            .directory
            .lookup_from(self.client.node(), nested, name)
        {
            Ok(uid) => {
                inner.tx.commit(nested)?;
                uid
            }
            Err(e) => {
                inner.tx.abort(nested);
                return Err(ActivateError::Db(e));
            }
        };
        self.activated(uid)?;
        Ok(self.client.open(uid))
    }

    /// The index of `uid`'s group, activating it on first touch.
    fn activated(&mut self, uid: Uid) -> Result<usize, ActivateError> {
        if let Some(i) = self.groups.iter().position(|g| g.uid == uid) {
            return Ok(i);
        }
        let client = &self.client;
        let group = client.sys().do_activate(
            self.action,
            client.id(),
            client.node(),
            uid,
            self.replicas,
            !self.will_write,
        )?;
        self.groups.push(group);
        Ok(self.groups.len() - 1)
    }

    /// Refuses a write in a read-only transaction, before any lock.
    fn check_intent(&self, uid: Uid, write: bool) -> Result<(), InvokeError> {
        if write && !self.will_write {
            return Err(InvokeError::ReadOnly(uid));
        }
        Ok(())
    }

    /// Invokes a typed operation under this transaction, activating the
    /// object first if this is its first touch. The read/write lock intent
    /// is inferred from the operation; in a read-write transaction every
    /// object is activated read-write, since a later op may write it.
    ///
    /// # Errors
    ///
    /// See [`TxOpError`]; a write operation in a [`Client::begin_read`]
    /// transaction is [`InvokeError::ReadOnly`], and a reply that does not
    /// decode as an `O::Reply` is [`InvokeError::MalformedReply`]. On error
    /// the transaction should be dropped or aborted; committing after a
    /// failed invoke is allowed only if the caller knows the failure left
    /// no partial effect (e.g. a refused lock).
    pub fn invoke<O: ObjectType>(
        &mut self,
        handle: &Handle<O>,
        op: O::Op,
    ) -> Result<O::Reply, TxOpError> {
        let uid = handle.uid();
        let write = !O::op_is_read_only(&op);
        self.check_intent(uid, write)?;
        let start = self.client.sys().sim().now().as_micros();
        let i = self.activated(uid)?;
        let sys = self.client.sys();
        // One pooled frame for the encoded op; released back to the pool
        // when the invocation finishes.
        let frame = sys.inner.wire.encode_with(|buf| O::encode_op(&op, buf));
        let reply = sys.do_invoke(self.action, &mut self.groups[i], &frame, write)?;
        let reply = O::decode_reply(&op, &reply).ok_or(InvokeError::MalformedReply(uid))?;
        sys.obs().span(
            self.action.raw(),
            Phase::TxInvoke,
            start,
            sys.sim().now().as_micros(),
        );
        Ok(reply)
    }

    /// Invokes a batch of typed operations on one object as **one**
    /// replicated unit under this transaction: one object lock, one wire
    /// frame, one undo snapshot, and one commit-time write-back for the
    /// whole batch. Replies come back index-aligned with `ops`.
    ///
    /// The lock intent is the **strongest** across the batch: a batch is
    /// read-only (concurrent readers allowed, commit-time state copy
    /// skipped) only when *every* op in it is read-only. An empty batch
    /// returns `Ok(vec![])` without touching the object.
    ///
    /// # Errors
    ///
    /// See [`Tx::invoke`]; an error leaves none of the batch's effects
    /// visible once the transaction aborts (the batch undoes as one unit).
    pub fn invoke_batch<O: ObjectType>(
        &mut self,
        handle: &Handle<O>,
        ops: &[O::Op],
    ) -> Result<Vec<O::Reply>, TxOpError> {
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        let uid = handle.uid();
        let write = !ops.iter().all(O::op_is_read_only);
        self.check_intent(uid, write)?;
        let i = self.activated(uid)?;
        let sys = self.client.sys();
        // One pooled frame per op; all released when the batch finishes.
        let frames: Vec<_> = ops
            .iter()
            .map(|op| sys.inner.wire.encode_with(|buf| O::encode_op(op, buf)))
            .collect();
        let frame_refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let replies = sys.do_invoke_batch(self.action, &mut self.groups[i], &frame_refs, write)?;
        ops.iter()
            .zip(&replies)
            .map(|(op, reply)| {
                O::decode_reply(op, reply)
                    .ok_or(TxOpError::Invoke(InvokeError::MalformedReply(uid)))
            })
            .collect()
    }

    /// Commits the transaction: one store two-phase commit over the union
    /// of touched objects; all-or-nothing.
    ///
    /// # Errors
    ///
    /// See [`CommitError`]; on error the action has been aborted and every
    /// touched object restored.
    pub fn commit(mut self) -> Result<(), CommitError> {
        self.done = true;
        let sys = self.client.sys();
        let start = sys.sim().now().as_micros();
        let result = sys.commit_action(self.action, &self.groups);
        sys.obs().span(
            self.action.raw(),
            Phase::TxCommit,
            start,
            sys.sim().now().as_micros(),
        );
        result
    }

    /// Aborts the transaction, restoring every touched object (the undo
    /// arena replays in reverse) and completing its bindings.
    pub fn abort(mut self) {
        self.done = true;
        self.client.sys().abort_action(self.action, &self.groups);
    }

    /// Simulates the client crashing mid-transaction: the action is
    /// aborted by the system (its node noticed the broken binding) but
    /// **no binding completion runs** — use lists stay incremented until
    /// the cleanup daemon reclaims them. Returns the number of leaked
    /// (registered) bindings.
    pub fn crash(mut self) -> usize {
        self.done = true;
        self.client.sys().inner.tx.abort(self.action);
        self.groups.iter().filter(|g| g.binding.registered).count()
    }
}

impl Drop for Tx {
    fn drop(&mut self) {
        if !self.done {
            self.client.sys().abort_action(self.action, &self.groups);
        }
    }
}
