//! The typed transaction surface end to end.
//!
//! Three contracts of `Tx` (and its sharded wrapper) that the unit tests
//! can't pin alone:
//!
//! * **Deadlock-by-refusal**: two transactions locking `{A, B}` in opposite
//!   orders resolve by abort — strict two-phase locking refuses the second
//!   lock instead of waiting, so the classic deadlock cannot hang, and the
//!   refusal is classified as contention, never as a failure.
//! * **Parity**: a one-object `Tx` reproduces the retired manual
//!   `begin_action`/`activate`/`invoke`/`commit` path bit for bit — same
//!   typed reply, same simulated clock, same committed store bytes — under
//!   every replication policy, against fingerprints recorded from the
//!   manual path before it was deleted.
//! * **Read-only transactions**: `Client::begin_read` refuses writes before
//!   any lock or undo entry, and still commits.
//! * **Sharded transactions**: `ShardedClient::transact` commits same-shard
//!   multi-object transactions, aborts (and restores) on a failed body, and
//!   refuses cross-shard uid sets up front with `ShardError::CrossShard`.

use groupview_replication::invoke::object_key;
use groupview_replication::{
    Account, AccountOp, HashRouter, InvokeError, ObjectType, ReplicationPolicy, ShardError,
    ShardedSystem, System, TxOpError,
};
use groupview_sim::NodeId;
use groupview_store::Version;
use std::sync::Arc;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

const POLICIES: [ReplicationPolicy; 3] = [
    ReplicationPolicy::Active,
    ReplicationPolicy::CoordinatorCohort,
    ReplicationPolicy::SingleCopyPassive,
];

/// Two transactions take `{A, B}` in opposite orders: each holds its first
/// lock, each is *refused* the other's (contention, not failure), both
/// abort cleanly, and a retry then commits. The test terminating at all is
/// the no-hang guarantee — refusal-not-waiting means there is no blocked
/// state to deadlock in.
#[test]
fn opposite_order_lock_transactions_resolve_by_abort_not_deadlock() {
    for policy in POLICIES {
        let sys = System::builder(7).nodes(6).policy(policy).build();
        let trio = [n(1), n(2), n(3)];
        let a = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
        let b = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
        let client1 = sys.client(n(4));
        let client2 = sys.client(n(5));

        let mut tx1 = client1.begin().with_replicas(2);
        let mut tx2 = client2.begin().with_replicas(2);
        let (a1, b1) = (a.open(&client1), b.open(&client1));
        let (a2, b2) = (a.open(&client2), b.open(&client2));

        // tx1 write-locks A; tx2 write-locks B.
        tx1.invoke(&a1, AccountOp::Withdraw(10))
            .expect("tx1 locks A");
        tx2.invoke(&b2, AccountOp::Withdraw(10))
            .expect("tx2 locks B");

        // Each now wants the other's object: both are refused immediately.
        let e1 = tx1.invoke(&b1, AccountOp::Deposit(10)).unwrap_err();
        let e2 = tx2.invoke(&a2, AccountOp::Deposit(10)).unwrap_err();
        for e in [&e1, &e2] {
            assert!(
                !e.is_failure_caused(),
                "{policy:?}: lock-order conflict must classify as contention, got {e}"
            );
        }
        tx1.abort();
        tx2.abort();

        // The aborts released both locks and undid both withdrawals: a
        // retry commits the full transfer against intact balances.
        let mut tx = client1.begin().with_replicas(2);
        assert_eq!(tx.invoke(&a1, AccountOp::Withdraw(10)).unwrap(), 90);
        assert_eq!(tx.invoke(&b1, AccountOp::Deposit(10)).unwrap(), 110);
        tx.commit().expect("retry commits");
    }
}

/// The manual action path's measured runs, recorded before that path was
/// deleted: one withdrawal of `amount` from a 100-balance account under
/// world seed `seed`, on two of three replicas, then commit. Columns:
/// `(seed, amount, reply, store version, store balance, end time in µs per
/// policy in POLICIES order)`. Overdrafts (amount > 100) reply REFUSED and
/// skip the commit-time copy, so the stores keep version 0.
///
/// (If a deliberate engine or RNG change invalidates these numbers,
/// re-record them from a run you have verified by other means, and say so
/// in the commit.)
const REFUSED: u64 = AccountOp::REFUSED;
const MANUAL_PATH: [(u64, u64, u64, u64, u64, [u64; 3]); 24] = [
    (1, 0, 100, 1, 100, [33924, 33361, 30285]),
    (1, 10, 90, 1, 90, [33924, 33361, 30285]),
    (1, 150, REFUSED, 0, 100, [21247, 19974, 17686]),
    (7, 1, 99, 1, 99, [34243, 33597, 30489]),
    (7, 100, 0, 1, 0, [34243, 33597, 30489]),
    (7, 101, REFUSED, 0, 100, [21213, 19966, 17732]),
    (42, 37, 63, 1, 63, [33831, 33263, 30300]),
    (42, 199, REFUSED, 0, 100, [20948, 19772, 17549]),
    (42, 64, 36, 1, 36, [33831, 33263, 30300]),
    (99, 5, 95, 1, 95, [34127, 33467, 30342]),
    (99, 120, REFUSED, 0, 100, [20985, 19918, 17513]),
    (123, 99, 1, 1, 1, [34050, 33509, 30459]),
    (123, 180, REFUSED, 0, 100, [21102, 19924, 17447]),
    (256, 50, 50, 1, 50, [34017, 33481, 30654]),
    (256, 100, 0, 1, 0, [34017, 33481, 30654]),
    (333, 133, REFUSED, 0, 100, [21187, 19894, 17446]),
    (512, 2, 98, 1, 98, [34365, 33731, 30686]),
    (512, 175, REFUSED, 0, 100, [21454, 20230, 17666]),
    (640, 77, 23, 1, 23, [33799, 33099, 30052]),
    (777, 111, REFUSED, 0, 100, [21395, 20290, 17684]),
    (850, 12, 88, 1, 88, [33837, 33265, 30430]),
    (901, 160, REFUSED, 0, 100, [20825, 19710, 17606]),
    (999, 88, 12, 1, 12, [33830, 33206, 30338]),
    (999, 190, REFUSED, 0, 100, [21147, 19841, 17548]),
];

/// A one-object `Tx` is the manual action path, bit for bit: same reply,
/// same clock, same store bytes on every store — including refused
/// overdrafts.
#[test]
fn one_object_tx_matches_recorded_manual_action_path() {
    for (seed, amount, reply, version, balance, now_us) in MANUAL_PATH {
        for (policy, now_us) in POLICIES.into_iter().zip(now_us) {
            let cell = format!("{policy:?} seed={seed} amount={amount}");
            let sys = System::builder(seed).nodes(6).policy(policy).build();
            let trio = [n(1), n(2), n(3)];
            let uid = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
            let client = sys.client(n(4));
            let mut tx = client.begin().with_replicas(2);
            let got = tx.invoke(&uid.open(&client), AccountOp::Withdraw(amount));
            tx.commit().expect("tx commit");

            assert_eq!(got, Ok(reply), "{cell}: reply");
            assert_eq!(sys.sim().now().as_micros(), now_us, "{cell}: clock");
            for node in trio {
                let state = sys.stores().read_local(node, uid.uid()).expect("stored");
                assert_eq!(state.type_tag, Account::TAG, "{cell}: {node} tag");
                assert_eq!(
                    state.version,
                    Version::new(version),
                    "{cell}: {node} version"
                );
                assert_eq!(
                    state.data.as_slice(),
                    balance.to_le_bytes(),
                    "{cell}: {node} bytes"
                );
            }
        }
    }
}

/// A read-only transaction refuses a write with the typed error before it
/// takes the object's write lock or logs an undo entry, keeps serving
/// reads, and still commits.
#[test]
fn read_only_tx_refuses_writes_and_still_commits() {
    for policy in POLICIES {
        let sys = System::builder(5).nodes(6).policy(policy).build();
        let trio = [n(1), n(2), n(3)];
        let uid = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
        let client = sys.client(n(4));
        let account = uid.open(&client);

        let mut tx = client.begin_read().with_replicas(2);
        assert_eq!(tx.invoke(&account, AccountOp::Balance), Ok(100));
        let err = tx
            .invoke(&account, AccountOp::Withdraw(10))
            .expect_err("a read-only transaction refuses writes");
        assert_eq!(
            err,
            TxOpError::Invoke(InvokeError::ReadOnly(uid.uid())),
            "{policy:?}"
        );
        assert!(!err.is_failure_caused(), "{policy:?}: a client error");
        let batch = tx.invoke_batch(&account, &[AccountOp::Balance, AccountOp::Deposit(1)]);
        assert_eq!(
            batch,
            Err(TxOpError::Invoke(InvokeError::ReadOnly(uid.uid()))),
            "{policy:?}: one write op refuses the whole batch"
        );
        let action = tx.action();
        assert_eq!(
            sys.tx().lock_mode_of(action, object_key(uid.uid())),
            Some(groupview_actions::LockMode::Read),
            "{policy:?}: the object is only read-locked"
        );
        assert_eq!(
            sys.tx().undo_objects(action),
            0,
            "{policy:?}: no undo entry"
        );
        assert_eq!(tx.invoke(&account, AccountOp::Balance), Ok(100));
        tx.commit().expect("the read-only transaction commits");
        assert!(sys.tx().locks_empty(), "{policy:?}");
        let state = sys.stores().read_local(n(1), uid.uid()).unwrap();
        assert_eq!(state.version, Version::INITIAL, "{policy:?}: no store copy");
    }
}

/// Dropping an unfinished `Tx` aborts it: both legs of a transfer are
/// undone and the locks released.
#[test]
fn dropping_a_tx_aborts_and_restores_both_objects() {
    let sys = System::builder(3).nodes(6).build();
    let trio = [n(1), n(2), n(3)];
    let a = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
    let b = sys.create_typed(Account::new(100), &trio, &trio).unwrap();
    let client = sys.client(n(4));
    let (ha, hb) = (a.open(&client), b.open(&client));

    let mut tx = client.begin().with_replicas(2);
    assert_eq!(tx.invoke(&ha, AccountOp::Withdraw(40)).unwrap(), 60);
    assert_eq!(tx.invoke(&hb, AccountOp::Deposit(40)).unwrap(), 140);
    drop(tx); // early return / panic path: the drop aborts

    let mut audit = client.begin().with_replicas(2);
    assert_eq!(audit.invoke(&ha, AccountOp::Balance).unwrap(), 100);
    assert_eq!(audit.invoke(&hb, AccountOp::Balance).unwrap(), 100);
    audit.commit().expect("audit commit");
}

#[test]
fn sharded_transact_commits_same_shard_and_refuses_cross_shard() {
    let builder = System::builder(42)
        .nodes(5)
        .policy(ReplicationPolicy::Active);
    let sys = ShardedSystem::launch(builder, Arc::new(HashRouter::new(2)));
    let trio = [n(1), n(2), n(3)];
    let a = sys
        .create_typed_on(0, Account::new(100), &trio, &trio)
        .unwrap();
    let b = sys
        .create_typed_on(0, Account::new(100), &trio, &trio)
        .unwrap();
    let c = sys
        .create_typed_on(1, Account::new(100), &trio, &trio)
        .unwrap();
    let client = sys.client(2);

    // Same shard: the transfer commits atomically on shard 0.
    let replies = client
        .transact(&[a.uid(), b.uid()], move |tx| {
            let from = a.open(tx.client());
            let to = b.open(tx.client());
            let w = tx.invoke(&from, AccountOp::Withdraw(30))?;
            let d = tx.invoke(&to, AccountOp::Deposit(30))?;
            Ok((w, d))
        })
        .expect("same-shard transaction");
    assert_eq!(replies, (70, 130));
    assert_eq!(client.invoke(a, AccountOp::Balance).unwrap(), 70);
    assert_eq!(client.invoke(b, AccountOp::Balance).unwrap(), 130);

    // A failed body aborts the transaction: the withdrawal is restored.
    let err = client
        .transact(&[a.uid()], move |tx| {
            let from = a.open(tx.client());
            tx.invoke(&from, AccountOp::Withdraw(70))?;
            Err::<(), _>(TxOpError::Invoke(InvokeError::ReadOnly(from.uid())))
        })
        .unwrap_err();
    assert!(matches!(err, ShardError::Invoke(_)), "{err}");
    assert_eq!(client.invoke(a, AccountOp::Balance).unwrap(), 70);

    // Cross-shard: refused before any shard work, with both shards named.
    let err = client
        .transact(&[a.uid(), c.uid()], move |_tx| Ok(()))
        .unwrap_err();
    match err {
        ShardError::CrossShard { home, uid, other } => {
            assert_eq!(home, 0);
            assert_eq!(uid, c.uid());
            assert_eq!(other, 1);
        }
        other => panic!("expected CrossShard, got {other}"),
    }
    // Nothing moved.
    assert_eq!(client.invoke(a, AccountOp::Balance).unwrap(), 70);
    assert_eq!(client.invoke(c, AccountOp::Balance).unwrap(), 100);
}
