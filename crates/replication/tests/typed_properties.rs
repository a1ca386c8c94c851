//! Property tests for the `ObjectType` codec contract — op and reply
//! round-trips for all three built-in classes, including empty, boundary,
//! and >64KiB values — plus batch-reply alignment through `Tx::invoke_batch`
//! and a regression test that a typed reply survives a crash-masked
//! re-activation.

use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, KvMap, KvOp, KvReply, ObjectType, ReplicaObject,
    ReplicationPolicy, System,
};
use groupview_sim::{NodeId, WireEncoder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Counter ops and replies round-trip through the trait codec for the
    /// full i64 range (boundary values included by the arbitrary strategy).
    #[test]
    fn counter_codecs_roundtrip(delta in any::<i64>(), reply in any::<i64>()) {
        for op in [CounterOp::Get, CounterOp::Add(delta)] {
            prop_assert_eq!(Counter::decode_op(&Counter::op_vec(&op)), Some(op));
            prop_assert_eq!(
                Counter::decode_reply(&op, &Counter::reply_vec(&reply)),
                Some(reply)
            );
        }
        prop_assert_eq!(Counter::decode_op(&[]), None);
        prop_assert_eq!(Counter::decode_reply(&CounterOp::Get, &[1, 2]), None);
    }

    /// KvMap ops round-trip for arbitrary keys/values; replies decode in op
    /// context (Len replies as counts, value replies as text).
    #[test]
    fn kv_codecs_roundtrip(key in "\\PC{0,24}", value in "\\PC{0,48}", count in any::<u64>()) {
        for op in [
            KvOp::Get(key.clone()),
            KvOp::Put(key.clone(), value.clone()),
            KvOp::Delete(key.clone()),
            KvOp::Len,
        ] {
            prop_assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op.clone()));
        }
        let val = KvReply::Value(value.clone());
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Get(key.clone()), &KvMap::reply_vec(&val)),
            Some(val.clone())
        );
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Put(key.clone(), value.clone()), &KvMap::reply_vec(&val)),
            Some(val)
        );
        let len = KvReply::Len(count);
        prop_assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&len)),
            Some(len)
        );
    }

    /// Account ops and replies round-trip across the whole u64 range,
    /// REFUSED marker included.
    #[test]
    fn account_codecs_roundtrip(amount in any::<u64>(), reply in any::<u64>()) {
        for op in [
            AccountOp::Balance,
            AccountOp::Deposit(amount),
            AccountOp::Withdraw(amount),
        ] {
            prop_assert_eq!(Account::decode_op(&Account::op_vec(&op)), Some(op));
            prop_assert_eq!(
                Account::decode_reply(&op, &Account::reply_vec(&reply)),
                Some(reply)
            );
        }
        prop_assert_eq!(
            Account::decode_reply(&AccountOp::Balance, &Account::reply_vec(&AccountOp::REFUSED)),
            Some(AccountOp::REFUSED)
        );
    }

    /// The reply bytes the live object writes through the encoder are
    /// exactly what `encode_reply` produces — the codec contract typed
    /// invocation relies on.
    #[test]
    fn object_replies_match_the_reply_codec(start in any::<i64>(), delta in -1_000i64..1_000) {
        let enc = WireEncoder::new();
        let mut c = Counter::new(start);
        let r = c.invoke(&Counter::op_vec(&CounterOp::Add(delta)), &enc);
        prop_assert_eq!(r.reply.as_slice(), Counter::reply_vec(&(start.wrapping_add(delta))).as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `Tx::invoke_batch` replies are index-aligned with the submitted ops
    /// — under every replication policy, for mixed read/write batches, for
    /// all-read batches (which take the read-lock path), and for the empty
    /// batch — whether the batch binds the object itself or the object was
    /// already activated by an earlier single invoke in the transaction.
    #[test]
    fn batch_replies_align_with_op_order_under_every_policy(
        deltas in prop::collection::vec(-1_000i64..1_000, 1..10),
        warm in any::<bool>(),
    ) {
        for policy in [
            ReplicationPolicy::Active,
            ReplicationPolicy::CoordinatorCohort,
            ReplicationPolicy::SingleCopyPassive,
        ] {
            let sys = System::builder(31).nodes(6).policy(policy).build();
            let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
            let uid = sys
                .create_typed(Counter::new(0), &trio, &trio)
                .expect("create");
            let client = sys.client(NodeId::new(4));
            let counter = uid.open(&client);
            let mut tx = client.begin().with_replicas(2);
            if warm {
                prop_assert_eq!(tx.invoke(&counter, CounterOp::Get), Ok(0));
            }
            // Interleave Adds and Gets: each reply must reflect exactly the
            // ops before it in the batch, in order.
            let mut ops = Vec::new();
            let mut expected = Vec::new();
            let mut total = 0i64;
            for &d in &deltas {
                total += d;
                ops.push(CounterOp::Add(d));
                expected.push(total);
                ops.push(CounterOp::Get);
                expected.push(total);
            }
            let replies = tx.invoke_batch(&counter, &ops).expect("batch");
            prop_assert_eq!(&replies, &expected);
            // An all-read batch takes the read-lock path and still aligns.
            let replies = tx
                .invoke_batch(&counter, &[CounterOp::Get; 3])
                .expect("read batch");
            prop_assert_eq!(replies, vec![total; 3]);
            // The empty batch is a no-op with an empty reply vector.
            prop_assert_eq!(
                tx.invoke_batch(&counter, &[]).expect("empty batch"),
                Vec::<i64>::new()
            );
            tx.commit().expect("commit");
        }
    }
}

/// Empty, boundary, and oversized (>64KiB) values survive the KvMap op and
/// reply codecs — the explicit sizes the satellite task calls out, pinned
/// deterministically on top of the property sweep.
#[test]
fn kv_codec_handles_empty_boundary_and_oversized_values() {
    let big = "x".repeat(100 * 1024); // > 64KiB
    for value in ["", "v", &big] {
        let op = KvOp::Put("key".into(), value.to_string());
        assert_eq!(KvMap::decode_op(&KvMap::op_vec(&op)), Some(op.clone()));
        let reply = KvReply::Value(value.to_string());
        let encoded = KvMap::reply_vec(&reply);
        assert_eq!(encoded.len(), value.len());
        assert_eq!(KvMap::decode_reply(&op, &encoded), Some(reply));
    }
    // Boundary counts for Len replies.
    for count in [0, 1, u64::MAX] {
        assert_eq!(
            KvMap::decode_reply(&KvOp::Len, &KvMap::reply_vec(&KvReply::Len(count))),
            Some(KvReply::Len(count))
        );
    }
}

/// A >64KiB value travels the full replicated path through a transaction:
/// written in one action, read back typed in another.
#[test]
fn oversized_values_survive_the_full_typed_path() {
    let sys = System::builder(11).nodes(6).build();
    let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
    let uid = sys
        .create_typed(KvMap::new(), &trio, &trio)
        .expect("create");
    let client = sys.client(NodeId::new(4));
    let shelf = uid.open(&client);
    let big = "y".repeat(80 * 1024);

    let mut tx = client.begin().with_replicas(2);
    assert_eq!(
        tx.invoke(&shelf, KvOp::Put("blob".into(), big.clone()))
            .expect("put"),
        KvReply::Value(String::new())
    );
    tx.commit().expect("commit");

    let mut tx = client.begin_read().with_replicas(1);
    assert_eq!(
        tx.invoke(&shelf, KvOp::Get("blob".into())).expect("get"),
        KvReply::Value(big)
    );
    tx.commit().expect("commit");
}

/// Regression: typed invocation keeps returning correctly-decoded replies
/// across a crash that is masked by re-activation — the reply decoded after
/// the surviving replicas take over must reflect every committed update.
#[test]
fn typed_reply_survives_crash_masked_reactivation() {
    let sys = System::builder(23)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .build();
    let trio = [NodeId::new(1), NodeId::new(2), NodeId::new(3)];
    let uid = sys
        .create_typed(Counter::new(0), &trio, &trio)
        .expect("create");
    let client = sys.client(NodeId::new(4));
    let counter = uid.open(&client);

    // Commit through two replicas.
    let mut tx = client.begin().with_replicas(2);
    let crashed = tx.bind(&counter).expect("activate").servers[0];
    assert_eq!(tx.invoke(&counter, CounterOp::Add(7)).expect("add"), 7);
    tx.commit().expect("commit");

    // Crash one bound replica; the next activation masks it.
    sys.sim().crash(crashed);
    let mut tx = client.begin().with_replicas(2);
    let regrouped = tx.bind(&counter).expect("re-activate");
    assert!(
        !regrouped.servers.contains(&crashed),
        "crashed server must not be re-bound"
    );
    assert_eq!(
        tx.invoke(&counter, CounterOp::Add(3)).expect("add"),
        10,
        "typed reply reflects the pre-crash committed state"
    );
    assert_eq!(tx.invoke(&counter, CounterOp::Get).expect("get"), 10);
    tx.commit().expect("commit");

    // And once more after recovery, from a third client.
    sys.recovery().recover_node(crashed);
    let reader = sys.client(NodeId::new(5));
    let observer = uid.open(&reader);
    let mut tx = reader.begin_read().with_replicas(1);
    assert_eq!(tx.invoke(&observer, CounterOp::Get).expect("get"), 10);
    tx.commit().expect("commit");
}
