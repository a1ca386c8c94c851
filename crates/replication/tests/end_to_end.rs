//! End-to-end scenarios across the whole replication stack.

use groupview_core::{BindingScheme, ExcludePolicy};
use groupview_replication::{
    Account, AccountOp, Counter, CounterOp, InvokeError, ReplicationPolicy, System, TxOpError,
    TypedUid,
};
use groupview_sim::NodeId;
use groupview_store::Version;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// 6 nodes: n0 naming, n1-n3 servers+stores, n4-n5 client nodes.
fn system(policy: ReplicationPolicy, scheme: BindingScheme) -> System {
    System::builder(77)
        .nodes(6)
        .policy(policy)
        .scheme(scheme)
        .build()
}

fn create_counter(sys: &System, value: i64) -> TypedUid<Counter> {
    sys.create_typed(
        Counter::new(value),
        &[n(1), n(2), n(3)],
        &[n(1), n(2), n(3)],
    )
    .expect("create object")
}

fn counter_value(sys: &System, uid: TypedUid<Counter>, client_node: NodeId) -> i64 {
    let mut tx = sys.client(client_node).begin_read().with_replicas(1);
    let value = tx.invoke(&uid, CounterOp::Get).expect("read");
    tx.commit().expect("commit read");
    value
}

#[test]
fn full_cycle_all_policies() {
    for policy in ReplicationPolicy::ALL {
        let sys = system(policy, BindingScheme::Standard);
        let uid = create_counter(&sys, 100);
        let mut tx = sys.client(n(4)).begin().with_replicas(2);
        let r = tx.invoke(&uid, CounterOp::Add(11)).expect("invoke");
        assert_eq!(r, 111, "policy {policy}");
        tx.commit().expect("commit");
        // All three stores hold the committed v1 state.
        for store in [n(1), n(2), n(3)] {
            let state = sys.stores().read_local(store, uid.uid()).expect("stored");
            assert_eq!(state.version, Version::new(1), "policy {policy}");
            assert_eq!(Counter::decode(&state.data).value(), 111);
        }
        assert_eq!(counter_value(&sys, uid, n(5)), 111);
    }
}

#[test]
fn abort_undoes_replica_state_and_stores() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 50);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    tx.invoke(&uid, CounterOp::Add(999)).expect("invoke");
    tx.abort();
    // Replica in-memory state restored; stores untouched.
    assert_eq!(counter_value(&sys, uid, n(5)), 50);
    let state = sys.stores().read_local(n(1), uid.uid()).expect("stored");
    assert_eq!(state.version, Version::INITIAL);
    assert!(sys.tx().locks_empty(), "no stray locks after abort");
}

#[test]
fn active_replication_masks_server_crash_mid_action() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(3);
    tx.invoke(&uid, CounterOp::Add(1)).expect("op1");
    // One replica dies; the group masks it.
    sys.sim().crash(n(2));
    tx.invoke(&uid, CounterOp::Add(1)).expect("op2");
    tx.commit().expect("commit despite replica crash");
    assert_eq!(counter_value(&sys, uid, n(5)), 2);
}

#[test]
fn coordinator_cohort_failover_mid_action() {
    let sys = system(
        ReplicationPolicy::CoordinatorCohort,
        BindingScheme::Standard,
    );
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(3);
    tx.invoke(&uid, CounterOp::Add(5)).expect("op1");
    // The coordinator (lowest-id live loaded = n1) fails; a cohort that
    // received the checkpoint takes over transparently.
    sys.sim().crash(n(1));
    let r = tx
        .invoke(&uid, CounterOp::Add(5))
        .expect("op2 after failover");
    assert_eq!(r, 10);
    tx.commit().expect("commit");
    assert_eq!(counter_value(&sys, uid, n(5)), 10);
}

#[test]
fn single_copy_passive_crash_aborts_action() {
    let sys = system(
        ReplicationPolicy::SingleCopyPassive,
        BindingScheme::Standard,
    );
    let uid = create_counter(&sys, 7);
    let mut tx = sys.client(n(4)).begin().with_replicas(3);
    let servers = tx.bind(&uid).expect("activate").servers.clone();
    assert_eq!(servers.len(), 1, "single copy policy activates one server");
    tx.invoke(&uid, CounterOp::Add(1)).expect("op1");
    sys.sim().crash(servers[0]);
    let err = tx
        .invoke(&uid, CounterOp::Add(1))
        .expect_err("server crashed");
    assert_eq!(err, TxOpError::Invoke(InvokeError::ServerFailed(uid.uid())));
    tx.abort();
    // Restart: a fresh activation succeeds on another server node and sees
    // only committed state.
    assert_eq!(counter_value(&sys, uid, n(5)), 7);
}

#[test]
fn commit_excludes_crashed_store_and_later_recovery_reincludes() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    // A store node (with no active replica bound) crashes before commit.
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    let g = tx.bind(&uid).expect("activate"); // binds n1, n2
    assert_eq!(g.servers, vec![n(1), n(2)]);
    tx.invoke(&uid, CounterOp::Add(42)).expect("op");
    sys.sim().crash(n(3));
    tx.commit().expect("commit succeeds without n3");
    // n3 was excluded from St.
    let st = sys.naming().state_db.entry(uid.uid()).expect("entry");
    assert_eq!(st.stores, vec![n(1), n(2)]);
    // Its stable store still has the stale v0 state.
    sys.sim().recover(n(3));
    let stale = sys
        .stores()
        .read_local(n(3), uid.uid())
        .expect("stale state");
    assert_eq!(stale.version, Version::INITIAL);
    sys.sim().crash(n(3));
    // Recovery refreshes and re-includes.
    let report = sys.recovery().recover_node(n(3));
    assert_eq!(report.refreshed, vec![uid.uid()]);
    let st = sys.naming().state_db.entry(uid.uid()).expect("entry");
    assert_eq!(st.stores, vec![n(1), n(2), n(3)]);
    let fresh = sys
        .stores()
        .read_local(n(3), uid.uid())
        .expect("fresh state");
    assert_eq!(fresh.version, Version::new(1));
    assert_eq!(Counter::decode(&fresh.data).value(), 42);
}

#[test]
fn read_only_action_skips_state_copy() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 5);
    // Note the store versions before.
    let v_before = sys.stores().read_local(n(1), uid.uid()).unwrap().version;
    let mut tx = sys.client(n(4)).begin_read().with_replicas(1);
    tx.invoke(&uid, CounterOp::Get).expect("read");
    tx.commit().expect("commit");
    assert_eq!(
        sys.stores().read_local(n(1), uid.uid()).unwrap().version,
        v_before,
        "read optimisation: no copy to object stores"
    );
}

#[test]
fn all_stores_down_aborts_commit() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    tx.invoke(&uid, CounterOp::Add(1)).expect("op");
    // Every store node dies before commit. (The bound servers ARE the
    // store nodes here, so the final state still lives in... nowhere —
    // replicas are on the same crashed nodes.) Crash only stores' disks is
    // not possible: crash all three nodes.
    for i in [1, 2, 3] {
        sys.sim().crash(n(i));
    }
    let err = tx.commit().expect_err("nothing can persist");
    // With the replicas gone too, the failure may surface as a missing
    // final state or as all stores failing — both mean "abort", and both
    // must be attributed to the crashes, not to contention.
    match err {
        groupview_replication::CommitError::AllStoresFailed { uid: u, .. }
        | groupview_replication::CommitError::NoFinalState(u) => assert_eq!(u, uid.uid()),
        other => panic!("unexpected commit error: {other}"),
    }
    assert!(err.is_failure_caused(), "crash-caused commit abort: {err}");
    assert!(sys.tx().locks_empty());
}

#[test]
fn independent_scheme_full_client_lifecycle() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    assert!(tx.bind(&uid).expect("activate").binding().registered);
    // Use lists are visible while the action runs.
    let entry = sys.naming().server_db.entry(uid.uid()).expect("entry");
    assert_eq!(entry.total_uses(), 2);
    tx.invoke(&uid, CounterOp::Add(3)).expect("op");
    tx.commit().expect("commit");
    // Decrement ran after the action: quiescent again.
    let entry = sys.naming().server_db.entry(uid.uid()).expect("entry");
    assert!(entry.is_quiescent());
    assert_eq!(counter_value(&sys, uid, n(5)), 3);
}

#[test]
fn nested_top_level_scheme_full_client_lifecycle() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::NestedTopLevel);
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    tx.invoke(&uid, CounterOp::Add(3)).expect("op");
    tx.commit().expect("commit");
    assert!(sys
        .naming()
        .server_db
        .entry(uid.uid())
        .unwrap()
        .is_quiescent());
    assert_eq!(counter_value(&sys, uid, n(5)), 3);
}

#[test]
fn crashed_client_leak_reclaimed_by_cleanup_daemon() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 0);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    tx.bind(&uid).expect("activate");
    // The client crashes without decrementing; the action still aborts.
    let leaked = tx.crash();
    assert_eq!(leaked, 1);
    assert!(sys.tx().locks_empty());
    let entry = sys.naming().server_db.entry(uid.uid()).unwrap();
    assert_eq!(entry.total_uses(), 2, "use lists leaked");
    // Insert (e.g. a recovered server) is refused while the leak persists.
    assert!(!entry.is_quiescent());
    // The daemon reclaims once it learns the client is dead.
    let report = sys.cleanup().sweep(|_| false);
    assert_eq!(report.reclaimed(), 2);
    assert!(sys
        .naming()
        .server_db
        .entry(uid.uid())
        .unwrap()
        .is_quiescent());
}

#[test]
fn passivation_after_quiescence() {
    let sys = system(
        ReplicationPolicy::Active,
        BindingScheme::IndependentTopLevel,
    );
    let uid = create_counter(&sys, 1);
    let mut tx = sys.client(n(4)).begin().with_replicas(2);
    tx.invoke(&uid, CounterOp::Add(1)).expect("op");
    assert!(!sys.try_passivate(uid.uid()), "in use: cannot passivate");
    tx.commit().expect("commit");
    assert!(sys.try_passivate(uid.uid()), "quiescent: passivated");
    assert!(sys.registry().replicas_of(uid.uid()).is_empty());
    // Re-activation reloads from stores and sees the committed value.
    assert_eq!(counter_value(&sys, uid, n(5)), 2);
}

#[test]
fn object_write_lock_serialises_writers() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 0);
    let c1 = sys.client(n(4));
    let c2 = sys.client(n(5));
    let mut t1 = c1.begin().with_replicas(2);
    t1.invoke(&uid, CounterOp::Add(1)).expect("op 1");
    // Second writer is refused at the object lock.
    let mut t2 = c2.begin().with_replicas(2);
    t2.bind(&uid).expect("activate 2");
    let err = t2
        .invoke(&uid, CounterOp::Add(1))
        .expect_err("write-write conflict");
    assert!(matches!(err, TxOpError::Invoke(InvokeError::Tx(_))));
    t2.abort();
    t1.commit().expect("commit 1");
    // Now the second client can proceed.
    let mut t3 = c2.begin().with_replicas(2);
    t3.invoke(&uid, CounterOp::Add(1)).expect("op 3");
    t3.commit().expect("commit 3");
    assert_eq!(counter_value(&sys, uid, n(4)), 2);
}

#[test]
fn concurrent_readers_share_the_object() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let uid = create_counter(&sys, 9);
    let mut t1 = sys.client(n(4)).begin_read().with_replicas(1);
    let mut t2 = sys.client(n(5)).begin_read().with_replicas(1);
    t1.bind(&uid).expect("activate 1");
    t2.bind(&uid).expect("activate 2");
    assert_eq!(t1.invoke(&uid, CounterOp::Get), Ok(9));
    assert_eq!(t2.invoke(&uid, CounterOp::Get), Ok(9));
    t1.commit().expect("commit 1");
    t2.commit().expect("commit 2");
}

#[test]
fn bank_transfer_is_atomic_across_two_objects() {
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    let alice = sys
        .create_typed(Account::new(100), &[n(1), n(2)], &[n(1), n(2)])
        .expect("alice");
    let bob = sys
        .create_typed(Account::new(10), &[n(2), n(3)], &[n(2), n(3)])
        .expect("bob");
    let client = sys.client(n(4));

    // Successful transfer.
    let mut tx = client.begin().with_replicas(2);
    tx.bind(&alice).expect("activate alice");
    tx.bind(&bob).expect("activate bob");
    let w = tx
        .invoke(&alice, AccountOp::Withdraw(40))
        .expect("withdraw");
    assert_eq!(w, 60);
    tx.invoke(&bob, AccountOp::Deposit(40)).expect("deposit");
    tx.commit().expect("commit transfer");

    // Failed transfer aborts both legs.
    let mut tx = client.begin().with_replicas(2);
    tx.invoke(&alice, AccountOp::Withdraw(10))
        .expect("withdraw");
    tx.invoke(&bob, AccountOp::Deposit(10)).expect("deposit");
    tx.abort(); // application decides to roll back

    // Balances: only the first transfer happened.
    let mut check = sys.client(n(5)).begin_read().with_replicas(1);
    let ra = check.invoke(&alice, AccountOp::Balance).expect("balance a");
    let rb = check.invoke(&bob, AccountOp::Balance).expect("balance b");
    check.commit().expect("commit check");
    assert_eq!(ra, 60);
    assert_eq!(rb, 50);
}

#[test]
fn exclude_policy_promote_aborts_under_concurrent_reader() {
    // §4.2.1: with plain write promotion the committing writer aborts when
    // readers share the St entry; with the exclude-write lock it succeeds.
    for (policy, expect_ok) in [
        (ExcludePolicy::PromoteToWrite, false),
        (ExcludePolicy::ExcludeWriteLock, true),
    ] {
        let sys = System::builder(78)
            .nodes(6)
            .policy(ReplicationPolicy::Active)
            .exclude_policy(policy)
            .build();
        let uid = create_counter(&sys, 0);
        // A reader holds a read lock on the St entry (via activation).
        let mut reader = sys.client(n(5)).begin_read().with_replicas(1);
        reader.bind(&uid).expect("reader");
        // The writer modifies and commits while a store is down → Exclude.
        let mut writer = sys.client(n(4)).begin().with_replicas(1);
        writer.invoke(&uid, CounterOp::Add(1)).expect("op");
        sys.sim().crash(n(3));
        let result = writer.commit();
        assert_eq!(result.is_ok(), expect_ok, "policy {policy:?}");
        reader.commit().expect("reader commit");
    }
}

#[test]
fn deterministic_same_seed_same_outcome() {
    let run = |seed: u64| {
        let sys = System::builder(seed)
            .nodes(6)
            .policy(ReplicationPolicy::Active)
            .build();
        let uid = create_counter(&sys, 0);
        let client = sys.client(n(4));
        for i in 0..5 {
            let mut tx = client.begin().with_replicas(2);
            tx.invoke(&uid, CounterOp::Add(i)).expect("op");
            tx.commit().expect("commit");
        }
        (
            counter_value(&sys, uid, n(5)),
            sys.sim().counters().delivered,
            sys.sim().now(),
        )
    };
    assert_eq!(run(123), run(123), "identical seeds, identical runs");
}

/// The paper's Figure 1 window, end to end: an in-flight action's server
/// crashes (losing the action's uncommitted update), a *concurrent*
/// activation reloads the replica from the committed stores, and the
/// original action tries to continue. The reborn copy is a different state
/// lineage — the action must abort (failure-attributed), never silently
/// continue against state that lost its own first operation. (Found by the
/// scenario oracle under the `send_window_crashes` nemesis.)
#[test]
fn reborn_replica_fails_the_in_flight_action() {
    for policy in [
        ReplicationPolicy::SingleCopyPassive,
        ReplicationPolicy::CoordinatorCohort,
        ReplicationPolicy::Active,
    ] {
        let sys = system(policy, BindingScheme::Standard);
        let uid = create_counter(&sys, 0);
        let mut a_tx = sys.client(n(4)).begin().with_replicas(3);
        let r = a_tx.invoke(&uid, CounterOp::Add(1)).expect("first op");
        assert_eq!(r, 1, "policy {policy}");

        // Every bound server dies mid-action (uncommitted state lost) and
        // recovers; then another client's activation reloads the replicas
        // from the committed (value 0) stores.
        for &server in &[n(1), n(2), n(3)] {
            sys.sim().crash(server);
        }
        for &server in &[n(1), n(2), n(3)] {
            sys.recovery().recover_node(server);
        }
        let mut b_tx = sys.client(n(5)).begin_read().with_replicas(3);
        b_tx.bind(&uid).expect("B reactivates the passive object");

        // A's next invoke must fail — the reborn replicas never see the op.
        let err = a_tx
            .invoke(&uid, CounterOp::Add(1))
            .expect_err("the in-flight action must not continue on reborn replicas");
        assert!(err.is_failure_caused(), "policy {policy}: {err}");
        a_tx.abort();
        b_tx.commit().expect("B commits its read");

        // Nothing of A's aborted action leaked into the committed state.
        assert_eq!(counter_value(&sys, uid, n(5)), 0, "policy {policy}");
    }
}

#[test]
fn observed_system_reports_spans_counters_and_wire_stats() {
    use groupview_obs::{Counter as ObsCounter, Phase};
    let sys = System::builder(77)
        .nodes(6)
        .policy(ReplicationPolicy::Active)
        .observe()
        .build();
    assert!(sys.obs().is_enabled());
    let uid = create_counter(&sys, 0);
    let client = sys.client(n(4));
    for i in 0..3 {
        let mut tx = client.begin().with_replicas(2);
        tx.invoke(&uid, CounterOp::Add(i)).expect("invoke");
        tx.commit().expect("commit");
    }
    let snap = sys.metrics_snapshot();
    assert_eq!(snap.worlds, 1);
    assert_eq!(snap.counter(ObsCounter::Invokes), 3);
    assert_eq!(snap.counter(ObsCounter::Multicasts), 3);
    assert!(snap.counter(ObsCounter::Commits) >= 3);
    assert_eq!(snap.phase(Phase::Invoke).count(), 3);
    assert_eq!(snap.phase(Phase::Bind).count(), 3);
    assert_eq!(snap.phase(Phase::Probe).count(), 3);
    assert_eq!(snap.phase(Phase::Multicast).count(), 3);
    assert!(
        snap.phase(Phase::Invoke).total_us() >= snap.phase(Phase::Multicast).total_us(),
        "the multicast leg nests inside the invoke span"
    );
    // Object creation + 3 ops moved real bytes through the wire pool.
    assert!(snap.wire_bytes_copied > 0);
    assert!(snap.wire_buffer_allocs + snap.wire_pool_reuses > 0);
    // Spans drain for export; a second snapshot keeps counters.
    let spans = sys.obs().take_spans();
    assert!(spans.len() as u64 >= snap.span_count());
    assert_eq!(sys.metrics_snapshot().counter(ObsCounter::Invokes), 3);
}

#[test]
fn unobserved_system_records_nothing() {
    use groupview_obs::Counter as ObsCounter;
    let sys = system(ReplicationPolicy::Active, BindingScheme::Standard);
    assert!(!sys.obs().is_enabled());
    let uid = create_counter(&sys, 5);
    assert_eq!(counter_value(&sys, uid, n(4)), 5);
    let snap = sys.metrics_snapshot();
    assert_eq!(snap.counter(ObsCounter::Invokes), 0);
    assert_eq!(snap.span_count(), 0);
    // Wire stats are still absorbed: sharded aggregation needs them even
    // with span recording off.
    assert!(snap.wire_bytes_copied > 0);
}
