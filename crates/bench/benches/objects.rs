//! Object-boundary allocation cost: heap allocations per invocation, by
//! replication policy, measured with a counting global allocator (every
//! heap allocation is visible, not just wire buffers).
//!
//! This is the ROADMAP's "hot-path allocation" scoreboard for the
//! `ReplicaObject` boundary. The encoder-aware object trait writes replica
//! replies and undo snapshots through the pooled `WireEncoder` instead of
//! returning fresh `Vec<u8>`s, and `Tx::invoke` encodes the operation
//! into a pooled frame instead of a caller-side vector — so the steady-state
//! budgets below are **asserted**, not just printed. CI fails if the object
//! boundary regresses into allocating again.
//!
//! Budgets (3 replicas, steady state). The undo-log arena (flat
//! per-transaction buffers replacing one boxed undo closure per op)
//! dropped the per-invoke numbers well below the typed-API-era budgets —
//! measured: active 10.0 (was ≤ 16), coordinator-cohort 6.0 (was ≤ 13),
//! single-copy 3.0 (was ≤ 13) — so the budgets are ratcheted down to
//! 12/8/5.
//!
//! The multi-object transaction window measures a whole two-account
//! transfer through the typed `Tx` surface — begin, two auto-activating
//! invokes, and a commit driving one store 2PC over the union of both
//! objects — with its own asserted budgets and the same exact-equality
//! observer-off gate. Since the `Tx` became the single owner of its
//! activations (no per-client or per-handle copies of each bound group,
//! no system-wide dirty set), a transfer measures active 97.0,
//! coordinator-cohort 75.0, single-copy 68.0 allocs per transaction (was
//! 122.1/100.1/93.1); the budgets kept the same headroom ratio over those
//! figures: 104/81/74 (were 130/108/100). Joining a warm activation then
//! stopped copying the activation set (no handle-clone `Vec`, no clone
//! into the bind request, none inside the binder): 91.0/69.0/62.0 allocs
//! per transaction, budgets 98/75/68 at the same headroom ratio.
//!
//! The warm-join scaling guard times a first-touch invoke on an
//! already-active account with 10² and with 10⁴ resident accounts and
//! asserts the cost does not grow with the resident count (≤ 3×, equal
//! allocations), so activation lookups stay per-object.

use criterion::{criterion_group, criterion_main, Criterion};
use groupview_replication::{
    Account, AccountOp, Client, Counter, CounterOp, Handle, ReplicationPolicy, System, Tx,
};
use groupview_sim::NodeId;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Builds a 3-replica world and a transaction with the counter bound.
fn activated(policy: ReplicationPolicy) -> (System, Handle<Counter>, Tx) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(n).collect();
    let uid = sys
        .create_typed(Counter::new(0), &servers, &servers)
        .expect("create");
    let mut tx = sys.client(n(7)).begin().with_replicas(3);
    tx.bind(&uid).expect("activate");
    (sys, uid, tx)
}

/// One measured window: total heap allocations across `ops` invokes.
fn measure_window(tx: &mut Tx, handle: &Handle<Counter>, ops: u64) -> u64 {
    let before = allocs();
    for _ in 0..ops {
        black_box(tx.invoke(handle, CounterOp::Add(1)).expect("invoke"));
    }
    allocs() - before
}

/// Measures steady-state heap allocations per typed write invocation in
/// three windows — observability disabled (A), enabled (B), enabled
/// through warmup then disabled for the window (C) — asserting the
/// policy's budget on A and **exact** equality of C and A: the disabled
/// observer must add zero allocations per op, not just stay under budget.
///
/// Each window runs in its own fresh world over the *same op range*:
/// allocation counts are deterministic but op-offset-dependent (the
/// action's undo stack doubles at power-of-2 op counts), so windows at
/// different offsets in one world would differ for reasons that have
/// nothing to do with observability.
fn report_policy(policy: ReplicationPolicy, budget: f64) {
    const OPS: u64 = 1_000;
    const WARM: u64 = 64;
    // Warm up: fill the encoder pool, the dedup ring, and the undo stack's
    // growth so the measured window is steady state.
    let warm = |tx: &mut Tx, handle: &Handle<Counter>| {
        measure_window(tx, handle, WARM);
    };

    // Window A: observability off for the world's whole life.
    let (_sys, handle, mut tx) = activated(policy);
    warm(&mut tx, &handle);
    let window_a = measure_window(&mut tx, &handle, OPS);
    let per_op = window_a as f64 / OPS as f64;

    // Window B: observability ON — reported for context, not gated (span
    // recording legitimately grows the span vec).
    let (sys, handle, mut tx) = activated(policy);
    sys.obs().set_enabled(true);
    warm(&mut tx, &handle);
    let window_b = measure_window(&mut tx, &handle, OPS);
    let spans_recorded = sys.obs().span_count();

    // Window C: enabled through warmup (so the registry has live state),
    // then disabled for the measured window — bit-identical to A or the
    // "zero-cost when off" contract is broken.
    let (sys, handle, mut tx) = activated(policy);
    sys.obs().set_enabled(true);
    warm(&mut tx, &handle);
    sys.obs().set_enabled(false);
    let window_c = measure_window(&mut tx, &handle, OPS);

    println!(
        "objects/invoke_heap_allocs/{policy:<31} {per_op:>8.3} allocs/op (budget {budget}) \
         | observed {:.3} | re-disabled {:.3}",
        window_b as f64 / OPS as f64,
        window_c as f64 / OPS as f64,
    );
    if std::env::var_os("OBJECTS_BENCH_NO_ASSERT").is_none() {
        assert!(
            per_op <= budget,
            "{policy}: object-boundary allocations regressed: \
             {per_op:.3} allocs/op exceeds the budget of {budget}"
        );
        assert!(
            spans_recorded > 0,
            "{policy}: the observed window recorded no spans — window B measured nothing"
        );
        assert_eq!(
            window_c, window_a,
            "{policy}: disabled observability must add zero allocations \
             (window A={window_a}, window C={window_c} over {OPS} ops)"
        );
    }
}

/// The asserted scoreboard: the encoder-aware object boundary must keep
/// per-invoke heap allocations at or under the post-redesign budgets.
fn bench_invoke_heap_allocs(_c: &mut Criterion) {
    report_policy(ReplicationPolicy::Active, 12.0);
    report_policy(ReplicationPolicy::CoordinatorCohort, 8.0);
    report_policy(ReplicationPolicy::SingleCopyPassive, 5.0);
}

/// Builds a 3-replica world with two accounts and a client, ready for
/// typed transactions.
fn tx_world(policy: ReplicationPolicy) -> (System, Client, Handle<Account>, Handle<Account>) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=3).map(n).collect();
    let a = sys
        .create_typed(Account::new(0), &servers, &servers)
        .expect("create");
    let b = sys
        .create_typed(Account::new(0), &servers, &servers)
        .expect("create");
    let client = sys.client(n(7));
    (sys, client, a, b)
}

/// One measured window: total heap allocations across `txs` complete
/// two-object transactions (begin → two invokes → commit).
fn measure_tx_window(client: &Client, ha: &Handle<Account>, hb: &Handle<Account>, txs: u64) -> u64 {
    let before = allocs();
    for _ in 0..txs {
        let mut tx = client.begin().with_replicas(3);
        black_box(tx.invoke(ha, AccountOp::Deposit(1)).expect("first leg"));
        black_box(tx.invoke(hb, AccountOp::Deposit(1)).expect("second leg"));
        tx.commit().expect("commit");
    }
    allocs() - before
}

/// Steady-state heap allocations per whole multi-object transaction, with
/// the same A/B/C window structure as the per-invoke scoreboard: budget
/// asserted on the observer-off window A, window B (observer on) reported
/// for context, window C (re-disabled) gated to **exact** equality with A.
fn report_tx_policy(policy: ReplicationPolicy, budget: f64) {
    const TXS: u64 = 200;
    const WARM: u64 = 32;
    let warm = |client: &Client, ha: &Handle<Account>, hb: &Handle<Account>| {
        measure_tx_window(client, ha, hb, WARM);
    };

    let (_sys, client, ha, hb) = tx_world(policy);
    warm(&client, &ha, &hb);
    let window_a = measure_tx_window(&client, &ha, &hb, TXS);
    let per_tx = window_a as f64 / TXS as f64;

    let (sys, client, ha, hb) = tx_world(policy);
    sys.obs().set_enabled(true);
    warm(&client, &ha, &hb);
    let window_b = measure_tx_window(&client, &ha, &hb, TXS);
    let spans_recorded = sys.obs().span_count();

    let (sys, client, ha, hb) = tx_world(policy);
    sys.obs().set_enabled(true);
    warm(&client, &ha, &hb);
    sys.obs().set_enabled(false);
    let window_c = measure_tx_window(&client, &ha, &hb, TXS);

    println!(
        "objects/tx_heap_allocs/{policy:<35} {per_tx:>8.3} allocs/tx (budget {budget}) \
         | observed {:.3} | re-disabled {:.3}",
        window_b as f64 / TXS as f64,
        window_c as f64 / TXS as f64,
    );
    if std::env::var_os("OBJECTS_BENCH_NO_ASSERT").is_none() {
        assert!(
            per_tx <= budget,
            "{policy}: multi-object transaction allocations regressed: \
             {per_tx:.3} allocs/tx exceeds the budget of {budget}"
        );
        assert!(
            spans_recorded > 0,
            "{policy}: the observed tx window recorded no spans"
        );
        assert_eq!(
            window_c, window_a,
            "{policy}: disabled observability must add zero allocations \
             (window A={window_a}, window C={window_c} over {TXS} transactions)"
        );
    }
}

/// The transaction scoreboard: one whole two-object transfer per unit —
/// begin, two auto-activating invokes, commit (one 2PC over both objects).
fn bench_tx_heap_allocs(_c: &mut Criterion) {
    report_tx_policy(ReplicationPolicy::Active, 98.0);
    report_tx_policy(ReplicationPolicy::CoordinatorCohort, 75.0);
    report_tx_policy(ReplicationPolicy::SingleCopyPassive, 68.0);
}

/// Builds a 5-node active-replication world with `resident` accounts,
/// three staggered replicas each, and activates every one of them once so
/// they all stay resident (warm) for the measurement.
fn resident_world(resident: usize) -> (System, Client, Vec<Handle<Account>>) {
    let sys = System::builder(13)
        .nodes(5)
        .policy(ReplicationPolicy::Active)
        .build();
    let nodes = sys.sim().nodes();
    let accounts: Vec<Handle<Account>> = (0..resident)
        .map(|i| {
            let replicas: Vec<NodeId> = (0..3).map(|j| nodes[(i + j) % nodes.len()]).collect();
            sys.create_typed(Account::new(0), &replicas, &replicas)
                .expect("create")
        })
        .collect();
    let client = sys.client(nodes[0]);
    for h in &accounts {
        let mut tx = client.begin().with_replicas(3);
        tx.invoke(h, AccountOp::Balance).expect("activate");
        tx.commit().expect("commit");
    }
    (sys, client, accounts)
}

/// One block of `joins` warm joins: each begins a transaction whose first
/// touch joins an already-active account's activation, then commits.
/// Only the joining invoke is timed and allocation-counted. `next` walks
/// `accounts` round-robin across blocks. Returns `(ns per join, allocs
/// per join)`.
fn warm_join_block(
    client: &Client,
    accounts: &[Handle<Account>],
    next: &mut usize,
    joins: usize,
) -> (f64, f64) {
    let (mut ns, mut counted) = (0u128, 0u64);
    for _ in 0..joins {
        let h = &accounts[*next % accounts.len()];
        *next += 1;
        let mut tx = client.begin();
        let (start, before) = (Instant::now(), allocs());
        black_box(tx.invoke(h, AccountOp::Balance).expect("warm join"));
        counted += allocs() - before;
        ns += start.elapsed().as_nanos();
        tx.commit().expect("commit");
    }
    (ns as f64 / joins as f64, counted as f64 / joins as f64)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The warm-join scaling guard. Joining an active object binds to its
/// existing activation set (§3.2), so its cost must follow the world's
/// node count, not the number of other resident objects. Times a warm
/// join with 10² and with 10⁴ resident accounts (5 nodes, 3 replicas
/// each) as the median of 5 alternating blocks per size, and asserts the
/// large/small ratio stays ≤ 3× (wide, so that machine speed swings
/// between blocks cannot fail it) and that a join allocates exactly as
/// much at both sizes. Both worlds join
/// the same first 10² accounts in the same order, each warmed by 10
/// untimed joins first: until a replica's dedup ring is full, every reply
/// takes a fresh buffer instead of a recycled one, so an object's first
/// joins allocate more than later ones. Allocations are compared as the
/// minimum over blocks, because world-wide tables that double as actions
/// accumulate add a sporadic allocation whose timing depends on the
/// world's history. A registry lookup that scans every resident replica
/// fails the ratio by an order of magnitude.
fn bench_warm_join_scaling(_c: &mut Criterion) {
    const SMALL: usize = 100;
    const LARGE: usize = 10_000;
    const BLOCKS: usize = 5;
    const JOINS: usize = 200;
    const MAX_RATIO: f64 = 3.0;
    let (_small_sys, small_client, small) = resident_world(SMALL);
    let (_large_sys, large_client, large) = resident_world(LARGE);
    let large = &large[..SMALL];
    let (mut small_next, mut large_next) = (0, 0);
    warm_join_block(&small_client, &small, &mut small_next, 10 * SMALL);
    warm_join_block(&large_client, large, &mut large_next, 10 * SMALL);
    let (mut small_ns, mut large_ns) = (Vec::new(), Vec::new());
    let (mut small_allocs, mut large_allocs) = (Vec::new(), Vec::new());
    for _ in 0..BLOCKS {
        let (ns, a) = warm_join_block(&small_client, &small, &mut small_next, JOINS);
        small_ns.push(ns);
        small_allocs.push(a);
        let (ns, a) = warm_join_block(&large_client, large, &mut large_next, JOINS);
        large_ns.push(ns);
        large_allocs.push(a);
    }
    let (small_ns, large_ns) = (median(small_ns), median(large_ns));
    let ratio = large_ns / small_ns;
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (small_min, large_min) = (min(&small_allocs), min(&large_allocs));
    println!(
        "objects/warm_join/{SMALL}_resident {small_ns:>20.0} ns/join {small_min:>8.3} allocs/join"
    );
    println!(
        "objects/warm_join/{LARGE}_resident {large_ns:>18.0} ns/join {large_min:>8.3} allocs/join"
    );
    println!("objects/warm_join/ratio {ratio:>25.2}x (bound {MAX_RATIO}x)");
    if std::env::var_os("OBJECTS_BENCH_NO_ASSERT").is_none() {
        assert!(
            ratio <= MAX_RATIO,
            "a warm join with {LARGE} resident accounts costs {ratio:.2}x one with {SMALL} \
             ({large_ns:.0} vs {small_ns:.0} ns): activation lookup grows with resident objects"
        );
        assert_eq!(
            small_min, large_min,
            "allocations per warm join differ with the resident count \
             (per block: {SMALL} resident {small_allocs:?}, {LARGE} resident {large_allocs:?})"
        );
    }
}

/// Read path for contrast (no undo snapshot, no dirty marking).
fn bench_read_heap_allocs(_c: &mut Criterion) {
    const OPS: u64 = 1_000;
    let (_sys, handle, mut tx) = activated(ReplicationPolicy::Active);
    for _ in 0..64 {
        black_box(tx.invoke(&handle, CounterOp::Get).expect("read"));
    }
    let before = allocs();
    for _ in 0..OPS {
        black_box(tx.invoke(&handle, CounterOp::Get).expect("read"));
    }
    let per_op = (allocs() - before) as f64 / OPS as f64;
    println!("objects/read_heap_allocs/active                  {per_op:>8.3} allocs/op");
}

criterion_group!(
    benches,
    bench_invoke_heap_allocs,
    bench_tx_heap_allocs,
    bench_warm_join_scaling,
    bench_read_heap_allocs
);
criterion_main!(benches);
