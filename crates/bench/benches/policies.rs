//! Invocation cost per replication policy and group size (§2.3(2)) — the
//! price of masking failures, as wall-clock throughput. Driven through one
//! open `Tx` per world (the encoder-aware hot path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use groupview_replication::{Counter, CounterOp, Handle, ReplicationPolicy, System, Tx};
use groupview_sim::wire;
use groupview_sim::NodeId;
use std::hint::black_box;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn activated(policy: ReplicationPolicy, replicas: usize) -> (System, Handle<Counter>, Tx) {
    let sys = System::builder(13).nodes(9).policy(policy).build();
    let servers: Vec<NodeId> = (1..=replicas as u32).map(n).collect();
    let uid = sys
        .create_typed(Counter::new(0), &servers, &servers)
        .expect("create");
    let client = sys.client(n(7));
    let handle = uid.open(&client);
    let mut tx = client.begin().with_replicas(replicas);
    tx.bind(&handle).expect("activate");
    (sys, handle, tx)
}

fn bench_invoke_by_policy(c: &mut Criterion) {
    let mut bench_group = c.benchmark_group("policies/invoke_3_replicas");
    for policy in ReplicationPolicy::ALL {
        let (_sys, handle, mut tx) = activated(policy, 3);
        bench_group.bench_function(BenchmarkId::from_parameter(policy.to_string()), |b| {
            b.iter(|| {
                let value = tx.invoke(&handle, CounterOp::Add(1)).expect("invoke");
                black_box(value)
            })
        });
    }
    bench_group.finish();
}

fn bench_active_by_group_size(c: &mut Criterion) {
    let mut bench_group = c.benchmark_group("policies/active_by_size");
    for replicas in [1usize, 2, 3, 5] {
        let (_sys, handle, mut tx) = activated(ReplicationPolicy::Active, replicas);
        bench_group.bench_function(BenchmarkId::from_parameter(replicas), |b| {
            b.iter(|| {
                let value = tx.invoke(&handle, CounterOp::Add(1)).expect("invoke");
                black_box(value)
            })
        });
    }
    bench_group.finish();
}

fn bench_cohort_checkpoint_cost(c: &mut Criterion) {
    let mut bench_group = c.benchmark_group("policies/cohort_by_size");
    for replicas in [1usize, 3, 5] {
        let (_sys, handle, mut tx) = activated(ReplicationPolicy::CoordinatorCohort, replicas);
        bench_group.bench_function(BenchmarkId::from_parameter(replicas), |b| {
            b.iter(|| {
                // Each mutation checkpoints to all cohorts.
                let value = tx.invoke(&handle, CounterOp::Add(1)).expect("invoke");
                black_box(value)
            })
        });
    }
    bench_group.finish();
}

fn bench_read_vs_write(c: &mut Criterion) {
    let mut bench_group = c.benchmark_group("policies/read_vs_write");
    let (_sys, handle, mut tx) = activated(ReplicationPolicy::Active, 3);
    bench_group.bench_function("write", |b| {
        b.iter(|| black_box(tx.invoke(&handle, CounterOp::Add(1)).expect("write")))
    });
    // `Get` is read-only: the transaction takes the read lock automatically.
    bench_group.bench_function("read", |b| {
        b.iter(|| black_box(tx.invoke(&handle, CounterOp::Get).expect("read")))
    });
    bench_group.finish();
}

/// Reports wire-buffer allocations per invocation, by policy (3 replicas)
/// and for reads vs writes. The transaction encodes the op into a pooled
/// frame and the encoder-aware objects write replies/snapshots through the
/// pool, so steady state is near zero; CI prints these so hot-path
/// allocation regressions show up in the logs. (Heap-level budgets are
/// *asserted* in the `objects` bench.)
fn bench_invoke_allocation_counts(_c: &mut Criterion) {
    const OPS: u64 = 1_000;
    fn report(label: String, policy: ReplicationPolicy, op: CounterOp) {
        let (_sys, handle, mut tx) = activated(policy, 3);
        for _ in 0..8 {
            black_box(tx.invoke(&handle, op).expect("invoke"));
        }
        let before = wire::stats();
        for _ in 0..OPS {
            black_box(tx.invoke(&handle, op).expect("invoke"));
        }
        let d = wire::stats().since(before);
        println!(
            "{label:<48} {:>8.3} allocs/op {:>8.1} B copied/op {:>8.3} reuses/op",
            d.buffer_allocs as f64 / OPS as f64,
            d.bytes_copied as f64 / OPS as f64,
            d.pool_reuses as f64 / OPS as f64,
        );
    }
    for policy in ReplicationPolicy::ALL {
        report(
            format!("policies/invoke_wire_allocs/{policy}"),
            policy,
            CounterOp::Add(1),
        );
    }
    report(
        "policies/read_wire_allocs/active".to_string(),
        ReplicationPolicy::Active,
        CounterOp::Get,
    );
}

criterion_group!(
    benches,
    bench_invoke_by_policy,
    bench_active_by_group_size,
    bench_cohort_checkpoint_cost,
    bench_read_vs_write,
    bench_invoke_allocation_counts,
);
criterion_main!(benches);
