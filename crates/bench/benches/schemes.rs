//! End-to-end bind→invoke→commit cost per database access scheme
//! (Figures 6, 7, 8) — the paper's central design comparison as wall-clock
//! throughput of the whole metadata machinery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use groupview_core::BindingScheme;
use groupview_replication::{Counter, CounterOp, ReplicationPolicy, System, TypedUid};
use groupview_sim::NodeId;
use std::hint::black_box;

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn world(scheme: BindingScheme) -> (System, TypedUid<Counter>) {
    let sys = System::builder(9)
        .nodes(7)
        .policy(ReplicationPolicy::Active)
        .scheme(scheme)
        .build();
    let uid = sys
        .create_typed(Counter::new(0), &[n(1), n(2), n(3)], &[n(1), n(2), n(3)])
        .expect("create");
    (sys, uid)
}

fn bench_full_action(c: &mut Criterion) {
    let mut group = c.benchmark_group("schemes/full_write_action");
    for scheme in BindingScheme::ALL {
        let (sys, uid) = world(scheme);
        let client = sys.client(n(5));
        let counter = uid.open(&client);
        group.bench_function(BenchmarkId::from_parameter(scheme.to_string()), |b| {
            b.iter(|| {
                let mut tx = client.begin().with_replicas(2);
                tx.invoke(&counter, CounterOp::Add(1)).expect("invoke");
                tx.commit().expect("commit");
            })
        });
    }
    group.finish();
}

fn bench_read_action(c: &mut Criterion) {
    let mut group = c.benchmark_group("schemes/read_only_action");
    for scheme in BindingScheme::ALL {
        let (sys, uid) = world(scheme);
        let client = sys.client(n(5));
        let counter = uid.open(&client);
        group.bench_function(BenchmarkId::from_parameter(scheme.to_string()), |b| {
            b.iter(|| {
                let mut tx = client.begin_read().with_replicas(1);
                let value = tx.invoke(&counter, CounterOp::Get).expect("read");
                tx.commit().expect("commit");
                black_box(value)
            })
        });
    }
    group.finish();
}

fn bench_bind_with_dead_server(c: &mut Criterion) {
    // The E6/E7 contrast as wall-clock: a dead server in Sv makes standard
    // bindings pay a probe forever; the updating schemes prune it once.
    let mut group = c.benchmark_group("schemes/bind_with_dead_server");
    for scheme in BindingScheme::ALL {
        let (sys, uid) = world(scheme);
        sys.sim().crash(n(1));
        let client = sys.client(n(5));
        group.bench_function(BenchmarkId::from_parameter(scheme.to_string()), |b| {
            b.iter(|| {
                let mut tx = client.begin().with_replicas(2);
                let bound = tx.bind(&uid).expect("activate").servers.len();
                tx.commit().expect("commit");
                black_box(bound)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_action,
    bench_read_action,
    bench_bind_with_dead_server,
);
criterion_main!(benches);
