//! Criterion micro-benchmarks over the event-driven simulator core:
//! event-queue throughput and energy-ledger accounting.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use sconna_sim::energy::{ComponentSpec, EnergyLedger};
use sconna_sim::event::EventQueue;
use sconna_sim::time::SimTime;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for &n in &[1_000u64, 100_000] {
        g.throughput(Throughput::Elements(n));
        g.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    q.schedule_at(SimTime::from_ps((i * 7919) % 1_000_000), i);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc)
            });
        });
    }
    g.bench_function("cascading_run_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            q.schedule_at(SimTime::from_ps(1), 10_000u32);
            q.run(|q, _, remaining| {
                if remaining > 0 {
                    q.schedule_in(SimTime::from_ps(3), remaining - 1);
                }
            })
        });
    });
    g.finish();
}

fn bench_energy_ledger(c: &mut Criterion) {
    c.bench_function("ledger_register_and_total", |b| {
        b.iter(|| {
            let mut l = EnergyLedger::new();
            for i in 0..32 {
                l.register(
                    &format!("component-{i}"),
                    ComponentSpec::static_only(0.01, 0.1),
                    16,
                );
                l.record_ops(&format!("component-{i}"), 1000);
            }
            black_box(l.total_energy_j(SimTime::from_ns(1_000_000)))
        });
    });
}

criterion_group!(benches, bench_event_queue, bench_energy_ledger);
criterion_main!(benches);
