//! Criterion bench for the [`RepairEngine`] plan cache: the same exact
//! count served cold (a fresh engine per run, so every run replans) vs
//! warm (one shared engine, so every run after the first hits the plan
//! cache and skips the UCQ rewrite, the keywidth computation and the
//! certificate enumeration).

use cdr_bench::{uniform_workload, union_workload};
use cdr_core::{CountRequest, RepairEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_cold_vs_warm_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/plan_cache_exact");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for &blocks in &[100usize, 400, 1600] {
        let (db, keys, q) = union_workload(blocks, 3, 3, 47);
        let request = CountRequest::exact(q);
        group.bench_with_input(BenchmarkId::new("cold", blocks), &blocks, |b, _| {
            b.iter(|| {
                let engine = RepairEngine::new(db.clone(), keys.clone());
                engine.run(&request).unwrap()
            });
        });
        let engine = RepairEngine::new(db.clone(), keys.clone());
        engine.run(&request).unwrap();
        group.bench_with_input(BenchmarkId::new("warm", blocks), &blocks, |b, _| {
            b.iter(|| engine.run(&request).unwrap());
        });
    }
    group.finish();
}

fn bench_cold_vs_warm_frequency(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/plan_cache_frequency");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    let (db, keys, q) = uniform_workload(800, 3, 3, 53);
    let request = CountRequest::frequency(q);
    group.bench_function(BenchmarkId::new("cold", 800), |b| {
        b.iter(|| {
            let engine = RepairEngine::new(db.clone(), keys.clone());
            engine.run(&request).unwrap()
        });
    });
    let engine = RepairEngine::new(db.clone(), keys.clone());
    engine.run(&request).unwrap();
    group.bench_function(BenchmarkId::new("warm", 800), |b| {
        b.iter(|| engine.run(&request).unwrap());
    });
    group.finish();
}

fn bench_batch_shares_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/run_batch");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    let (db, keys, q) = union_workload(400, 3, 3, 59);
    let requests: Vec<CountRequest> = (0..16).map(|_| CountRequest::exact(q.clone())).collect();
    let engine = RepairEngine::new(db, keys);
    group.bench_function(BenchmarkId::from_parameter("16x_same_query"), |b| {
        b.iter(|| engine.run_batch(&requests));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_warm_exact,
    bench_cold_vs_warm_frequency,
    bench_batch_shares_plans
);
criterion_main!(benches);
