//! Parity suite for the [`RepairEngine`]: every report the engine produces
//! must agree with the direct, cache-free algorithm entry points
//! (`count_by_enumeration`, `FprasEstimator`, `keywidth`). Checked on the
//! named scenarios and, property-style, on random `db_gen`/`query_gen`
//! instances.

use proptest::prelude::*;
use repair_count::counting::{count_by_enumeration, FprasEstimator, Strategy as EngineStrategy};
use repair_count::prelude::*;
use repair_count::query::{keywidth, rewrite_to_ucq};
use repair_count::workloads::{
    employee_example, random_join_query, random_point_query_union, two_source_customers,
    BlockSizeDistribution, InconsistentDbConfig, QueryGenConfig, RelationSpec,
};

/// Asserts that every engine semantics agrees with the direct algorithms
/// on one (database, keys, query) instance.
fn assert_engine_parity(db: &Database, keys: &KeySet, q: &Query) {
    let engine = RepairEngine::new(db.clone(), keys.clone());

    // Exact count vs the direct enumeration machine.
    let direct = count_by_enumeration(db, keys, q, u64::MAX).unwrap();
    let engine_count = engine
        .run(&CountRequest::exact(q.clone()))
        .unwrap()
        .answer
        .as_count()
        .unwrap()
        .clone();
    assert_eq!(engine_count, direct, "engine vs enumeration for {q}");

    // Each forced exact strategy vs the same enumeration.
    for strategy in [
        EngineStrategy::Enumeration,
        EngineStrategy::CertificateBoxes,
    ] {
        let via_engine = engine
            .run(&CountRequest::exact(q.clone()).with_strategy(strategy))
            .unwrap()
            .answer
            .as_count()
            .unwrap()
            .clone();
        assert_eq!(via_engine, direct, "strategy {strategy:?} for {q}");
    }

    // Frequency is the direct count over the precomputed total.
    let engine_freq = engine
        .run(&CountRequest::frequency(q.clone()))
        .unwrap()
        .answer
        .as_frequency()
        .unwrap()
        .clone();
    assert_eq!(
        engine_freq,
        Ratio::new(direct.clone(), engine.total_repairs().clone())
    );

    // Decision and certain answers vs the direct count.
    let engine_some = engine
        .run(&CountRequest::decision(q.clone()))
        .unwrap()
        .answer
        .as_bool()
        .unwrap();
    assert_eq!(engine_some, !direct.is_zero(), "decision vs count for {q}");

    let engine_every = engine
        .run(&CountRequest::certain_answer(q.clone()))
        .unwrap()
        .answer
        .as_bool()
        .unwrap();
    assert_eq!(
        engine_every,
        direct == *engine.total_repairs(),
        "certain answer vs count for {q}"
    );

    // The cached keywidth vs the direct computation.
    assert_eq!(engine.keywidth(q), keywidth(q, db.schema(), keys));

    // CountRequest::approximate must match a directly-constructed
    // FprasEstimator with the same seed.
    let config = ApproxConfig {
        epsilon: 0.2,
        delta: 0.05,
        seed: 1234,
        ..ApproxConfig::default()
    };
    let ucq = rewrite_to_ucq(q).unwrap();
    let direct_estimate = FprasEstimator::new(db, keys, &ucq)
        .unwrap()
        .estimate(&config)
        .unwrap();
    let engine_estimate = engine
        .run(
            &CountRequest::approximate(q.clone(), config.epsilon, config.delta)
                .with_seed(config.seed),
        )
        .unwrap()
        .answer
        .as_estimate()
        .unwrap()
        .clone();
    assert_eq!(
        engine_estimate.estimate, direct_estimate.estimate,
        "engine vs direct FPRAS for {q}"
    );
    assert_eq!(engine_estimate.samples_used, direct_estimate.samples_used);
}

#[test]
fn employee_scenario_parity() {
    let (db, keys) = employee_example();
    for text in [
        "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        "EXISTS n . Employee(2, n, 'IT')",
        "Employee(1, 'Bob', 'HR')",
        "Employee(1, 'Bob', 'HR') OR Employee(2, 'Tim', 'IT')",
        "EXISTS n, d . Employee(3, n, d)",
        "TRUE",
        "FALSE",
    ] {
        let q = parse_query(text).unwrap();
        assert_engine_parity(&db, &keys, &q);
    }
}

#[test]
fn two_source_customers_scenario_parity() {
    let (db, keys) = two_source_customers(8, 2);
    for text in [
        "Customer(0, c, 'dormant')",
        "EXISTS c, d . Customer(0, c, 'dormant') AND Customer(2, d, 'dormant')",
        "Customer(0, c, 'dormant') OR Customer(4, d, 'active')",
        "EXISTS id, c . Customer(id, c, 'dormant') AND Order(1000, 0, 10)",
    ] {
        let q = parse_query(text).unwrap();
        assert_engine_parity(&db, &keys, &q);
    }
}

#[test]
fn cache_hits_skip_replanning_but_preserve_answers() {
    let (db, keys) = two_source_customers(10, 2);
    let engine = RepairEngine::new(db, keys);
    let q = parse_query("Customer(0, c, 'dormant') OR Customer(2, d, 'dormant')").unwrap();
    let cold = engine.run(&CountRequest::exact(q.clone())).unwrap();
    assert!(!cold.plan_cached);
    for _ in 0..5 {
        let warm = engine.run(&CountRequest::exact(q.clone())).unwrap();
        assert!(warm.plan_cached);
        assert_eq!(
            warm.answer.as_count().unwrap(),
            cold.answer.as_count().unwrap()
        );
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one planning pass");
    assert_eq!(stats.hits, 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: engine reports agree with the direct algorithms on random
    /// databases and point-query unions.
    #[test]
    fn prop_engine_parity_on_point_unions(seed in 0u64..1000, blocks in 2usize..5, size in 1usize..4) {
        let (db, keys) = InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", blocks), RelationSpec::keyed("S", blocks)],
            block_sizes: BlockSizeDistribution::Fixed(2),
            payload_domain: 4,
            seed,
        }
        .generate();
        let q = random_point_query_union(&db, &QueryGenConfig { size, seed });
        assert_engine_parity(&db, &keys, &q);
    }

    /// Property: same parity on random join queries over skewed blocks.
    #[test]
    fn prop_engine_parity_on_joins(seed in 0u64..1000, blocks in 2usize..5) {
        let (db, keys) = InconsistentDbConfig {
            relations: vec![RelationSpec::keyed("R", blocks)],
            block_sizes: BlockSizeDistribution::Uniform { min: 1, max: 3 },
            payload_domain: 5,
            seed,
        }
        .generate();
        let q = random_join_query(&db, &keys, &QueryGenConfig { size: 2, seed });
        assert_engine_parity(&db, &keys, &q);
    }
}
