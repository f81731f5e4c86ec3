//! End-to-end reproduction of the paper's Example 1.1 through the facade
//! crate, exercising every public entry point on the same tiny instance
//! via the [`RepairEngine`] request/report API.

use repair_count::counting::Strategy as EngineStrategy;
use repair_count::db::{count_repairs, BlockPartition, Repair, RepairIter};
use repair_count::lambda::{reduce_compactor_to_cqa, unfold_count, CqaCompactor};
use repair_count::prelude::*;
use repair_count::query::{evaluate, keywidth, rewrite_to_ucq};
use repair_count::workloads::employee_example;

fn query() -> Query {
    parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap()
}

fn engine() -> RepairEngine {
    let (db, keys) = employee_example();
    RepairEngine::new(db, keys)
}

#[test]
fn the_running_example_counts_two_of_four() {
    let engine = engine();
    let q = query();

    assert_eq!(engine.total_repairs().to_u64(), Some(4));
    let count = engine.run(&CountRequest::exact(q.clone())).unwrap();
    assert_eq!(count.answer.as_count().unwrap().to_u64(), Some(2));
    let freq = engine.run(&CountRequest::frequency(q.clone())).unwrap();
    assert_eq!(freq.answer.as_frequency().unwrap().to_string(), "1/2");
    assert_eq!(engine.keywidth(&q), 2);
    let possible = engine.run(&CountRequest::decision(q.clone())).unwrap();
    assert_eq!(possible.answer.as_bool(), Some(true));
    let certain = engine.run(&CountRequest::certain_answer(q)).unwrap();
    assert_eq!(certain.answer.as_bool(), Some(false));
    // Five requests, one planning pass.
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(engine.cache_stats().hits, 4);
}

#[test]
fn blocks_and_repairs_match_the_paper() {
    let (db, keys) = employee_example();
    let blocks = BlockPartition::new(&db, &keys);
    assert_eq!(blocks.len(), 2);
    assert_eq!(blocks.sizes(), vec![2, 2]);
    assert_eq!(count_repairs(&blocks).to_u64(), Some(4));

    let q = query();
    let mut entailing = 0;
    for repair in RepairIter::new(&blocks) {
        assert!(Repair::is_repair(&db, &keys, repair.facts()));
        let repaired = repair.to_database(&db);
        assert!(repaired.is_consistent(&keys));
        if evaluate(&repaired, &q).unwrap() {
            entailing += 1;
        }
    }
    assert_eq!(entailing, 2);
}

#[test]
fn all_counting_routes_agree_on_the_example() {
    let engine = engine();
    let q = query();
    let ucq = rewrite_to_ucq(&q).unwrap();

    let by_enumeration = engine
        .run(&CountRequest::exact(q.clone()).with_strategy(EngineStrategy::Enumeration))
        .unwrap()
        .answer
        .as_count()
        .unwrap()
        .clone();
    let by_boxes = engine
        .run(&CountRequest::exact(q.clone()).with_strategy(EngineStrategy::CertificateBoxes))
        .unwrap()
        .answer
        .as_count()
        .unwrap()
        .clone();
    let compactor = CqaCompactor::new(engine.database(), engine.keys(), &ucq).unwrap();
    let by_compactor = unfold_count(&compactor, 1_000).unwrap();
    let by_reduction = reduce_compactor_to_cqa(&compactor)
        .unwrap()
        .count(1_000_000)
        .unwrap();
    assert_eq!(by_enumeration.to_u64(), Some(2));
    assert_eq!(by_boxes, by_enumeration);
    assert_eq!(by_compactor, by_enumeration);
    assert_eq!(by_reduction, by_enumeration);
}

#[test]
fn approximations_bracket_the_exact_answer() {
    let engine = engine();
    let q = query();
    let exact = BigNat::from(2u64);
    for seed in 0..5u64 {
        let fpras = engine
            .run(&CountRequest::approximate(q.clone(), 0.1, 0.05).with_seed(seed))
            .unwrap();
        let kl = engine
            .run(
                &CountRequest::approximate(q.clone(), 0.1, 0.05)
                    .with_seed(seed)
                    .with_strategy(EngineStrategy::KarpLuby),
            )
            .unwrap();
        assert!(
            fpras.answer.as_estimate().unwrap().relative_error(&exact) <= 0.1,
            "seed {seed}"
        );
        assert!(
            kl.answer.as_estimate().unwrap().relative_error(&exact) <= 0.1,
            "seed {seed}"
        );
    }
    // All ten runs shared one plan.
    assert_eq!(engine.cache_stats().misses, 1);
}

#[test]
fn keywidth_of_the_example_query_is_two() {
    let (db, keys) = employee_example();
    let q = query();
    assert_eq!(keywidth(&q, db.schema(), &keys), 2);
    let ucq = rewrite_to_ucq(&q).unwrap();
    assert_eq!(ucq.len(), 1);
    // Both atoms use the Employee relation, so the single disjunct is a
    // self-join — exactly why the keywidth is 2, not 1.
    assert!(ucq.has_self_join());
}

/// Section 1.1's relative frequency, asked of the engine directly.
fn frequency(engine: &RepairEngine, text: &str) -> Ratio {
    let request = CountRequest::frequency(parse_query(text).unwrap());
    engine
        .run(&request)
        .unwrap()
        .answer
        .as_frequency()
        .unwrap()
        .clone()
}

#[test]
fn frequencies_follow_section_1_1() {
    let engine = engine();
    let half = frequency(
        &engine,
        "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
    );
    assert_eq!(half.to_string(), "1/2");
    assert!((half.to_f64() - 0.5).abs() < 1e-12);
    // A certain query holds in every repair, an impossible one in none.
    assert!(frequency(&engine, "EXISTS n . Employee(2, n, 'IT')").is_one());
    assert!(frequency(&engine, "EXISTS n, d . Employee(3, n, d)").is_zero());
    // A first-order query (negation) goes through the enumeration path.
    let negated = frequency(&engine, "NOT EXISTS i, n . Employee(i, n, 'HR')");
    assert_eq!(negated.to_string(), "1/2");

    // Every exact strategy agrees, and a budget of one repair makes
    // enumeration refuse rather than answer.
    for strategy in [
        EngineStrategy::Auto,
        EngineStrategy::Enumeration,
        EngineStrategy::CertificateBoxes,
    ] {
        let request = CountRequest::frequency(query())
            .with_strategy(strategy)
            .with_budget(1_000_000);
        let report = engine.run(&request).unwrap();
        assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
    }
    let starved = CountRequest::frequency(query())
        .with_strategy(EngineStrategy::Enumeration)
        .with_budget(1);
    assert!(engine.run(&starved).is_err());
}

#[test]
fn a_consistent_database_has_frequency_zero_or_one() {
    let mut schema = Schema::new();
    schema.add_relation("R", 2).unwrap();
    let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
    let mut db = Database::new(schema);
    db.insert_parsed("R(1, 'a')").unwrap();
    let engine = RepairEngine::new(db, keys);
    assert!(frequency(&engine, "R(1, 'a')").is_one());
    assert!(frequency(&engine, "R(1, 'b')").is_zero());
}
