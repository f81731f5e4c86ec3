//! Seeded input generators.  Every stream is a pure function of the
//! workload seed; write streams are simulated against a `RepairEngine`
//! (as `cdr_workloads::churn_session` does) so every `DELETE` names an id
//! that is live when the server applies it.

use std::collections::VecDeque;
use std::time::Duration;

use cdr_core::RepairEngine;
use cdr_repairdb::{Database, Fact, KeySet, Mutation};
use cdr_workloads::{churn_base, sensor_readings};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `--auto-compact` waste threshold of the churn server.
pub const CHURN_AUTO_COMPACT: u64 = 64;
/// Distinct churn probe keys: 16 plans, well inside the 1024-entry plan
/// cache.
pub const CHURN_PROBE_KEYS: u64 = 16;
/// Sensors base: 64 × 16 readings, so probes over its 1024 (sensor, tick)
/// keys in three query shapes exceed the 1024-entry plan cache.
pub const SENSORS_BASE: (usize, usize, usize) = (64, 16, 2);
/// Ingest base: about 72k facts, large enough that follower snapshot
/// bootstrap is a visible share of set-up.
pub const INGEST_BASE: (usize, usize, usize) = (1100, 64, 2);
/// A balanced writer deletes each inserted reading this many writes later.
pub const DELETE_DELAY: usize = 8;
/// Ops per ingest `BULK` frame.
pub const FRAME_OPS: usize = 64;
/// Reads per write on the sensors workload.
pub const READS_PER_WRITE: usize = 4;

/// Whether a line reads or writes, for latency classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

pub fn class_of(line: &str) -> Class {
    match line.split_whitespace().next().unwrap_or("") {
        "INSERT" | "DELETE" => Class::Write,
        _ => Class::Read,
    }
}

pub fn churn_data() -> (Database, KeySet) {
    churn_base()
}

pub fn sensors_data() -> (Database, KeySet) {
    let (s, t, d) = SENSORS_BASE;
    sensor_readings(s, t, d)
}

pub fn ingest_data() -> (Database, KeySet) {
    let (s, t, d) = INGEST_BASE;
    sensor_readings(s, t, d)
}

/// The five probe semantics, as wire lines over one query.
fn probe(kind: usize, query: &str) -> String {
    match kind {
        0 => format!("COUNT auto {query}"),
        1 => format!("CERTAIN {query}"),
        2 => format!("DECIDE {query}"),
        3 => format!("FREQ {query}"),
        _ => format!("APPROX 0.25 0.1 {query}"),
    }
}

/// One of three single-atom query shapes over the readings of
/// (sensor, tick): any value, the base value, or the first conflicting
/// value (`sensor_readings` stores `(s·31 + t·7) mod 100`, and +5 for a
/// duplicate).  Three shapes × 1024 keys give 3072 distinct plans.
fn reading_query(shape: usize, s: usize, t: usize) -> String {
    let base = (s * 31 + t * 7) % 100;
    match shape {
        0 => format!("EXISTS v . Reading({s}, {t}, v)"),
        1 => format!("Reading({s}, {t}, {base})"),
        _ => format!("Reading({s}, {t}, {})", base + 5),
    }
}

/// The churn stream: a delete-heavy insert/delete/probe mix over the
/// `churn_base` schema, simulated under the server's auto-compaction
/// policy.  Per 20 ops: 5 inserts, 7 deletes (a probe instead when only
/// the floor of 3 facts is left), 8 probes or `STATS`.
pub fn churn_stream(seed: u64, ops: usize) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A2_0001);
    let (db, keys) = churn_data();
    let mut engine = RepairEngine::new(db, keys);
    let mut out = Vec::with_capacity(ops);
    for _ in 0..ops {
        let roll = rng.gen_range(0..20u32);
        let key = rng.gen_range(0..CHURN_PROBE_KEYS);
        if roll < 5 {
            engine.maybe_compact(CHURN_AUTO_COMPACT);
            let text = format!("Event({key}, 'p{}')", rng.gen_range(0..7u32));
            let fact = engine
                .database()
                .parse_fact(&text)
                .expect("well-formed event");
            engine.apply(Mutation::Insert(fact)).expect("inserts apply");
            out.push(format!("INSERT {text}"));
        } else if roll < 12 && engine.database().len() > 3 {
            engine.maybe_compact(CHURN_AUTO_COMPACT);
            let nth = rng.gen_range(0..engine.database().len());
            let (id, _) = engine.database().iter().nth(nth).expect("nth is live");
            engine
                .apply(Mutation::Delete(id))
                .expect("the victim is live after the policy ran");
            out.push(format!("DELETE {}", id.index()));
        } else if roll == 19 {
            out.push("STATS".to_string());
        } else {
            out.push(probe(
                rng.gen_range(0..5),
                &format!("EXISTS v . Event({key}, v)"),
            ));
        }
    }
    out
}

/// One generated write: its wire line and the mutation it parses to.
pub struct Write {
    pub line: String,
    pub mutation: Mutation,
}

/// A balanced insert/delete writer over a `Reading(sensor, tick, value)`
/// base: each write inserts a fresh conflicting reading, and once
/// [`DELETE_DELAY`] readings are pending every other write deletes the
/// oldest, so the fact count stays within `DELETE_DELAY + 1` of the base.
pub fn balanced_writes(
    seed: u64,
    base: (Database, KeySet),
    sensors: usize,
    ticks: usize,
    count: usize,
) -> Vec<Write> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E75_0002);
    let (db, keys) = base;
    let mut engine = RepairEngine::new(db, keys);
    let mut pending: VecDeque<Fact> = VecDeque::new();
    let mut out = Vec::with_capacity(count);
    let mut delete_next = false;
    while out.len() < count {
        if pending.len() >= DELETE_DELAY && delete_next {
            let fact = pending.pop_front().expect("pending is non-empty");
            let id = engine
                .database()
                .fact_id(&fact)
                .expect("pending readings are live");
            let mutation = Mutation::Delete(id);
            engine.apply(mutation.clone()).expect("the victim is live");
            out.push(Write {
                line: format!("DELETE {}", id.index()),
                mutation,
            });
        } else {
            let text = format!(
                "Reading({}, {}, {})",
                rng.gen_range(0..sensors),
                rng.gen_range(0..ticks),
                1_000 + rng.gen_range(0..1_000_000u32)
            );
            let fact = engine
                .database()
                .parse_fact(&text)
                .expect("well-formed reading");
            if engine.database().contains(&fact) {
                continue;
            }
            engine
                .apply(Mutation::Insert(fact.clone()))
                .expect("inserts apply");
            pending.push_back(fact.clone());
            out.push(Write {
                line: format!("INSERT {text}"),
                mutation: Mutation::Insert(fact),
            });
        }
        delete_next = !delete_next;
    }
    out
}

pub fn sensors_writes(seed: u64, count: usize) -> Vec<Write> {
    let (s, t, _) = SENSORS_BASE;
    balanced_writes(seed, sensors_data(), s, t, count)
}

pub fn ingest_writes(seed: u64, count: usize) -> Vec<Write> {
    let (s, t, _) = INGEST_BASE;
    balanced_writes(seed, ingest_data(), s, t, count)
}

/// The sensors reader's semantics mix, in percent: COUNT, CERTAIN, DECIDE,
/// FREQ, APPROX.  A counting probe costs a few µs of engine time on this
/// base and an estimate ~3 ms, so with estimates the majority both read
/// percentiles measure engine work rather than the µs-scale wake-up
/// latency of the host, and neither sits on the boundary between the two.
const SENSORS_MIX: [u32; 5] = [15, 10, 5, 10, 60];
/// The index of `APPROX` in [`probe`] and [`SENSORS_MIX`].
const APPROX: usize = 4;

/// Seeded probes over the sensors base's (sensor, tick) keys, semantics
/// drawn by [`SENSORS_MIX`], counting probes uniform over the three query
/// shapes (3072 plans) and estimates over the existential one.
pub fn sensors_reads(seed: u64, count: usize) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4EAD_0003);
    let (sensors, ticks, _) = SENSORS_BASE;
    (0..count)
        .map(|_| {
            let mut roll = rng.gen_range(0..100u32);
            let kind = SENSORS_MIX
                .iter()
                .position(|share| {
                    let hit = roll < *share;
                    roll = roll.saturating_sub(*share);
                    hit
                })
                .expect("the mix sums to 100");
            // The engine answers an estimate of a ground atom exactly in
            // µs; only the existential shape makes it sample.
            let shape = if kind == APPROX {
                0
            } else {
                rng.gen_range(0..3)
            };
            let query = reading_query(shape, rng.gen_range(0..sensors), rng.gen_range(0..ticks));
            probe(kind, &query)
        })
        .collect()
}

/// Seeded exponential think times with the given mean: a writer that
/// waits these between an ack and its next send arrives at random phases
/// of the reader's work instead of locking onto its period.
pub fn think_times(seed: u64, count: usize, mean: Duration) -> Vec<Duration> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7417_0004);
    (0..count)
        .map(|_| mean.mul_f64(-(1.0 - rng.gen_range(0.0..1.0f64)).ln()))
        .collect()
}

/// A fixed read battery for the end-of-run consistency checks: counting,
/// decision and frequency probes over a spread of keys of a `Reading`
/// base, plus two estimates (each draws hundreds of samples over the
/// whole base, so the battery keeps them few).
pub fn reading_battery(sensors: usize, ticks: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..9 {
        let query = reading_query(i % 3, (i * 7) % sensors, (i * 5) % ticks);
        let kinds = if i < 2 { 0..5 } else { 0..4 };
        out.extend(kinds.map(|kind| probe(kind, &query)));
    }
    out
}

/// The part of a `STATS` reply before the plan-cache tail: the engine
/// gauges, which depend only on the mutation history.
pub fn stats_head(reply: &str) -> &str {
    reply.split(" | ").next().unwrap_or(reply)
}

/// The value of a `key=<n>` field of a reply line.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("{key}=");
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(needle.as_str()))
        .and_then(|value| value.parse().ok())
}
