//! The benchmark's own tests: generated inputs are valid, open-loop
//! latency carries stalls, and the output schema matches `BENCHMARK.json`.

use std::time::Duration;

use cdr_core::{encode_bulk, RepairEngine};
use cdr_repairdb::Mutation;
use cdr_server::{Oracle, Server, ServerConfig};

use crate::e2e::{self, Phase};
use crate::gen;
use crate::layers::{Item, Replay};
use crate::stats::Report;

const SEEDS: [u64; 4] = [1, 2, 3, 97];

fn assert_all_ok(what: &str, replies: Vec<String>) {
    for reply in replies {
        assert!(reply.starts_with("OK "), "{what}: `{reply}`");
    }
}

#[test]
fn churn_streams_replay_all_ok() {
    for seed in SEEDS {
        let (db, keys) = gen::churn_data();
        let mut oracle =
            Oracle::new(RepairEngine::new(db, keys)).with_auto_compact(gen::CHURN_AUTO_COMPACT);
        let lines = gen::churn_stream(seed, 5_000);
        assert!(lines.iter().any(|l| l.starts_with("DELETE")));
        for line in &lines {
            assert_all_ok(line, oracle.feed(line));
        }
        assert!(
            oracle.with_engine(|e| e.generation()) > 0,
            "seed {seed}: the stream mutates"
        );
    }
}

#[test]
fn sensors_streams_replay_all_ok() {
    for seed in SEEDS {
        let (db, keys) = gen::sensors_data();
        let facts = db.len();
        let mut oracle = Oracle::new(RepairEngine::new(db, keys));
        for write in gen::sensors_writes(seed, 400) {
            assert_all_ok(&write.line, oracle.feed(&write.line));
            let live = oracle.with_engine(|e| e.database().len());
            assert!(
                live >= facts && live <= facts + gen::DELETE_DELAY + 1,
                "fact count stays in its band"
            );
        }
        for line in gen::sensors_reads(seed, 200) {
            assert_all_ok(&line, oracle.feed(&line));
        }
    }
}

#[test]
fn ingest_frames_replay_all_ok() {
    let (db, keys) = gen::ingest_data();
    for seed in SEEDS {
        let mut oracle = Oracle::new(RepairEngine::new(db.clone(), keys.clone()));
        let writes = gen::ingest_writes(seed, 4 * gen::FRAME_OPS);
        for chunk in writes.chunks(gen::FRAME_OPS) {
            let mutations: Vec<Mutation> = chunk.iter().map(|w| w.mutation.clone()).collect();
            let replies = oracle.feed_bulk(&encode_bulk(&db, &mutations));
            assert_eq!(replies.len(), chunk.len());
            assert_all_ok("ingest frame", replies);
        }
    }
}

#[test]
fn streams_are_a_function_of_the_seed() {
    assert_eq!(gen::churn_stream(5, 500), gen::churn_stream(5, 500));
    assert_ne!(gen::churn_stream(5, 500), gen::churn_stream(6, 500));
    assert_eq!(gen::sensors_reads(5, 50), gen::sensors_reads(5, 50));
}

/// A `SLEEP` stall injected into an open-loop churn stream: the ops
/// scheduled behind it are still sent on time, so their latency from the
/// schedule carries the part of the stall they waited through.
#[test]
fn open_loop_latency_carries_a_stall() {
    const STALL_MS: f64 = 60.0;
    const RATE: f64 = 2_000.0; // one op every 0.5 ms
    let (db, keys) = gen::churn_data();
    let server = Server::start(
        RepairEngine::new(db, keys),
        ServerConfig::bind("127.0.0.1:0"),
    )
    .expect("an ephemeral port binds");
    let mut lines = gen::churn_stream(11, 400);
    let stall_at = 100;
    lines.insert(stall_at, format!("SLEEP {}", STALL_MS as u64));
    let run = e2e::open_loop(&server.addr().to_string(), &lines, RATE).expect("the stream runs");
    server.shutdown();
    server.join();
    assert_eq!(
        run.replies[stall_at],
        format!("OK SLEPT {}", STALL_MS as u64)
    );
    let period_ms = 1e3 / RATE;
    for behind in 1..100 {
        let i = stall_at + behind;
        let waited_through = STALL_MS - behind as f64 * period_ms;
        if waited_through <= 0.0 {
            break;
        }
        let latency = run.latency_from_schedule_ms(i);
        assert!(
            latency >= waited_through - 1.0,
            "op {behind} behind the stall: {latency:.2} ms from schedule, stall left {waited_through:.2} ms"
        );
        // Sent on schedule, not held back until the stall cleared.
        let lateness = run.sent[i].saturating_duration_since(run.due(i));
        assert!(
            lateness < Duration::from_millis(20),
            "op {behind} sent {lateness:?} late"
        );
    }
}

/// The metric names and units the benchmark's specification lists.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("lag_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [&str; 39] = [
    "transport.rtt_us",
    "transport.overhead_us.read",
    "transport.overhead_us.write",
    "scheduler.barrier_wait_ms",
    "session.feed_us.read",
    "session.feed_us.write",
    "reply.render_us",
    "net.bytes_out_per_op",
    "net.bytes_in_per_op",
    "wire.parse_us.read",
    "wire.parse_us.write",
    "engine.count_us",
    "engine.certain_us",
    "engine.decide_us",
    "engine.freq_us",
    "engine.approx_us",
    "plan.hit_ratio",
    "plan.evictions",
    "plan.invalidations",
    "approx.samples_per_query",
    "approx.us_per_sample",
    "engine.apply_us",
    "engine.compactions",
    "engine.compact_ms",
    "frame.encode_us_per_op",
    "frame.decode_us_per_op",
    "frame.bytes_per_op",
    "replog.append_us",
    "replog.record_bytes",
    "replog.batch_encode_us",
    "replog.batch_decode_us",
    "replog.apply_us",
    "repl.feed_bytes_per_record",
    "snapshot.bytes",
    "snapshot.encode_ms",
    "snapshot.decode_ms",
    "snapshot.restore_ms",
    "harness.late_p99_ms",
    "harness.tracing_overhead",
];

fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn names(report: &Report) -> Vec<&str> {
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names
}

#[test]
fn end_to_end_schema_matches_the_spec() {
    let mut report = Report::default();
    crate::end_to_end(&[Phase::default()], &mut report);
    let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(names(&report), want);
    let spec = spec();
    for m in &report.metrics {
        let (_, unit) = END_TO_END
            .iter()
            .find(|(n, _)| *n == m.name)
            .expect("listed");
        assert_eq!(m.unit, *unit, "{}", m.name);
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}

#[test]
fn per_layer_schema_matches_the_spec() {
    let lines = gen::churn_stream(3, 300);
    let items: Vec<Item> = lines.iter().map(|l| Item::Line(l)).collect();
    let base = gen::churn_data();
    let mut replay = Replay::new(base.clone(), Some(gen::CHURN_AUTO_COMPACT));
    replay.run(&items, Duration::from_secs(60));
    let report = crate::per_layer(&replay, &base, &Phase::default(), &Phase::default(), 0.0)
        .expect("the codecs round-trip");
    let mut want = PER_LAYER.to_vec();
    want.sort_unstable();
    assert_eq!(names(&report), want);
    let spec = spec();
    for m in &report.metrics {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let json = report.json(true, 1, 0);
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {"));
}
