//! Criterion bench for the replication feed codec: a follower catch-up
//! over framed record batches (one CRC per batch) at 4k- and 64k-record
//! log suffixes, plus a snapshot bootstrap reassembled from binary chunk
//! frames.  The wire-byte footprint is printed alongside, since the
//! feed's cost is bytes as much as cycles.
//!
//! The catch-up arm covers the feed's own layers — rendering the stored
//! payloads onto the wire and getting verified payload bytes back off
//! it.  `LogRecord` decoding is benchmarked in `replog/record`; the
//! `apply` group times it here too, so the end-to-end picture stays one
//! file away.

use std::time::Duration;

use cdr_core::replog::{
    chunk_header, decode_record_batch, encode_record_batch, frame, verify_chunk, LogOp, LogRecord,
};
use cdr_repairdb::{Database, FactId, KeySet, Mutation, Schema, Snapshot};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Records per `REPL FETCH` round trip (the tailer's default batch).
const FETCH: usize = 64;

/// Bytes of snapshot per chunk frame.
const BIN_CHUNK: usize = 64 * 1024;

fn feed_schema() -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("R", 2).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("R", 1)
        .expect("valid key")
        .build();
    (Database::new(schema), keys)
}

/// The encoded payloads of an `n`-record churn suffix — what a primary
/// holds in memory and a stale follower must pull.  Three short-string
/// inserts to one delete, mirroring the replication-parity trace.
fn suffix_payloads(db: &Database, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let op = if i % 4 == 3 {
                LogOp::Mutation(Mutation::Delete(FactId::new(i % 48)))
            } else {
                let fact = db
                    .parse_fact(&format!("R({}, 'p{i}')", i % 16))
                    .expect("valid fact");
                LogOp::Mutation(Mutation::Insert(fact))
            };
            LogRecord {
                epoch: 1,
                offset: i as u64,
                op,
            }
            .encode()
        })
        .collect()
}

/// Wire bytes an `n`-record catch-up costs: reply headers plus batch
/// frames.
fn wire_footprint(payloads: &[Vec<u8>]) -> u64 {
    payloads
        .chunks(FETCH)
        .map(|batch| {
            let encoded = encode_record_batch(batch);
            let header = format!(
                "OK REPL BATCH {} n={} next={} end={}\n",
                encoded.len(),
                batch.len(),
                payloads.len(),
                payloads.len()
            );
            (header.len() + encoded.len()) as u64
        })
        .sum()
}

fn bench_catchup(c: &mut Criterion) {
    let mut group = c.benchmark_group("repl_feed/catchup");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(300));
    let (db, _) = feed_schema();

    for suffix in [4_096usize, 65_536] {
        let payloads = suffix_payloads(&db, suffix);
        println!(
            "repl_feed: suffix={suffix} wire bytes bin={}",
            wire_footprint(&payloads)
        );

        // The primary frames each batch once (one CRC over the lot)
        // behind one header line; the follower parses the header,
        // slices the announced frame off the wire, and takes the
        // verified payloads straight out of it.
        group.bench_function(BenchmarkId::new("bin", suffix), |b| {
            b.iter(|| {
                let mut shipped = 0usize;
                for (i, batch) in payloads.chunks(FETCH).enumerate() {
                    // Serve: one header line, then the raw frame.
                    let encoded = encode_record_batch(batch);
                    let mut wire = format!(
                        "OK REPL BATCH {} n={} next={} end={}\n",
                        encoded.len(),
                        batch.len(),
                        (i + 1) * FETCH,
                        payloads.len()
                    )
                    .into_bytes();
                    wire.extend_from_slice(&encoded);
                    // Tail: header line, then the announced bytes.
                    let eol = wire.iter().position(|&b| b == b'\n').expect("own header");
                    let header = String::from_utf8_lossy(&wire[..eol]).into_owned();
                    let len: usize = header
                        .strip_prefix("OK REPL BATCH ")
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|token| token.parse().ok())
                        .expect("own header");
                    let frame = &wire[eol + 1..eol + 1 + len];
                    for payload in decode_record_batch(frame).expect("own frame") {
                        shipped += payload.len();
                    }
                }
                shipped
            })
        });
    }
    group.finish();
}

/// The tail the follower pays after the codec: decoding each verified
/// payload into a `LogRecord` ready for engine apply.
fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("repl_feed/apply");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));
    let (db, _) = feed_schema();
    let schema = db.schema().clone();
    let payloads = suffix_payloads(&db, 4_096);
    group.bench_function(BenchmarkId::new("decode_records", 4_096), |b| {
        b.iter(|| {
            let mut applied = 0u64;
            for payload in &payloads {
                let record = LogRecord::decode(payload, &schema).expect("own record");
                applied += record.offset & 1;
            }
            applied
        })
    });
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    let mut group = c.benchmark_group("repl_feed/bootstrap");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    let (mut db, keys) = feed_schema();
    for k in 0..50_000 {
        db.insert_parsed(&format!("R({k}, 'a')")).expect("valid");
        db.insert_parsed(&format!("R({k}, 'b')")).expect("valid");
    }
    let snapshot = Snapshot {
        epoch: 1,
        offset: 42,
        generation: 7,
        rel_generations: vec![7],
        db,
        keys,
    };
    let bytes = snapshot.encode().expect("dense images encode");
    let facts = 100_000usize;

    // Pre-render the served chunks: the bench times the follower's side
    // of the bootstrap — reassembling and decoding the image.
    let bin_chunks: Vec<Vec<u8>> = bytes.chunks(BIN_CHUNK).map(frame).collect();
    println!(
        "repl_feed: bootstrap={} bytes, wire bin={}",
        bytes.len(),
        bin_chunks.iter().map(Vec::len).sum::<usize>()
    );

    group.bench_function(BenchmarkId::new("bin", facts), |b| {
        b.iter(|| {
            let mut image = Vec::with_capacity(bytes.len());
            for chunk in &bin_chunks {
                let (len, crc) = chunk_header(&chunk[..8]).expect("own header");
                let payload = &chunk[8..8 + len];
                verify_chunk(crc, payload).expect("own checksum");
                image.extend_from_slice(payload);
            }
            Snapshot::decode(&image).expect("own image")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_catchup, bench_apply, bench_bootstrap);
criterion_main!(benches);
