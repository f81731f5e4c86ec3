//! The traced in-process run: the benchmark's own spans around calls into
//! each layer's public functions, on the inputs a socket phase consumed.
//!
//! Per op, a shadow `RepairEngine` repeats the parse and engine calls the
//! server makes, then an `Oracle` in the same state executes the whole
//! line.  Both start from the same base and see the same op sequence, so
//! their plan caches agree, and `Oracle::feed` minus the parse and engine
//! spans estimates the session's own work (reply rendering included).

use std::io;
use std::time::{Duration, Instant};

use cdr_core::replog::{apply_record, decode_record_batch, encode_record_batch, survivors_of};
use cdr_core::{
    decode_bulk, encode_bulk, parse_count_request, parse_engine_command, CacheStats, EngineCommand,
    LogOp, LogRecord, LogWriter, RepairEngine,
};
use cdr_repairdb::{Database, KeySet, Mutation, Snapshot};
use cdr_server::Oracle;

use crate::gen::{self, Class};
use crate::net::fresh_dir;
use crate::stats::{mean, median, ms, timed, us, Report, Tracer};

/// One replayed unit: a wire line, or a `BULK` frame with its ops.
pub enum Item<'a> {
    Line(&'a str),
    Frame(&'a [u8]),
}

/// Per-class and per-layer samples of one replay.
#[derive(Default)]
struct Samples {
    feed_read: Vec<f64>,
    feed_write: Vec<f64>,
    parse_read: Vec<f64>,
    parse_write: Vec<f64>,
    render: Vec<f64>,
    by_verb: [Vec<f64>; 5],
    approx_samples: Vec<f64>,
    approx_us: f64,
    apply: Vec<f64>,
    compactions: u64,
    compact_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
    mutations: Vec<Mutation>,
    records: Vec<LogRecord>,
}

const VERBS: [&str; 5] = ["COUNT", "CERTAIN", "DECIDE", "FREQ", "APPROX"];

/// The in-process replay.  Stops early once `budget` is spent.
pub struct Replay {
    shadow: RepairEngine,
    oracle: Oracle,
    auto_compact: Option<u64>,
    samples: Samples,
    pub tracer: Tracer,
    op: u64,
}

impl Replay {
    pub fn new(base: (Database, KeySet), auto_compact: Option<u64>) -> Self {
        let (db, keys) = base;
        let shadow = RepairEngine::new(db.clone(), keys.clone());
        let mut oracle = Oracle::new(RepairEngine::new(db, keys));
        if let Some(threshold) = auto_compact {
            oracle = oracle.with_auto_compact(threshold);
        }
        Replay {
            shadow,
            oracle,
            auto_compact,
            samples: Samples::default(),
            tracer: Tracer::new(),
            op: 0,
        }
    }

    pub fn run(&mut self, items: &[Item<'_>], budget: Duration) -> usize {
        let before = self.shadow.cache_stats();
        let started = Instant::now();
        let mut done = 0;
        for item in items {
            if started.elapsed() > budget {
                break;
            }
            match item {
                Item::Line(line) => self.line(line),
                Item::Frame(frame) => self.frame(frame),
            }
            done += 1;
        }
        self.count_cache(before);
        done
    }

    fn count_cache(&mut self, before: CacheStats) {
        let after = self.shadow.cache_stats();
        self.samples.hits += after.hits - before.hits;
        self.samples.misses += after.misses - before.misses;
        self.samples.evictions += after.evictions - before.evictions;
        self.samples.invalidations += after.invalidations - before.invalidations;
    }

    /// The shadow engine's auto-compaction step before a mutation, logged
    /// as a replication record exactly as a primary would.
    fn policy(&mut self, root: usize) -> Duration {
        let Some(threshold) = self.auto_compact else {
            return Duration::ZERO;
        };
        let shadow = &mut self.shadow;
        let (outcome, took) = self.tracer.span("engine.compact", Some(root), self.op, || {
            shadow.maybe_compact(threshold)
        });
        if let Some(outcome) = outcome {
            self.samples.compactions += 1;
            self.samples.compact_ms.push(ms(took));
            self.samples.records.push(LogRecord {
                epoch: 1,
                offset: self.samples.records.len() as u64,
                op: LogOp::Compact {
                    fact_ids_before: outcome.report.fact_ids_before,
                    survivors: survivors_of(&outcome.report),
                },
            });
        }
        took
    }

    fn apply(&mut self, root: usize, mutation: Mutation) -> Duration {
        let shadow = &mut self.shadow;
        let m = mutation.clone();
        let (result, took) = self
            .tracer
            .span("engine.apply", Some(root), self.op, || shadow.apply(m));
        if result.is_ok() {
            self.samples.apply.push(us(took));
        }
        self.samples.records.push(LogRecord {
            epoch: 1,
            offset: self.samples.records.len() as u64,
            op: LogOp::Mutation(mutation.clone()),
        });
        self.samples.mutations.push(mutation);
        took
    }

    /// The parse and engine spans of one line on the shadow engine.
    fn parse_and_engine(&mut self, line: &str, root: usize) -> (Duration, Duration) {
        let op = self.op;
        let verb = line.split_whitespace().next().unwrap_or("");
        let (mut parse, mut engine) = (Duration::ZERO, Duration::ZERO);
        if gen::class_of(line) == Class::Write {
            let db = self.shadow.database();
            let (command, took) = self.tracer.span("wire.parse", Some(root), op, || {
                parse_engine_command(line, db)
            });
            parse = took;
            self.samples.parse_write.push(us(took));
            engine += self.policy(root);
            if let Ok(EngineCommand::Mutate(mutation)) = command {
                engine += self.apply(root, mutation);
            }
        } else if let Some(kind) = VERBS.iter().position(|v| *v == verb) {
            let (request, took) = self
                .tracer
                .span("wire.parse", Some(root), op, || parse_count_request(line));
            parse = took;
            self.samples.parse_read.push(us(took));
            if let Ok(request) = request {
                let shadow = &self.shadow;
                let (report, took) = self
                    .tracer
                    .span("engine.run", Some(root), op, || shadow.run(&request));
                engine = took;
                self.samples.by_verb[kind].push(us(took));
                if let (Ok(report), 4) = (report, kind) {
                    self.samples.approx_samples.push(report.samples_used as f64);
                    self.samples.approx_us += us(report.duration);
                }
            }
        }
        (parse, engine)
    }

    fn line(&mut self, line: &str) {
        self.op += 1;
        let root = self.tracer.open("op", None, self.op);
        let (parse, engine) = self.parse_and_engine(line, root);
        let oracle = &mut self.oracle;
        let (_, feed) = self
            .tracer
            .span("session.feed", Some(root), self.op, || oracle.feed(line));
        match gen::class_of(line) {
            Class::Read => self.samples.feed_read.push(us(feed)),
            Class::Write => self.samples.feed_write.push(us(feed)),
        }
        if parse + engine > Duration::ZERO {
            self.samples.render.push(us(feed) - us(parse + engine));
        }
        self.tracer.close(root);
    }

    /// Parse and engine spans only, for read probes a workload's socket
    /// phase does not send (the ingest read class is follower `STATS`).
    pub fn probe_engine(&mut self, lines: &[String]) {
        let before = self.shadow.cache_stats();
        for line in lines {
            self.op += 1;
            let root = self.tracer.open("op", None, self.op);
            self.parse_and_engine(line, root);
            self.tracer.close(root);
        }
        self.count_cache(before);
    }

    fn frame(&mut self, frame: &[u8]) {
        self.op += 1;
        let op = self.op;
        let root = self.tracer.open("op", None, op);
        let db = self.shadow.database();
        let (decoded, parse) = self
            .tracer
            .span("frame.decode", Some(root), op, || decode_bulk(frame, db));
        let mut engine = Duration::ZERO;
        for mutation in decoded.unwrap_or_default() {
            engine += self.policy(root);
            engine += self.apply(root, mutation);
        }
        let oracle = &mut self.oracle;
        let (_, feed) = self
            .tracer
            .span("session.feed", Some(root), op, || oracle.feed_bulk(frame));
        self.samples.feed_write.push(us(feed));
        self.samples.render.push(us(feed) - us(parse + engine));
        self.tracer.close(root);
    }

    /// Times the text parse of write lines that travelled as frames.
    pub fn parse_writes(&mut self, lines: &[&str]) {
        for line in lines {
            self.op += 1;
            let db = self.shadow.database();
            let (_, took) = self.tracer.span("wire.parse", None, self.op, || {
                parse_engine_command(line, db)
            });
            self.samples.parse_write.push(us(took));
        }
    }

    /// Fills every per-layer metric the replay measures into `report`.
    pub fn report(&self, base: &(Database, KeySet), report: &mut Report) -> io::Result<()> {
        let s = &self.samples;
        report.put("session.feed_us.read", median(&s.feed_read), "us");
        report.put("session.feed_us.write", median(&s.feed_write), "us");
        // A difference of two timings on separate engines: its mean is
        // the estimate, single samples can be negative.
        report.put("reply.render_us", mean(&s.render), "us");
        report.put("wire.parse_us.read", median(&s.parse_read), "us");
        report.put("wire.parse_us.write", median(&s.parse_write), "us");
        for (verb, samples) in ["count", "certain", "decide", "freq", "approx"]
            .iter()
            .zip(&s.by_verb)
        {
            report.put(&format!("engine.{verb}_us"), median(samples), "us");
        }
        let lookups = s.hits + s.misses;
        report.put(
            "plan.hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                s.hits as f64 / lookups as f64
            },
            "ratio",
        );
        report.put("plan.evictions", s.evictions as f64, "count");
        report.put("plan.invalidations", s.invalidations as f64, "count");
        let samples: f64 = s.approx_samples.iter().sum();
        report.put("approx.samples_per_query", mean(&s.approx_samples), "count");
        report.put(
            "approx.us_per_sample",
            if samples > 0.0 {
                s.approx_us / samples
            } else {
                0.0
            },
            "us",
        );
        report.put("engine.apply_us", median(&s.apply), "us");
        report.put("engine.compactions", s.compactions as f64, "count");
        let compact_ms = if s.compact_ms.is_empty() {
            // No policy compaction fired: time one explicit compaction of
            // the replayed end state instead.
            let mut end =
                RepairEngine::new(self.shadow.database().clone(), self.shadow.keys().clone());
            let ((), took) = timed(|| {
                end.compact();
            });
            ms(took)
        } else {
            median(&s.compact_ms)
        };
        report.put("engine.compact_ms", compact_ms, "ms");
        codec_layers(base, &s.mutations, &s.records, report)
    }

    /// The oracle's engine, for cross-checking plan-cache counters.
    pub fn oracle_cache(&self) -> CacheStats {
        self.oracle.with_engine(|e| e.cache_stats())
    }
}

/// Frame, command-log and snapshot codecs over a workload's mutations.
fn codec_layers(
    base: &(Database, KeySet),
    mutations: &[Mutation],
    records: &[LogRecord],
    report: &mut Report,
) -> io::Result<()> {
    let (db, keys) = base;
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for chunk in mutations.chunks(gen::FRAME_OPS) {
        let (frame, took) = timed(|| encode_bulk(db, chunk));
        encode.push(us(took) / chunk.len() as f64);
        let (decoded, took) = timed(|| decode_bulk(&frame, db));
        decode.push(us(took) / chunk.len() as f64);
        decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        bytes += frame.len();
    }
    report.put("frame.encode_us_per_op", median(&encode), "us");
    report.put("frame.decode_us_per_op", median(&decode), "us");
    report.put(
        "frame.bytes_per_op",
        bytes as f64 / mutations.len().max(1) as f64,
        "bytes",
    );

    let payloads: Vec<Vec<u8>> = records.iter().map(LogRecord::encode).collect();
    let dir = fresh_dir("replog")?;
    let mut writer = LogWriter::open(&dir.join("log.bin"))?;
    let mut append = Vec::with_capacity(payloads.len());
    for payload in &payloads {
        let (result, took) = timed(|| writer.append(payload));
        result?;
        append.push(us(took));
    }
    report.put("replog.append_us", median(&append), "us");
    let record_bytes: usize = payloads.iter().map(Vec::len).sum();
    report.put(
        "replog.record_bytes",
        record_bytes as f64 / payloads.len().max(1) as f64,
        "bytes",
    );
    let (mut batch_encode, mut batch_decode, mut batch_bytes) = (Vec::new(), Vec::new(), 0usize);
    for chunk in payloads.chunks(64) {
        let (batch, took) = timed(|| encode_record_batch(chunk));
        batch_encode.push(us(took));
        let (decoded, took) = timed(|| decode_record_batch(&batch));
        batch_decode.push(us(took));
        decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        batch_bytes += batch.len();
    }
    report.put("replog.batch_encode_us", median(&batch_encode), "us");
    report.put("replog.batch_decode_us", median(&batch_decode), "us");
    report.put(
        "repl.feed_bytes_per_record",
        batch_bytes as f64 / payloads.len().max(1) as f64,
        "bytes",
    );
    let mut replica = RepairEngine::new(db.clone(), keys.clone());
    let mut apply = Vec::with_capacity(records.len());
    for record in records {
        let (result, took) = timed(|| apply_record(&mut replica, record));
        result.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        apply.push(us(took));
    }
    report.put("replog.apply_us", median(&apply), "us");

    let engine = RepairEngine::new(db.clone(), keys.clone());
    let snapshot = Snapshot {
        epoch: 1,
        offset: 0,
        generation: engine.generation(),
        rel_generations: engine.rel_generations().to_vec(),
        db: db.clone(),
        keys: keys.clone(),
    };
    let (mut enc, mut dec, mut restore, mut size) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let (image, took) = timed(|| snapshot.encode());
        let image = image.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        enc.push(ms(took));
        size = image.len();
        let (decoded, took) = timed(|| Snapshot::decode(&image));
        let decoded =
            decoded.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        dec.push(ms(took));
        let (restored, took) = timed(|| {
            RepairEngine::restore(
                decoded.db,
                decoded.keys,
                decoded.generation,
                decoded.rel_generations,
            )
        });
        restore.push(ms(took));
        drop(restored);
    }
    report.put("snapshot.bytes", size as f64, "bytes");
    report.put("snapshot.encode_ms", median(&enc), "ms");
    report.put("snapshot.decode_ms", median(&dec), "ms");
    report.put("snapshot.restore_ms", median(&restore), "ms");
    Ok(())
}
