//! Primary/follower replication over the line protocol.
//!
//! A [`ReplicatedBackend`] wraps the classic single-engine backend with a
//! replication sidecar: the **primary** appends every state-changing verb
//! to an in-memory record list (and, with `--log-dir`, a framed on-disk
//! log) *before* applying it, snapshots at every compaction point and
//! truncates the disk log there; a **follower** bootstraps from the
//! primary's snapshot over the ordinary text protocol (`REPL SNAPSHOT`),
//! then tails the record stream (`REPL FETCH`), applying each record
//! through the same replay path cold-start recovery uses.  Because wire
//! replies are deterministic functions of engine state and command order,
//! a caught-up follower answers every read — including seeded estimates
//! and `gen=`/`cached=` provenance — byte-identically to the primary.
//!
//! The protocol is pull-based and rides the existing line protocol:
//!
//! ```text
//! REPL HELLO                 -> OK REPL HELLO epoch=E base=B end=N snap=S role=R compact=C
//! REPL SNAPSHOT              -> OK REPL SNAPSHOT epoch=E offset=S bytes=B chunks=K
//!                               [len ‖ crc32 ‖ payload]   (x K, raw bytes)
//! REPL FETCH <from> <max>    -> OK REPL BATCH <len> n=N next=F end=E
//!                               <len raw bytes>           (one batch frame)
//! PROMOTE [FORCE]            -> OK PROMOTED epoch=E end=N   (follower, behind AUTH)
//! ```
//!
//! A batch is strict all-or-nothing, mirroring `BULK`: any defect —
//! flipped byte, bad CRC, truncation, an oversize header — rejects the
//! whole frame with one `ERR REPL FRAME <reason>` and zero records
//! applied, and the tailer degrades to its usual
//! drop-the-connection-and-retry backoff.  A defective snapshot degrades
//! the same way; a chunk header over the frame cap, or one that would
//! overrun the announced `bytes=`, is refused before its body is read.
//! The tailer also double-buffers the feed: while one batch applies
//! under the engine write guard, the next `FETCH` is already in flight,
//! so catch-up throughput is bounded by apply cost, not RTT × records.
//!
//! Mutating verbs on a follower answer `ERR READONLY …`; `PROMOTE` flips
//! the role and bumps the epoch without touching the engine, so a
//! promoted follower keeps serving the exact state it replicated.
//! `PROMOTE FORCE` promotes even a behind follower — the operator's (or
//! supervisor's) explicit acceptance that the acknowledged-but-unfetched
//! suffix is lost — and reports the loss as `dropped=<n>`.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

use cdr_core::replog::{
    apply_record, chunk_header, decode_record_batch, encode_record_batch, frame, hello_request,
    open_log, parse_compact_token, read_snapshot_file, survivors_of, verify_chunk,
    write_snapshot_file, LogOp, LogRecord, ReplogError, LOG_FILE,
};
use cdr_core::{CompactionOutcome, RepairEngine};
use cdr_num::BigNat;
use cdr_repairdb::{Mutation, Snapshot};

use crate::backend::apply_single;
use crate::client::Client;
use crate::reply;

/// Bytes of snapshot per `REPL SNAPSHOT` chunk frame.
const SNAPSHOT_CHUNK_BYTES: usize = 64 * 1024;

/// Most records one `REPL FETCH` answers, whatever the client asked for.
const MAX_FETCH_RECORDS: u64 = 256;

/// How many records the tailer requests per fetch when no
/// `--fetch-batch` override is given.
const DEFAULT_FETCH_RECORDS: u64 = 64;

/// Hard cap a tailer accepts for an `OK REPL BATCH <len>` header before
/// allocating anything: an upstream advertising more is answered with
/// one `ERR REPL FRAME` locally and dropped, never trusted.
const MAX_BATCH_FRAME_BYTES: u64 = 64 * 1024 * 1024;

/// Hard cap on one binary snapshot-chunk frame, same story.
const MAX_CHUNK_FRAME_BYTES: usize = 16 * 1024 * 1024;

fn rlock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wlock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `key=value` extraction from a reply header (`field_u64(line, "end=")`).
pub(crate) use cdr_core::replog::field_u64;

/// Renders a threshold for the `COMPACT MISMATCH` refusal (`16` / `off`).
fn threshold_value(threshold: Option<u64>) -> String {
    match threshold {
        Some(t) => t.to_string(),
        None => "off".to_string(),
    }
}

/// The usage refusal for a malformed `REPL HELLO` announcement.
fn hello_usage() -> String {
    "ERR REPL usage: REPL HELLO [epoch=<e>] [compact=<waste>|compact=off]".to_string()
}

/// Which side of the replication pair this backend currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations, appends-then-applies, serves the log.
    Primary,
    /// Tails a primary, serves reads, refuses mutations.
    Follower,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
        }
    }
}

/// One `REPL …` reply: the header line, plus the raw binary bytes (a
/// record batch or snapshot chunks) that follow it on the wire.  `raw`
/// is empty for `HELLO` and every error.
pub struct ReplReply {
    /// The reply lines, in order.
    pub lines: Vec<String>,
    /// Raw bytes streamed after the last line (`FETCH` and `SNAPSHOT`).
    pub raw: Vec<u8>,
}

impl ReplReply {
    /// A lines-only reply (`HELLO` and every error).
    pub fn text(lines: Vec<String>) -> ReplReply {
        ReplReply {
            lines,
            raw: Vec::new(),
        }
    }
}

/// Renders a feed defect exactly as the follower reports it:
/// one `ERR REPL FRAME <reason>` per rejected batch, zero records
/// applied — the strict all-or-nothing contract the `BULK` frame set.
pub fn feed_frame_error(reason: &str) -> String {
    format!("ERR REPL FRAME {reason}")
}

/// The `REPL FETCH` request line.
fn fetch_request(from: u64, max: u64) -> String {
    format!("REPL FETCH {from} {max}")
}

/// What one tailer iteration achieved.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum TailOutcome {
    /// Records were applied (or the snapshot was re-bootstrapped): fetch
    /// again immediately.
    Progress,
    /// Caught up (or frozen on divergence): sleep a poll tick before
    /// retrying.
    Idle,
    /// The upstream is unreachable or misbehaving: back off with capped
    /// exponential delay (plus seeded jitter) before retrying, and count
    /// the retry in the `repl retries=` gauge.
    Failed,
    /// This node is now a primary: the tailer is done for good.
    Promoted,
}

/// The tailer's warm upstream connection, carried between iterations.
struct TailConn {
    client: Client,
    /// The cursor of a `FETCH` already sent whose reply has not been
    /// read yet — the double-buffering half of the catch-up fast path.
    pending: Option<u64>,
    /// The [`ReplState::tail_gen`] this connection was dialled under.  A
    /// `RETARGET` bumps the generation, so an iteration
    /// that raced it can neither reuse nor re-store the stale socket.
    gen: u64,
}

/// The replication sidecar state, guarded by one mutex.  Lock order is
/// engine write guard *then* this — never the reverse.
struct ReplState {
    role: Role,
    epoch: u64,
    /// The encoded snapshot served to bootstrapping followers.
    snapshot_bytes: Vec<u8>,
    /// The log offset the snapshot captures.
    snapshot_offset: u64,
    /// The offset of `records[0]`: offsets below this are only reachable
    /// through the snapshot.
    mem_base: u64,
    /// Encoded record payloads from `mem_base` to the end of the log.
    records: Vec<Vec<u8>>,
    /// The on-disk log (primaries started with `--log-dir`).
    log: Option<cdr_core::LogWriter>,
    /// The `--log-dir`, for snapshot rewrites.
    dir: Option<PathBuf>,
    /// The primary this follower tails.
    upstream: Option<String>,
    /// Records replayed from disk at boot — the recovery gauge proving a
    /// cold restart replayed only the post-snapshot suffix.
    replayed: u64,
    /// The tailer's warm upstream connection between iterations, with
    /// any in-flight prefetch.
    tail: Option<TailConn>,
    /// Bumped whenever the upstream changes: a
    /// [`TailConn`] from an older generation is dead on arrival, even if
    /// a tail iteration holding it raced the change.
    tail_gen: u64,
    /// The epoch of the newest primary announced over `REPL HELLO`, when
    /// it is strictly newer than ours: this node was deposed, and every
    /// mutating verb answers `ERR FENCED epoch=<e>` until it is rebuilt.
    fenced: Option<u64>,
    /// Upstream fetch/connect failures the tailer has retried — the
    /// `repl retries=` gauge backing the backoff tests.
    retries: u64,
    /// The upstream's log end as last observed (bootstrap HELLO, then
    /// every FETCH header): `PROMOTE` refuses while `end()` lags this,
    /// closing the promote-while-behind race.
    upstream_end: u64,
    /// This node's auto-compaction threshold, announced (and checked)
    /// in the HELLO handshake: mismatched thresholds diverge replicas
    /// after promotion, so they are refused at connect time.
    auto_compact: Option<u64>,
    /// Cumulative payload bytes received over the replication feed
    /// (snapshot bootstraps plus record fetches) — the `repl bytes=`
    /// gauge the wire-savings acceptance check reads.
    feed_bytes: u64,
    /// Records the tailer requests per fetch (`--fetch-batch`).
    fetch_batch: u64,
}

impl ReplState {
    /// One past the last record offset.
    fn end(&self) -> u64 {
        self.mem_base + self.records.len() as u64
    }

    /// Appends one operation at the current end: encode, write to the
    /// disk log (if any), retain in memory.  Disk errors are reported but
    /// not fatal — the in-memory stream (and therefore every follower)
    /// stays exact; only cold-restart durability degrades.
    fn append(&mut self, op: LogOp) {
        let record = LogRecord {
            epoch: self.epoch,
            offset: self.end(),
            op,
        };
        let payload = record.encode();
        if let Some(log) = &mut self.log {
            if let Err(e) = log.append(&payload) {
                eprintln!("cdr-server: command log append failed: {e}");
            }
        }
        self.records.push(payload);
    }

    /// The bookkeeping after the engine compacted (policy, explicit verb,
    /// or batch path): log the compaction record, then snapshot the dense
    /// post-compaction state and truncate the disk log behind it.
    fn record_compaction(&mut self, engine: &RepairEngine, outcome: &CompactionOutcome) {
        self.append(LogOp::Compact {
            fact_ids_before: outcome.report.fact_ids_before,
            survivors: survivors_of(&outcome.report),
        });
        let snapshot = Snapshot {
            epoch: self.epoch,
            offset: self.end(),
            generation: engine.generation(),
            rel_generations: engine.rel_generations().to_vec(),
            db: engine.database().clone(),
            keys: engine.keys().clone(),
        };
        match snapshot.encode() {
            Ok(bytes) => {
                self.snapshot_bytes = bytes;
                self.snapshot_offset = snapshot.offset;
                if let Some(dir) = &self.dir {
                    if let Err(e) = write_snapshot_file(dir, &snapshot) {
                        eprintln!("cdr-server: snapshot write failed: {e}");
                    } else if let Some(log) = &mut self.log {
                        if let Err(e) = log.truncate() {
                            eprintln!("cdr-server: log truncation failed: {e}");
                        }
                    }
                }
            }
            // Unreachable post-compaction (the database is dense); keep
            // serving the previous snapshot rather than dying.
            Err(e) => eprintln!("cdr-server: snapshot encode failed: {e}"),
        }
    }
}

/// A replicated single-engine backend: the engine behind its usual
/// read/write lock, plus the replication sidecar.
pub struct ReplicatedBackend {
    engine: RwLock<RepairEngine>,
    repl: Mutex<ReplState>,
    /// Re-applies the serving tuning (budget, parallelism, cache
    /// capacity) to an engine rebuilt from a snapshot.
    tune: Box<dyn Fn(RepairEngine) -> RepairEngine + Send + Sync>,
}

impl ReplicatedBackend {
    /// Boots a primary over `dir`.
    ///
    /// With a snapshot present, recovery ignores `seed`'s data and
    /// rebuilds the engine from the snapshot plus the valid suffix of the
    /// on-disk log (the torn tail a `SIGKILL` leaves is trimmed, never
    /// replayed); `seed` still donates its tuning.  On first boot the
    /// seed *is* the state: its snapshot is written at offset 0 — which
    /// requires the seed database to be compacted (freshly built data
    /// always is).
    pub fn primary(seed: RepairEngine, dir: &Path) -> Result<ReplicatedBackend, ReplogError> {
        std::fs::create_dir_all(dir)?;
        let budget = seed.default_budget();
        let parallelism = seed.parallelism();
        let cache_capacity = seed.cache_stats().capacity as usize;
        let tune = move |engine: RepairEngine| {
            engine
                .with_default_budget(budget)
                .with_parallelism(parallelism)
                .with_plan_cache_capacity(cache_capacity)
        };
        let log_path = dir.join(LOG_FILE);
        let (engine, state) = match read_snapshot_file(dir)? {
            Some(snapshot) => {
                let snapshot_bytes = snapshot.encode()?;
                let Snapshot {
                    epoch,
                    offset,
                    generation,
                    rel_generations,
                    db,
                    keys,
                } = snapshot;
                let mut engine = tune(RepairEngine::restore(db, keys, generation, rel_generations));
                let (log, payloads) = open_log(&log_path)?;
                let schema = engine.database().schema().clone();
                let mut epoch = epoch;
                for (expected, payload) in (offset..).zip(payloads.iter()) {
                    let record = LogRecord::decode(payload, &schema)?;
                    if record.offset != expected {
                        return Err(ReplogError::Diverged(format!(
                            "log record at offset {} where {} was expected",
                            record.offset, expected
                        )));
                    }
                    apply_record(&mut engine, &record)?;
                    epoch = epoch.max(record.epoch);
                }
                let replayed = payloads.len() as u64;
                let state = ReplState {
                    role: Role::Primary,
                    epoch,
                    snapshot_bytes,
                    snapshot_offset: offset,
                    mem_base: offset,
                    records: payloads,
                    log: Some(log),
                    dir: Some(dir.to_path_buf()),
                    upstream: None,
                    replayed,
                    tail: None,
                    tail_gen: 0,
                    fenced: None,
                    retries: 0,
                    upstream_end: 0,
                    auto_compact: None,
                    feed_bytes: 0,
                    fetch_batch: DEFAULT_FETCH_RECORDS,
                };
                (engine, state)
            }
            None => {
                let engine = seed;
                let snapshot = Snapshot {
                    epoch: 0,
                    offset: 0,
                    generation: engine.generation(),
                    rel_generations: engine.rel_generations().to_vec(),
                    db: engine.database().clone(),
                    keys: engine.keys().clone(),
                };
                write_snapshot_file(dir, &snapshot)?;
                let snapshot_bytes = snapshot.encode()?;
                let (mut log, stale) = open_log(&log_path)?;
                if !stale.is_empty() {
                    // A log with no snapshot beside it describes nothing
                    // recoverable; start clean.
                    log.truncate()?;
                }
                let state = ReplState {
                    role: Role::Primary,
                    epoch: 0,
                    snapshot_bytes,
                    snapshot_offset: 0,
                    mem_base: 0,
                    records: Vec::new(),
                    log: Some(log),
                    dir: Some(dir.to_path_buf()),
                    upstream: None,
                    replayed: 0,
                    tail: None,
                    tail_gen: 0,
                    fenced: None,
                    retries: 0,
                    upstream_end: 0,
                    auto_compact: None,
                    feed_bytes: 0,
                    fetch_batch: DEFAULT_FETCH_RECORDS,
                };
                (engine, state)
            }
        };
        Ok(ReplicatedBackend {
            engine: RwLock::new(engine),
            repl: Mutex::new(state),
            tune: Box::new(tune),
        })
    }

    /// Bootstraps a follower: exchanges the `REPL HELLO` handshake
    /// (announcing this node's auto-compaction threshold, so a
    /// divergence-inducing mismatch is refused right here instead of
    /// surfacing after a promotion), fetches the primary's snapshot over
    /// the line protocol, restores the engine from it (re-applying the
    /// serving tuning via `tune`), and leaves the connection warm for the
    /// tailer.
    ///
    /// `auto_compact` must be the threshold this node will serve with —
    /// the same value handed to
    /// [`ServerConfig::auto_compact`](crate::ServerConfig::auto_compact).
    pub fn follower(
        upstream: &str,
        auto_compact: Option<u64>,
        tune: impl Fn(RepairEngine) -> RepairEngine + Send + Sync + 'static,
    ) -> Result<ReplicatedBackend, ReplogError> {
        ReplicatedBackend::follower_with(upstream, auto_compact, DEFAULT_FETCH_RECORDS, tune)
    }

    /// [`follower`](ReplicatedBackend::follower) with the records
    /// requested per tail fetch set to `fetch_batch`.
    pub fn follower_with(
        upstream: &str,
        auto_compact: Option<u64>,
        fetch_batch: u64,
        tune: impl Fn(RepairEngine) -> RepairEngine + Send + Sync + 'static,
    ) -> Result<ReplicatedBackend, ReplogError> {
        let mut client = Client::connect(upstream)?;
        let hello = client.send(&hello_request(0, Some(auto_compact)))?;
        if !hello.starts_with("OK REPL HELLO") {
            return Err(ReplogError::Diverged(format!(
                "upstream {upstream} refused the handshake: {hello}"
            )));
        }
        let upstream_end = field_u64(&hello, "end=").unwrap_or(0);
        let (snapshot_bytes, snapshot, wire) = fetch_snapshot(&mut client)?;
        let Snapshot {
            epoch,
            offset,
            generation,
            rel_generations,
            db,
            keys,
        } = snapshot;
        let engine = tune(RepairEngine::restore(db, keys, generation, rel_generations));
        let state = ReplState {
            role: Role::Follower,
            epoch,
            snapshot_bytes,
            snapshot_offset: offset,
            mem_base: offset,
            records: Vec::new(),
            log: None,
            dir: None,
            upstream: Some(upstream.to_string()),
            replayed: 0,
            tail: Some(TailConn {
                client,
                pending: None,
                gen: 0,
            }),
            tail_gen: 0,
            fenced: None,
            retries: 0,
            upstream_end,
            auto_compact,
            feed_bytes: wire,
            fetch_batch: fetch_batch.clamp(1, MAX_FETCH_RECORDS),
        };
        Ok(ReplicatedBackend {
            engine: RwLock::new(engine),
            repl: Mutex::new(state),
            tune: Box::new(tune),
        })
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        lock(&self.repl).role
    }

    /// Installs the auto-compaction threshold this node serves with —
    /// the value the HELLO handshake announces and checks.  The server
    /// sets this from its config at start-up.
    pub fn set_auto_compact(&self, threshold: Option<u64>) {
        lock(&self.repl).auto_compact = threshold;
    }

    /// Shared query access to the engine.
    pub fn read<R>(&self, f: impl FnOnce(&RepairEngine) -> R) -> R {
        f(&rlock(&self.engine))
    }

    /// A schema snapshot for lock-free command parsing.
    pub fn parse_database(&self) -> std::sync::Arc<cdr_repairdb::Database> {
        rlock(&self.engine).database_arc()
    }

    /// Applies one mutation on a primary (append-then-apply); answers
    /// `ERR READONLY` on a follower.
    pub fn mutate(&self, mutation: Mutation, auto_compact: Option<u64>) -> String {
        let mut engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        let verb = match mutation {
            Mutation::Insert(_) => "INSERT",
            Mutation::Delete(_) => "DELETE",
        };
        if repl.role == Role::Follower {
            return reply::readonly(verb);
        }
        if let Some(epoch) = repl.fenced {
            return reply::fenced(verb, epoch);
        }
        if let Some(threshold) = auto_compact {
            if let Some(outcome) = engine.maybe_compact(threshold) {
                repl.record_compaction(&engine, &outcome);
            }
        }
        repl.append(LogOp::Mutation(mutation.clone()));
        apply_single(&mut engine, mutation)
    }

    /// Applies a mutation batch atomically on a primary; `ERR READONLY`
    /// on a follower.  The batch is logged before it is applied — replay
    /// re-runs it through the same atomic path, so a rejected batch
    /// reproduces its rejection (and its untouched engine) exactly.
    pub fn mutate_batch(&self, mutations: Vec<Mutation>, auto_compact: Option<u64>) -> String {
        let mut engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        if repl.role == Role::Follower {
            return reply::readonly("BATCH");
        }
        if let Some(epoch) = repl.fenced {
            return reply::fenced("BATCH", epoch);
        }
        if let Some(threshold) = auto_compact {
            if let Some(outcome) = engine.maybe_compact(threshold) {
                repl.record_compaction(&engine, &outcome);
            }
        }
        repl.append(LogOp::Batch(mutations.clone()));
        match engine.apply_batch(mutations) {
            Ok(report) => reply::render_batch_mutation(&report, engine.total_repairs()),
            Err(e) => reply::render_count_error(&e),
        }
    }

    /// Compacts a primary (logging the translation table, snapshotting,
    /// truncating the disk log); `ERR READONLY` on a follower.
    pub fn compact(&self) -> Result<(CompactionOutcome, BigNat), String> {
        let mut engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        if repl.role == Role::Follower {
            return Err(reply::readonly("COMPACT"));
        }
        if let Some(epoch) = repl.fenced {
            return Err(reply::fenced("COMPACT", epoch));
        }
        let outcome = engine.compact();
        repl.record_compaction(&engine, &outcome);
        let total = engine.total_repairs().clone();
        Ok((outcome, total))
    }

    /// The `STATS` reply with the replication gauge tail.  Followers add
    /// the feed gauge `bytes=<n>`: the cumulative payload bytes the feed
    /// has cost.
    pub fn stats(&self) -> String {
        let head = self.read(reply::render_stats);
        let repl = lock(&self.repl);
        let feed = match repl.role {
            Role::Follower => format!(" bytes={}", repl.feed_bytes),
            Role::Primary => String::new(),
        };
        let fenced = match repl.fenced {
            Some(epoch) => format!(" fenced={epoch}"),
            None => String::new(),
        };
        format!(
            "{head} | repl role={} epoch={} base={} end={} replayed={} retries={}{feed}{fenced}",
            repl.role.as_str(),
            repl.epoch,
            repl.mem_base,
            repl.end(),
            repl.replayed,
            repl.retries
        )
    }

    /// Serves one `REPL …` line.  `admin_ok` says whether this session
    /// may exercise admin-grade side effects: the fencing bite of an
    /// epoch-announcing `HELLO` is as destructive as `PROMOTE` (it stops
    /// all writes on a primary, monotonically), so on a server that
    /// gates admin verbs it requires `AUTH` too.  The bare probe form
    /// and non-fencing announcements stay open.
    pub fn repl(&self, line: &str, admin_ok: bool) -> ReplReply {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let sub = tokens.get(1).copied().unwrap_or("").to_ascii_uppercase();
        let mut repl = lock(&self.repl);
        match sub.as_str() {
            "HELLO" => ReplReply::text({
                // `REPL HELLO [epoch=<e>] [compact=<t>|compact=off]` —
                // the bare form is the legacy probe; the announcements
                // drive the fencing and threshold-mismatch handshakes.
                let mut announced_epoch: Option<u64> = None;
                let mut announced_compact: Option<Option<u64>> = None;
                for token in &tokens[2..] {
                    if let Some(value) = token.strip_prefix("epoch=") {
                        match value.parse::<u64>() {
                            Ok(epoch) => announced_epoch = Some(epoch),
                            Err(_) => return ReplReply::text(vec![hello_usage()]),
                        }
                    } else if let Some(value) = token.strip_prefix("compact=") {
                        match parse_compact_token(value) {
                            Some(threshold) => announced_compact = Some(threshold),
                            None => return ReplReply::text(vec![hello_usage()]),
                        }
                    } else {
                        return ReplReply::text(vec![hello_usage()]);
                    }
                }
                // A mismatched auto-compaction threshold diverges the
                // replicas after a promotion (DELETE ids depend on the
                // compaction points); refuse it before any state changes.
                if let Some(theirs) = announced_compact {
                    if theirs != repl.auto_compact {
                        return ReplReply::text(vec![format!(
                            "ERR REPL COMPACT MISMATCH ours={} yours={}",
                            threshold_value(repl.auto_compact),
                            threshold_value(theirs)
                        )]);
                    }
                }
                // Epoch fencing: a strictly newer epoch announced to a
                // primary means a successor was promoted elsewhere — this
                // node is deposed and must refuse writes from now on.
                // The fence is monotone with no unfence path, so an
                // unauthenticated session must not be able to plant it.
                if let (Some(theirs), Role::Primary) = (announced_epoch, repl.role) {
                    if theirs > repl.epoch {
                        if !admin_ok {
                            return ReplReply::text(vec![format!(
                                "ERR DENIED REPL HELLO epoch={theirs} would fence this \
                                 primary and requires AUTH on this server"
                            )]);
                        }
                        let already = repl.fenced.map_or(0, |epoch| epoch);
                        if theirs > already {
                            eprintln!(
                                "cdr-server: fenced at epoch {theirs} (ours {}); \
                                 refusing writes",
                                repl.epoch
                            );
                            repl.fenced = Some(theirs);
                        }
                    }
                }
                let fenced = match repl.fenced {
                    Some(epoch) => format!(" fenced={epoch}"),
                    None => String::new(),
                };
                vec![format!(
                    "OK REPL HELLO epoch={} base={} end={} snap={} role={} {}{fenced}",
                    repl.epoch,
                    repl.mem_base,
                    repl.end(),
                    repl.snapshot_offset,
                    repl.role.as_str(),
                    cdr_core::replog::compact_token(repl.auto_compact)
                )]
            }),
            "SNAPSHOT" => {
                if tokens.len() > 2 {
                    return ReplReply::text(vec!["ERR REPL usage: REPL SNAPSHOT".to_string()]);
                }
                let chunks: Vec<&[u8]> = repl.snapshot_bytes.chunks(SNAPSHOT_CHUNK_BYTES).collect();
                let mut raw = Vec::with_capacity(repl.snapshot_bytes.len() + chunks.len() * 8);
                for chunk in &chunks {
                    raw.extend_from_slice(&frame(chunk));
                }
                ReplReply {
                    lines: vec![format!(
                        "OK REPL SNAPSHOT epoch={} offset={} bytes={} chunks={}",
                        repl.epoch,
                        repl.snapshot_offset,
                        repl.snapshot_bytes.len(),
                        chunks.len()
                    )],
                    raw,
                }
            }
            "FETCH" => {
                let (Some(Ok(from)), Some(Ok(max)), None) = (
                    tokens.get(2).map(|t| t.parse::<u64>()),
                    tokens.get(3).map(|t| t.parse::<u64>()),
                    tokens.get(4),
                ) else {
                    return ReplReply::text(vec![
                        "ERR REPL usage: REPL FETCH <from> <max>".to_string()
                    ]);
                };
                if from < repl.mem_base {
                    return ReplReply::text(vec![format!(
                        "ERR REPL COMPACTED offset {from} predates base={}; re-bootstrap from REPL SNAPSHOT",
                        repl.mem_base
                    )]);
                }
                if from > repl.end() {
                    return ReplReply::text(vec![format!(
                        "ERR REPL RANGE offset {from} is past end={}",
                        repl.end()
                    )]);
                }
                let start = (from - repl.mem_base) as usize;
                let n = (repl.records.len() - start).min(max.min(MAX_FETCH_RECORDS) as usize);
                let raw = encode_record_batch(&repl.records[start..start + n]);
                ReplReply {
                    lines: vec![format!(
                        "OK REPL BATCH {} n={} next={} end={}",
                        raw.len(),
                        n,
                        from + n as u64,
                        repl.end()
                    )],
                    raw,
                }
            }
            _ => ReplReply::text(vec![
                "ERR REPL usage: REPL HELLO | REPL SNAPSHOT | REPL FETCH <from> <max>".to_string(),
            ]),
        }
    }

    /// `PROMOTE`: flips a follower into a primary at a new epoch.  The
    /// engine is not touched — no compaction, no generation bump — so the
    /// promoted node keeps serving exactly the state it replicated.
    ///
    /// A follower that is still behind the upstream's last observed log
    /// end refuses with a deterministic `ERR REPL BEHIND end=<e>
    /// upstream=<u>`: promoting it would silently drop the acknowledged
    /// suffix it had not yet fetched.  `force` overrides that refusal —
    /// the catch-up escape hatch for records the dead primary
    /// acknowledged but no follower ever fetched — and the reply then
    /// carries the accepted loss as `dropped=<n>`.
    pub fn promote(&self, force: bool) -> String {
        let _engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        match repl.role {
            Role::Primary => format!("ERR REPL already primary at epoch={}", repl.epoch),
            Role::Follower => {
                let dropped = repl.upstream_end.saturating_sub(repl.end());
                if dropped > 0 && !force {
                    return format!(
                        "ERR REPL BEHIND end={} upstream={}",
                        repl.end(),
                        repl.upstream_end
                    );
                }
                repl.role = Role::Primary;
                repl.epoch += 1;
                repl.tail = None;
                repl.upstream = None;
                if dropped > 0 {
                    format!(
                        "OK PROMOTED epoch={} end={} dropped={dropped}",
                        repl.epoch,
                        repl.end()
                    )
                } else {
                    format!("OK PROMOTED epoch={} end={}", repl.epoch, repl.end())
                }
            }
        }
    }

    /// `RETARGET <host:port>`: points a surviving follower at the newly
    /// promoted primary.  The warm tailer connection is dropped, so the
    /// next tail iteration reconnects (and re-runs the HELLO handshake)
    /// against the new upstream; the record stream continues at the same
    /// logical offsets, because a promoted follower keeps the log it
    /// replicated.
    pub fn retarget(&self, upstream: &str) -> String {
        let mut repl = lock(&self.repl);
        match repl.role {
            Role::Primary => {
                "ERR REPL RETARGET on a primary; only a follower can change upstream".to_string()
            }
            Role::Follower => {
                repl.upstream = Some(upstream.to_string());
                repl.tail = None;
                repl.tail_gen += 1;
                format!("OK RETARGET {upstream}")
            }
        }
    }

    /// Panics while holding the engine write lock (the chaos hook).
    pub fn chaos_panic(&self) -> ! {
        let _guard = wlock(&self.engine);
        panic!("chaos: PANIC verb")
    }

    /// Counts one upstream failure and tells the pump to back off.
    fn tail_failed(&self) -> TailOutcome {
        lock(&self.repl).retries += 1;
        TailOutcome::Failed
    }

    /// One tailer iteration: make sure a `FETCH` for our cursor is in
    /// flight, read its reply, prefetch the next batch, then apply the
    /// whole fetched batch under one engine write acquisition.  All
    /// network and decode failures degrade to [`TailOutcome::Failed`]
    /// (drop the connection, count the retry, back off) — a dead or
    /// hostile upstream must never panic the tailer.
    pub(crate) fn tail_once(&self) -> TailOutcome {
        let (conn, from, upstream, epoch, auto_compact, fetch_batch, gen) = {
            let mut repl = lock(&self.repl);
            if repl.role == Role::Primary {
                return TailOutcome::Promoted;
            }
            let Some(upstream) = repl.upstream.clone() else {
                return TailOutcome::Promoted;
            };
            (
                repl.tail.take(),
                repl.end(),
                upstream,
                repl.epoch,
                repl.auto_compact,
                repl.fetch_batch,
                repl.tail_gen,
            )
        };
        let mut conn = match conn.filter(|conn| conn.gen == gen) {
            Some(conn) => conn,
            None => {
                // A fresh connection re-runs the HELLO handshake:
                // announce our epoch (fencing a stale revived primary on
                // the spot when it does not gate admin verbs; a gated one
                // answers `ERR DENIED`, which equally stops us tailing
                // it) and our compact threshold (so a mismatch is refused
                // here, not discovered as replay divergence), and refuse
                // to tail an upstream behind our own epoch.
                let Ok(mut client) = Client::connect(&upstream) else {
                    return self.tail_failed();
                };
                let Ok(hello) = client.send(&hello_request(epoch, Some(auto_compact))) else {
                    return self.tail_failed();
                };
                if !hello.starts_with("OK REPL HELLO") {
                    eprintln!("cdr-server: upstream {upstream} refused the handshake: {hello}");
                    return self.tail_failed();
                }
                if field_u64(&hello, "epoch=").is_some_and(|theirs| theirs < epoch) {
                    eprintln!("cdr-server: upstream {upstream} is stale ({hello}); not tailing it");
                    return self.tail_failed();
                }
                if let Some(end) = field_u64(&hello, "end=") {
                    let mut repl = lock(&self.repl);
                    repl.upstream_end = repl.upstream_end.max(end);
                }
                TailConn {
                    client,
                    pending: None,
                    gen,
                }
            }
        };
        // Make sure a FETCH for our cursor is in flight.  A prefetch
        // left by the previous iteration must match it; if the cursor
        // moved underneath (a re-bootstrap raced), the pending reply is
        // stale — drop the connection rather than mis-read it.
        // Network I/O happens with no lock held: reads keep flowing on
        // both nodes while records travel.
        match conn.pending.take() {
            Some(pending) if pending == from => {}
            Some(_) => return TailOutcome::Idle,
            None => {
                if conn
                    .client
                    .send_line(&fetch_request(from, fetch_batch))
                    .is_err()
                {
                    return self.tail_failed();
                }
            }
        }
        let fetched = match read_batch_reply(&mut conn.client) {
            Ok(FetchReply::Compacted) => return self.rebootstrap(conn),
            Ok(FetchReply::Records(fetched)) => fetched,
            Err(Some(reason)) => {
                eprintln!("cdr-server: dropping the replication feed: {reason}");
                return self.tail_failed();
            }
            Err(None) => return self.tail_failed(),
        };
        if fetched.payloads.is_empty() {
            // Caught up; keep the connection warm for the next poll.
            let mut repl = lock(&self.repl);
            if let Some(end) = fetched.upstream_end {
                repl.upstream_end = repl.upstream_end.max(end);
            }
            repl.feed_bytes += fetched.wire;
            if repl.tail_gen == conn.gen {
                repl.tail = Some(conn);
            }
            return TailOutcome::Idle;
        }
        // Strict all-or-nothing, mirroring BULK: decode every record
        // (and check its offset) before any is applied — and do it
        // outside the engine write guard.
        let schema = self.read(|engine| engine.database().schema().clone());
        let mut records = Vec::with_capacity(fetched.payloads.len());
        for (i, payload) in fetched.payloads.iter().enumerate() {
            let expected = from + i as u64;
            match LogRecord::decode(payload, &schema) {
                Ok(record) if record.offset == expected => records.push(record),
                Ok(record) => {
                    eprintln!(
                        "cdr-server: {}",
                        feed_frame_error(&format!(
                            "record at offset {} where {expected} was expected",
                            record.offset
                        ))
                    );
                    return self.tail_failed();
                }
                Err(e) => {
                    eprintln!("cdr-server: {}", feed_frame_error(&e.to_string()));
                    return self.tail_failed();
                }
            }
        }
        // Double-buffer the feed: the next FETCH goes out before this
        // batch applies, so the upstream renders it while we hold the
        // write guard — catch-up pays apply cost, not RTT × batches.  A
        // failed send only costs the warm connection.
        let more = fetched.upstream_end.is_some_and(|end| fetched.next < end);
        let mut keep_conn = true;
        if more {
            if conn
                .client
                .send_line(&fetch_request(fetched.next, fetch_batch))
                .is_ok()
            {
                conn.pending = Some(fetched.next);
            } else {
                keep_conn = false;
            }
        }
        let mut engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        if repl.role == Role::Primary {
            return TailOutcome::Promoted;
        }
        if let Some(end) = fetched.upstream_end {
            repl.upstream_end = repl.upstream_end.max(end);
        }
        repl.feed_bytes += fetched.wire;
        if repl.end() != from {
            // The cursor moved under us (a re-bootstrap raced this
            // fetch): the batch — and any prefetch — is stale; drop both.
            return TailOutcome::Idle;
        }
        for (record, payload) in records.into_iter().zip(fetched.payloads) {
            if let Err(e) = apply_record(&mut engine, &record) {
                // Divergence is an invariant violation the tests assert
                // never happens; freeze rather than serve wrong answers.
                eprintln!("cdr-server: follower stopped tailing: {e}");
                return TailOutcome::Idle;
            }
            repl.epoch = record.epoch;
            repl.records.push(payload);
        }
        if keep_conn && repl.tail_gen == conn.gen {
            repl.tail = Some(conn);
        }
        TailOutcome::Progress
    }

    /// The tailer fell behind the upstream's snapshot horizon: fetch the
    /// current snapshot over the same connection and restart the engine
    /// from it.
    fn rebootstrap(&self, mut conn: TailConn) -> TailOutcome {
        let Ok((snapshot_bytes, snapshot, wire)) = fetch_snapshot(&mut conn.client) else {
            return self.tail_failed();
        };
        let Snapshot {
            epoch,
            offset,
            generation,
            rel_generations,
            db,
            keys,
        } = snapshot;
        let rebuilt = (self.tune)(RepairEngine::restore(db, keys, generation, rel_generations));
        let mut engine = wlock(&self.engine);
        let mut repl = lock(&self.repl);
        if repl.role == Role::Primary {
            return TailOutcome::Promoted;
        }
        *engine = rebuilt;
        repl.epoch = epoch;
        repl.snapshot_bytes = snapshot_bytes;
        repl.snapshot_offset = offset;
        repl.mem_base = offset;
        repl.records.clear();
        repl.feed_bytes += wire;
        if repl.tail_gen == conn.gen {
            repl.tail = Some(conn);
        }
        TailOutcome::Progress
    }
}

/// A fetched record batch.
struct Fetched {
    /// The record payloads, in offset order.
    payloads: Vec<Vec<u8>>,
    /// The cursor after this batch (the header's `next=`).
    next: u64,
    /// The upstream's log end as the header reported it.
    upstream_end: Option<u64>,
    /// Wire bytes this fetch cost (the `repl bytes=` gauge).
    wire: u64,
}

/// One `REPL FETCH` reply, already integrity-checked.
enum FetchReply {
    /// Records (possibly none — caught up).
    Records(Fetched),
    /// The cursor predates the upstream's snapshot horizon.
    Compacted,
}

/// Reads an `OK REPL BATCH <len> …` reply: the header line, then
/// `len` raw bytes decoded through the strict all-or-nothing batch
/// codec.  An oversize header is refused before any allocation.
fn read_batch_reply(client: &mut Client) -> Result<FetchReply, Option<String>> {
    let header = client.read_line().map_err(|_| None)?;
    if header.starts_with("ERR REPL COMPACTED") {
        return Ok(FetchReply::Compacted);
    }
    let len = header
        .strip_prefix("OK REPL BATCH ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|t| t.parse::<u64>().ok());
    let (Some(len), Some(n), Some(next)) =
        (len, field_u64(&header, "n="), field_u64(&header, "next="))
    else {
        return Err(Some(format!("unexpected batch reply: {header}")));
    };
    if len > MAX_BATCH_FRAME_BYTES {
        return Err(Some(feed_frame_error(&format!(
            "batch of {len} bytes exceeds the {MAX_BATCH_FRAME_BYTES}-byte cap"
        ))));
    }
    let frame = client
        .read_exact(len as usize)
        .map_err(|e| Some(feed_frame_error(&format!("batch truncated: {e}"))))?;
    let payloads =
        decode_record_batch(&frame).map_err(|e| Some(feed_frame_error(&e.to_string())))?;
    if payloads.len() as u64 != n {
        return Err(Some(feed_frame_error(&format!(
            "batch carries {} records, header promised {n}",
            payloads.len()
        ))));
    }
    Ok(FetchReply::Records(Fetched {
        payloads,
        next,
        upstream_end: field_u64(&header, "end="),
        wire: header.len() as u64 + 1 + len,
    }))
}

/// Pulls and reassembles the upstream's snapshot (`REPL SNAPSHOT`):
/// the raw bytes (served verbatim to any downstream follower), the
/// decoded image, and the wire bytes it cost.  Each chunk is one
/// `[len ‖ crc32 ‖ payload]` frame of raw bytes, CRC-checked as it
/// lands.  A chunk header promising more than the frame cap, or more
/// than the header's `bytes=` still allows, is refused before its body
/// is read.
fn fetch_snapshot(client: &mut Client) -> Result<(Vec<u8>, Snapshot, u64), ReplogError> {
    let header = client.send("REPL SNAPSHOT")?;
    let (Some(bytes), Some(chunks)) = (field_u64(&header, "bytes="), field_u64(&header, "chunks="))
    else {
        return Err(ReplogError::Diverged(format!(
            "upstream refused the snapshot: {header}"
        )));
    };
    let mut assembled = Vec::with_capacity((bytes as usize).min(MAX_CHUNK_FRAME_BYTES));
    let mut wire = header.len() as u64 + 1;
    for _ in 0..chunks {
        let head = client.read_exact(8)?;
        let (len, crc) = chunk_header(&head)
            .map_err(|e| ReplogError::Diverged(format!("bad snapshot chunk header: {e}")))?;
        if len > MAX_CHUNK_FRAME_BYTES {
            return Err(ReplogError::Diverged(format!(
                "snapshot chunk of {len} bytes exceeds the {MAX_CHUNK_FRAME_BYTES}-byte cap"
            )));
        }
        if assembled.len() as u64 + len as u64 > bytes {
            return Err(ReplogError::Diverged(format!(
                "snapshot chunk of {len} bytes overruns the {bytes} bytes the header promised"
            )));
        }
        let payload = client.read_exact(len)?;
        verify_chunk(crc, &payload)
            .map_err(|e| ReplogError::Diverged(format!("snapshot chunk rejected: {e}")))?;
        wire += 8 + len as u64;
        assembled.extend_from_slice(&payload);
    }
    if assembled.len() as u64 != bytes {
        return Err(ReplogError::Diverged(format!(
            "snapshot reassembled to {} bytes, header promised {bytes}",
            assembled.len()
        )));
    }
    let snapshot = Snapshot::decode(&assembled)?;
    Ok((assembled, snapshot, wire))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_core::replog::read_log_payloads;
    use cdr_workloads::employee_example;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cdr-replication-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seed() -> RepairEngine {
        let (db, keys) = employee_example();
        RepairEngine::new(db, keys)
    }

    #[test]
    fn a_fresh_primary_logs_then_applies_and_snapshots_at_compaction() {
        let dir = temp_dir("fresh");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        assert_eq!(backend.role(), Role::Primary);
        let db = backend.parse_database();
        let insert = |text: &str| Mutation::Insert(db.parse_fact(text).unwrap());
        let reply = backend.mutate(insert("Employee(9, 'Flux', 'Ops')"), None);
        assert!(reply.starts_with("OK INSERT id=4 "), "{reply}");
        let reply = backend.mutate(Mutation::Delete(cdr_repairdb::FactId::new(4)), None);
        assert!(reply.starts_with("OK DELETE id=4 "), "{reply}");
        // Two records on disk, none compacted away yet.
        assert_eq!(read_log_payloads(&dir.join(LOG_FILE)).unwrap().len(), 2);
        let stats = backend.stats();
        assert!(
            stats.ends_with("| repl role=primary epoch=0 base=0 end=2 replayed=0 retries=0"),
            "{stats}"
        );
        // Compaction logs its record, snapshots, truncates the disk log.
        let (outcome, _) = backend.compact().unwrap();
        assert_eq!(outcome.report.live_facts, 4);
        assert_eq!(read_log_payloads(&dir.join(LOG_FILE)).unwrap().len(), 0);
        let hello = &backend.repl("REPL HELLO", true).lines[0];
        assert_eq!(
            hello,
            "OK REPL HELLO epoch=0 base=0 end=3 snap=3 role=primary compact=off"
        );
        // In-memory records are retained across the snapshot for tailers.
        let fetched = backend.repl("REPL FETCH 0 64", true);
        assert!(
            fetched.lines[0].starts_with("OK REPL BATCH "),
            "{}",
            fetched.lines[0]
        );
        assert_eq!(field_u64(&fetched.lines[0], "n="), Some(3));
        assert_eq!(decode_record_batch(&fetched.raw).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_only_the_post_snapshot_suffix() {
        let dir = temp_dir("recover");
        let db = {
            let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
            let db = backend.parse_database();
            let insert = |text: &str| Mutation::Insert(db.parse_fact(text).unwrap());
            backend.mutate(insert("Employee(7, 'Ada', 'IT')"), None);
            backend.compact().unwrap();
            backend.mutate(insert("Employee(8, 'Kim', 'HR')"), None);
            backend.mutate(insert("Employee(8, 'Kim, Jr.', 'HR')"), None);
            backend.read(|engine| (engine.database().clone(), engine.generation()))
        };
        // Cold restart over the same directory: the snapshot captured the
        // compaction point, so exactly the 2 post-snapshot inserts replay.
        let recovered = ReplicatedBackend::primary(seed(), &dir).unwrap();
        let stats = recovered.stats();
        assert!(
            stats.contains(" repl role=primary epoch=0 base=2 end=4 replayed=2"),
            "{stats}"
        );
        recovered.read(|engine| {
            assert_eq!(engine.database(), &db.0);
            assert_eq!(engine.generation(), db.1);
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repl_fetch_bounds_are_enforced() {
        let dir = temp_dir("bounds");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        assert!(backend.repl("REPL FETCH 5 4", true).lines[0].starts_with("ERR REPL RANGE "));
        assert!(backend.repl("REPL FETCH x 4", true).lines[0].starts_with("ERR REPL usage"));
        assert!(backend.repl("REPL NONSENSE", true).lines[0].starts_with("ERR REPL usage"));
        let empty = backend.repl("REPL FETCH 0 10", true);
        assert_eq!(
            empty.lines,
            vec![format!(
                "OK REPL BATCH {} n=0 next=0 end=0",
                empty.raw.len()
            )]
        );
        assert!(decode_record_batch(&empty.raw).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn promote_on_a_primary_is_refused() {
        let dir = temp_dir("promote");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        assert_eq!(
            backend.promote(false),
            "ERR REPL already primary at epoch=0"
        );
        assert_eq!(
            backend.promote(true),
            "ERR REPL already primary at epoch=0",
            "FORCE never applies to a primary"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_newer_epoch_announced_over_hello_fences_the_primary() {
        let dir = temp_dir("fence");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        let db = backend.parse_database();
        let insert = |text: &str| Mutation::Insert(db.parse_fact(text).unwrap());

        // An equal (or lower) epoch never fences.
        let hello = &backend.repl("REPL HELLO epoch=0", true).lines[0];
        assert_eq!(
            hello,
            "OK REPL HELLO epoch=0 base=0 end=0 snap=0 role=primary compact=off"
        );
        assert!(backend
            .mutate(insert("Employee(9, 'Flux', 'Ops')"), None)
            .starts_with("OK INSERT "));

        // A strictly newer epoch deposes this primary: the reply carries
        // the fence, and every mutating verb refuses deterministically.
        let hello = &backend.repl("REPL HELLO epoch=3", true).lines[0];
        assert_eq!(
            hello,
            "OK REPL HELLO epoch=0 base=0 end=1 snap=0 role=primary compact=off fenced=3"
        );
        assert_eq!(
            backend.mutate(insert("Employee(9, 'Nope', 'Ops')"), None),
            "ERR FENCED epoch=3 INSERT refused; a newer primary was promoted"
        );
        assert_eq!(
            backend.mutate_batch(vec![insert("Employee(9, 'Nope', 'Ops')")], None),
            "ERR FENCED epoch=3 BATCH refused; a newer primary was promoted"
        );
        assert_eq!(
            backend.compact().unwrap_err(),
            "ERR FENCED epoch=3 COMPACT refused; a newer primary was promoted"
        );
        // Reads keep flowing, and the gauge surfaces the fence.
        let stats = backend.stats();
        assert!(stats.starts_with("OK STATS "), "{stats}");
        assert!(stats.ends_with(" retries=0 fenced=3"), "{stats}");
        // The fence is monotone: an older announcement cannot unfence.
        backend.repl("REPL HELLO epoch=1", true);
        assert!(backend.stats().ends_with(" fenced=3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fencing side effect is admin-grade: an unauthenticated
    /// session (`admin_ok = false`) cannot depose a primary, while the
    /// harmless probe forms stay open to it.
    #[test]
    fn fencing_over_hello_requires_admin_rights() {
        let dir = temp_dir("fence-auth");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();

        // Probes and non-fencing announcements never need auth.
        assert!(backend.repl("REPL HELLO", false).lines[0].starts_with("OK REPL HELLO "));
        assert!(backend.repl("REPL HELLO epoch=0", false).lines[0].starts_with("OK REPL HELLO "));

        // A fencing announcement without admin rights is refused and
        // leaves the primary untouched.
        assert_eq!(
            backend.repl("REPL HELLO epoch=3", false).lines[0],
            "ERR DENIED REPL HELLO epoch=3 would fence this primary and requires AUTH \
             on this server"
        );
        assert!(!backend.stats().contains("fenced="));
        let db = backend.parse_database();
        let insert = Mutation::Insert(db.parse_fact("Employee(9, 'Flux', 'Ops')").unwrap());
        assert!(backend.mutate(insert, None).starts_with("OK INSERT "));

        // The same announcement with admin rights fences.
        assert!(backend.repl("REPL HELLO epoch=3", true).lines[0].ends_with("fenced=3"));
        assert!(backend.stats().ends_with(" fenced=3"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mismatched_compact_threshold_is_refused_at_hello() {
        let dir = temp_dir("mismatch");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        backend.set_auto_compact(Some(16));
        assert_eq!(
            backend.repl("REPL HELLO epoch=0 compact=off", true).lines[0],
            "ERR REPL COMPACT MISMATCH ours=16 yours=off"
        );
        assert_eq!(
            backend.repl("REPL HELLO epoch=0 compact=8", true).lines[0],
            "ERR REPL COMPACT MISMATCH ours=16 yours=8"
        );
        let hello = &backend.repl("REPL HELLO epoch=0 compact=16", true).lines[0];
        assert_eq!(
            hello,
            "OK REPL HELLO epoch=0 base=0 end=0 snap=0 role=primary compact=16"
        );
        // A refused handshake never fences: the epoch check runs after.
        assert_eq!(
            backend
                .repl("REPL HELLO epoch=9 compact=8", true)
                .lines
                .len(),
            1
        );
        assert!(!backend.stats().contains("fenced="));
        // Malformed announcements draw the usage line.
        assert!(backend.repl("REPL HELLO epoch=x", true).lines[0].starts_with("ERR REPL usage"));
        assert!(
            backend.repl("REPL HELLO compact=soon", true).lines[0].starts_with("ERR REPL usage")
        );
        assert!(backend.repl("REPL HELLO nonsense", true).lines[0].starts_with("ERR REPL usage"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retarget_on_a_primary_is_refused() {
        let dir = temp_dir("retarget");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        assert_eq!(
            backend.retarget("127.0.0.1:1"),
            "ERR REPL RETARGET on a primary; only a follower can change upstream"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `SNAPSHOT` streams `[len ‖ crc32 ‖ payload]` chunks that
    /// reassemble to the exact image of the engine, with nothing after
    /// the last chunk.
    #[test]
    fn the_served_snapshot_round_trips() {
        let dir = temp_dir("snapshot");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        let reply = backend.repl("REPL SNAPSHOT", true);
        assert_eq!(reply.lines.len(), 1);
        let header = &reply.lines[0];
        assert!(header.starts_with("OK REPL SNAPSHOT "), "{header}");
        let bytes = field_u64(header, "bytes=").unwrap();
        let chunks = field_u64(header, "chunks=").unwrap();
        let mut assembled = Vec::new();
        let mut rest = reply.raw.as_slice();
        for _ in 0..chunks {
            let (len, crc) = chunk_header(&rest[..8]).unwrap();
            let payload = &rest[8..8 + len];
            verify_chunk(crc, payload).unwrap();
            assembled.extend_from_slice(payload);
            rest = &rest[8 + len..];
        }
        assert!(rest.is_empty(), "no trailing bytes after the last chunk");
        assert_eq!(assembled.len() as u64, bytes);
        let snapshot = Snapshot::decode(&assembled).unwrap();
        backend.read(|engine| {
            assert_eq!(&snapshot.db, engine.database());
            assert_eq!(&snapshot.keys, engine.keys());
            assert_eq!(snapshot.generation, engine.generation());
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `FETCH` answers one batch frame whose records are the logged
    /// ones, in offset order; a trailing token on either form draws the
    /// usage line.
    #[test]
    fn the_fetch_batch_round_trips() {
        let dir = temp_dir("batch");
        let backend = ReplicatedBackend::primary(seed(), &dir).unwrap();
        let db = backend.parse_database();
        let insert = |text: &str| Mutation::Insert(db.parse_fact(text).unwrap());
        backend.mutate(insert("Employee(9, 'Flux', 'Ops')"), None);
        backend.mutate(insert("Employee(10, 'Mesh', 'Ops')"), None);

        let reply = backend.repl("REPL FETCH 0 64", true);
        let header = reply.lines[0].clone();
        assert!(header.starts_with("OK REPL BATCH "), "{header}");
        let len: usize = header.split_whitespace().nth(3).unwrap().parse().unwrap();
        assert_eq!(reply.raw.len(), len);
        assert_eq!(field_u64(&header, "n="), Some(2));
        assert_eq!(field_u64(&header, "next="), Some(2));
        assert_eq!(field_u64(&header, "end="), Some(2));
        let payloads = decode_record_batch(&reply.raw).unwrap();
        let schema = db.schema().clone();
        for (offset, payload) in payloads.iter().enumerate() {
            assert_eq!(
                LogRecord::decode(payload, &schema).unwrap().offset,
                offset as u64
            );
        }
        assert_eq!(payloads.len(), 2);

        for line in [
            "REPL FETCH 0 64 BIN",
            "REPL FETCH 0 64 NOPE",
            "REPL SNAPSHOT BIN",
        ] {
            let reply = backend.repl(line, true);
            assert!(reply.lines[0].starts_with("ERR REPL usage"), "{line}");
            assert!(reply.raw.is_empty(), "{line}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
