//! One protocol session: the line-at-a-time state machine shared by the
//! live TCP connection handler and the single-threaded [`Oracle`] replay.
//!
//! Keeping the server and the oracle on literally the same parsing,
//! scheduling-surface and rendering code is what makes the concurrency
//! tests meaningful: a socket reply can be compared byte-for-byte against
//! the oracle's reply for the same command sequence.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cdr_core::{wire, CountRequest, EngineCommand, RepairEngine, WireError};
use cdr_repairdb::{Database, FactId, Mutation};

use crate::backend::Backend;
use crate::reply;

/// Longest `SLEEP` a client may request, in milliseconds (the verb exists
/// for diagnostics and backpressure tests, not for parking workers).
const MAX_SLEEP_MS: u64 = 5_000;

/// How many `REMAP old->new` lines `COMPACT VERBOSE` streams when the
/// client does not pass an explicit `LIMIT`.
const DEFAULT_REMAP_LIMIT: usize = 64;

/// How a [`Session`] reaches the engine.  The live server implements this
/// over a [`Backend`] plus a bounded batch-permit pool; the [`Oracle`]
/// implements it over a bare backend with admission always granted.
pub(crate) trait EngineHost {
    /// The backend commands execute against.
    fn backend(&self) -> &Backend;
    /// Runs `f` while holding a batch fan-out permit, or returns `None`
    /// immediately when every permit is in use (the `SERVER BUSY` path).
    fn with_batch_permit<R>(&self, f: impl FnOnce() -> R) -> Option<R>;
    /// Whether the chaos verbs are enabled.
    fn chaos(&self) -> bool;
    /// Most commands one `BATCH … END` may carry.
    fn max_batch_commands(&self) -> usize;
    /// The auto-compaction waste threshold, if the policy is enabled:
    /// before every mutating command the engine compacts when its
    /// reclaimable waste (tombstones + retired slots) has reached this,
    /// or when the fact-id space is exhausted (see
    /// [`RepairEngine::maybe_compact`]).
    fn auto_compact_threshold(&self) -> Option<u64>;
    /// The admin token gating `SHUTDOWN` and the chaos verbs (`SLEEP`,
    /// `PANIC`), if one is configured.  `None` leaves those verbs open —
    /// the legacy behaviour.
    fn admin_token(&self) -> Option<&str>;
}

/// What one fed line produced.
#[derive(Debug)]
pub(crate) enum Step {
    /// Nothing to send (blank lines, comments, open-batch collection).
    Silent,
    /// One or more reply lines to send, in order.
    Replies(Vec<String>),
    /// Reply lines followed by raw bytes sent verbatim (no newline
    /// appended) — a binary `REPL BATCH`/`SNAPSHOT` body.
    RepliesRaw(Vec<String>, Vec<u8>),
    /// Send the line, then close this connection.
    Quit(String),
    /// Send the line, close this connection, and shut the server down.
    Shutdown(String),
}

/// One item of a query `BATCH`.
enum BatchItem {
    Request(CountRequest),
    Sleep(u64),
}

/// The per-connection protocol state machine.
#[derive(Default)]
pub(crate) struct Session {
    /// Collected lines of an open `BATCH … END`, if one is open.
    batch: Option<Vec<String>>,
    /// Whether this connection presented the admin token via `AUTH`.
    authed: bool,
}

/// The `ERR DENIED` reply for an admin verb used without `AUTH`.  The
/// connection stays alive — denial is a reply, not a disconnect.
fn denied(verb: &str) -> String {
    format!("ERR DENIED {verb} requires AUTH on this server")
}

impl Session {
    pub(crate) fn new() -> Self {
        Session::default()
    }

    /// Discards an open `BATCH … END`, if any — the rate limiter calls
    /// this so a throttled connection never commits a half-collected
    /// batch.
    pub(crate) fn abort_batch(&mut self) {
        self.batch = None;
    }

    /// Whether admin verbs are gated off for this connection: a token is
    /// configured and this session has not presented it.
    fn admin_denied<H: EngineHost>(&self, host: &H) -> bool {
        host.admin_token().is_some() && !self.authed
    }

    fn execute_auth<H: EngineHost>(&mut self, host: &H, line: &str) -> String {
        let Some(expected) = host.admin_token() else {
            return "ERR DENIED AUTH is not enabled on this server".to_string();
        };
        let supplied = line.split_whitespace().nth(1).unwrap_or("");
        if supplied == expected {
            self.authed = true;
            "OK AUTH".to_string()
        } else {
            "ERR DENIED bad admin token".to_string()
        }
    }

    /// Feeds one decoded line and says what to send back.
    pub(crate) fn feed<H: EngineHost>(&mut self, host: &H, line: &str) -> Step {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Step::Silent;
        }
        let verb = trimmed
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        if self.batch.is_some() {
            return match verb.as_str() {
                "END" => {
                    let lines = self.batch.take().expect("batch is open");
                    let admin_ok = !self.admin_denied(host);
                    execute_batch(host, &lines, admin_ok)
                }
                "BATCH" => {
                    self.batch = None;
                    Step::Replies(vec![
                        "ERR BATCH nested BATCH; the open batch was discarded".to_string()
                    ])
                }
                _ => {
                    let batch = self.batch.as_mut().expect("batch is open");
                    if batch.len() >= host.max_batch_commands() {
                        self.batch = None;
                        Step::Replies(vec![format!(
                            "ERR BATCH batch exceeds {} commands; discarded",
                            host.max_batch_commands()
                        )])
                    } else {
                        batch.push(trimmed.to_string());
                        Step::Silent
                    }
                }
            };
        }
        match verb.as_str() {
            "BATCH" => {
                self.batch = Some(Vec::new());
                Step::Silent
            }
            "END" => Step::Replies(vec!["ERR BATCH END without an open BATCH".to_string()]),
            "STATS" => Step::Replies(vec![host.backend().stats()]),
            "AUTH" => Step::Replies(vec![self.execute_auth(host, trimmed)]),
            "SLEEP" => {
                if self.admin_denied(host) {
                    return Step::Replies(vec![denied("SLEEP")]);
                }
                Step::Replies(vec![execute_sleep(trimmed)])
            }
            "PANIC" if host.chaos() => {
                if self.admin_denied(host) {
                    return Step::Replies(vec![denied("PANIC")]);
                }
                // Crash-recovery regression hook: panic while holding the
                // write-side lock, poisoning it for every later guard.
                host.backend().chaos_panic()
            }
            "QUIT" => Step::Quit("OK BYE".to_string()),
            "REPL" => {
                let reply = host.backend().repl(trimmed, !self.admin_denied(host));
                if reply.raw.is_empty() {
                    Step::Replies(reply.lines)
                } else {
                    Step::RepliesRaw(reply.lines, reply.raw)
                }
            }
            "PROMOTE" => {
                if self.admin_denied(host) {
                    return Step::Replies(vec![denied("PROMOTE")]);
                }
                let operands: Vec<&str> = trimmed.split_whitespace().skip(1).collect();
                let force = match operands.as_slice() {
                    [] => false,
                    [word] if word.eq_ignore_ascii_case("FORCE") => true,
                    _ => {
                        return Step::Replies(vec!["ERR REPL usage: PROMOTE [FORCE]".to_string()]);
                    }
                };
                Step::Replies(vec![host.backend().promote(force)])
            }
            "RETARGET" => {
                if self.admin_denied(host) {
                    return Step::Replies(vec![denied("RETARGET")]);
                }
                Step::Replies(vec![host.backend().retarget(trimmed)])
            }
            "SHUTDOWN" => {
                if self.admin_denied(host) {
                    return Step::Replies(vec![denied("SHUTDOWN")]);
                }
                Step::Shutdown("OK SHUTDOWN".to_string())
            }
            "COMPACT" => {
                let tokens: Vec<&str> = trimmed.split_whitespace().collect();
                if tokens.len() > 1 && tokens[1].eq_ignore_ascii_case("VERBOSE") {
                    execute_compact_verbose(host, &tokens[2..])
                } else {
                    // Bare COMPACT (and malformed operands) go through the
                    // wire parser, preserving its errors.
                    Step::Replies(vec![execute_command(host, trimmed)])
                }
            }
            _ => Step::Replies(vec![execute_command(host, trimmed)]),
        }
    }

    /// Feeds one decoded `BULK` frame body (the bytes after the
    /// `BULK <len>` header line).
    ///
    /// Decoding is all-or-nothing: a defective frame answers a single
    /// `ERR FRAME <why>` line and executes nothing.  A valid frame of
    /// `k` ops answers exactly `k` reply lines, each produced by the
    /// same [`Backend::mutate`] call the textual `INSERT`/`DELETE` path
    /// makes — the byte-identical-replies invariant (including
    /// `gen=`/`cached=` provenance and the follower's `ERR READONLY`)
    /// holds by construction, not by re-rendering.
    ///
    /// A frame arriving inside an open `BATCH … END` discards the batch
    /// and is itself rejected: a batch collects *lines*, and silently
    /// splicing a binary frame into one would blur its atomicity story.
    pub(crate) fn bulk<H: EngineHost>(&mut self, host: &H, frame: &[u8]) -> Step {
        if self.batch.take().is_some() {
            return Step::Replies(vec![reply::frame_error(
                "BULK inside an open BATCH; the batch was discarded",
            )]);
        }
        let db = database_snapshot(host);
        match cdr_core::decode_bulk(frame, &db) {
            Err(e) => Step::Replies(vec![reply::render_frame_error(&e)]),
            Ok(mutations) => {
                let threshold = host.auto_compact_threshold();
                Step::Replies(
                    mutations
                        .into_iter()
                        .map(|m| host.backend().mutate(m, threshold))
                        .collect(),
                )
            }
        }
    }
}

/// `COMPACT VERBOSE [LIMIT <n>]`: compacts, then streams the id
/// translation table as `REMAP <old>-><new>` lines so clients that cached
/// fact ids across the compaction can recover without re-discovery.  The
/// header carries the full remap count; the stream is capped at the limit
/// (ids that did not move are never streamed).
fn execute_compact_verbose<H: EngineHost>(host: &H, rest: &[&str]) -> Step {
    let limit = match rest {
        [] => DEFAULT_REMAP_LIMIT,
        [keyword, n] if keyword.eq_ignore_ascii_case("LIMIT") => match n.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return Step::Replies(vec![format!("ERR PARSE `{n}` is not a remap limit")]);
            }
        },
        _ => {
            return Step::Replies(vec![
                "ERR PARSE usage: COMPACT VERBOSE [LIMIT <n>]".to_string()
            ]);
        }
    };
    let (outcome, total) = match host.backend().compact() {
        Ok(compacted) => compacted,
        Err(refused) => return Step::Replies(vec![refused]),
    };
    let report = &outcome.report;
    let mut remaps: Vec<(usize, usize)> = Vec::new();
    for old in 0..report.fact_ids_before as usize {
        if let Some(new) = report.translate(FactId::new(old)) {
            if new.index() != old {
                remaps.push((old, new.index()));
            }
        }
    }
    let mut lines = Vec::with_capacity(remaps.len().min(limit) + 1);
    lines.push(format!(
        "{} remaps={}",
        reply::render_compaction(&outcome, &total),
        remaps.len()
    ));
    for (old, new) in remaps.iter().take(limit) {
        lines.push(format!("REMAP {old}->{new}"));
    }
    Step::Replies(lines)
}

fn execute_sleep(line: &str) -> String {
    let operand = line.split_whitespace().nth(1).unwrap_or("");
    match operand.parse::<u64>() {
        Ok(ms) if ms <= MAX_SLEEP_MS => {
            thread::sleep(Duration::from_millis(ms));
            format!("OK SLEPT {ms}")
        }
        Ok(ms) => format!("ERR PARSE SLEEP {ms} exceeds the {MAX_SLEEP_MS} ms cap"),
        Err(_) => format!("ERR PARSE `{operand}` is not a sleep duration in ms"),
    }
}

/// Parses against a snapshot of the served database: the schema is fixed
/// at engine construction, so command parsing never needs to hold a lock.
fn database_snapshot<H: EngineHost>(host: &H) -> Arc<Database> {
    host.backend().parse_database()
}

/// Executes one engine command line: queries under shared access,
/// mutations through the backend's write barrier.
fn execute_command<H: EngineHost>(host: &H, line: &str) -> String {
    let db = database_snapshot(host);
    let threshold = host.auto_compact_threshold();
    match wire::parse_engine_command(line, &db) {
        Ok(EngineCommand::Query(request)) => match host.backend().run(&request) {
            Ok(report) => reply::render_report(request.semantics(), &report),
            Err(e) => reply::render_count_error(&e),
        },
        Ok(EngineCommand::Mutate(mutation)) => host.backend().mutate(mutation, threshold),
        Ok(EngineCommand::MutateBatch(mutations)) => {
            host.backend().mutate_batch(mutations, threshold)
        }
        Ok(EngineCommand::Compact) => match host.backend().compact() {
            Ok((outcome, total)) => reply::render_compaction(&outcome, &total),
            Err(refused) => refused,
        },
        Err(e) => reply::render_wire_error(&e),
    }
}

/// Executes a closed `BATCH … END`.
///
/// A batch is either *mutations only* — applied atomically through
/// [`RepairEngine::apply_batch`], one aggregated reply — or *queries only*
/// (plus `SLEEP` diagnostics) — admitted through the bounded batch-permit
/// pool and fanned out with [`RepairEngine::run_batch`], one reply line
/// per item after an `OK BATCH <n>` header.  Mixing kinds is an error:
/// the engine's scheduler treats every mutation as a barrier, so a mixed
/// batch has no single atomic meaning.
fn execute_batch<H: EngineHost>(host: &H, lines: &[String], admin_ok: bool) -> Step {
    let db = database_snapshot(host);
    let mut mutations: Vec<Mutation> = Vec::new();
    let mut items: Vec<BatchItem> = Vec::new();
    for line in lines {
        let verb = line
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_ascii_uppercase();
        let parsed: Result<(), WireError> = match verb.as_str() {
            "INSERT" | "DELETE" => wire::parse_mutation(line, &db).map(|m| mutations.push(m)),
            "SLEEP" => {
                if !admin_ok {
                    return Step::Replies(vec![denied("SLEEP")]);
                }
                match line.split_whitespace().nth(1).unwrap_or("").parse::<u64>() {
                    Ok(ms) if ms <= MAX_SLEEP_MS => {
                        items.push(BatchItem::Sleep(ms));
                        Ok(())
                    }
                    _ => Err(WireError::Syntax {
                        verb: "SLEEP",
                        message: format!("bad duration in `{line}`"),
                    }),
                }
            }
            _ => wire::parse_count_request(line).map(|r| items.push(BatchItem::Request(r))),
        };
        if let Err(e) = parsed {
            return Step::Replies(vec![reply::render_wire_error(&e)]);
        }
    }
    if !mutations.is_empty() && !items.is_empty() {
        return Step::Replies(vec![
            "ERR BATCH a batch must be all mutations or all queries".to_string(),
        ]);
    }
    if !mutations.is_empty() {
        let threshold = host.auto_compact_threshold();
        return Step::Replies(vec![host.backend().mutate_batch(mutations, threshold)]);
    }
    match host.with_batch_permit(|| run_query_batch(host, &items)) {
        Some(mut replies) => {
            let mut lines = Vec::with_capacity(replies.len() + 1);
            lines.push(format!("OK BATCH {}", replies.len()));
            lines.append(&mut replies);
            Step::Replies(lines)
        }
        None => Step::Replies(vec![reply::busy("batch fan-out permits exhausted")]),
    }
}

/// Runs the items of an admitted query batch in order, fanning each
/// maximal run of consecutive requests out through `run_batch`.
fn run_query_batch<H: EngineHost>(host: &H, items: &[BatchItem]) -> Vec<String> {
    let mut replies = Vec::with_capacity(items.len());
    let mut pending: Vec<&CountRequest> = Vec::new();
    let flush = |pending: &mut Vec<&CountRequest>, replies: &mut Vec<String>| {
        if pending.is_empty() {
            return;
        }
        let requests: Vec<CountRequest> = pending.iter().map(|&r| r.clone()).collect();
        let reports = host.backend().run_batch(&requests);
        for (request, report) in requests.iter().zip(reports) {
            replies.push(match report {
                Ok(report) => reply::render_report(request.semantics(), &report),
                Err(e) => reply::render_count_error(&e),
            });
        }
        pending.clear();
    };
    for item in items {
        match item {
            BatchItem::Request(request) => pending.push(request),
            BatchItem::Sleep(ms) => {
                flush(&mut pending, &mut replies);
                thread::sleep(Duration::from_millis(*ms));
                replies.push(format!("OK SLEPT {ms}"));
            }
        }
    }
    flush(&mut pending, &mut replies);
    replies
}

/// A single-threaded reference server: the same parsing, scheduling
/// surface and rendering as the TCP front end, over a bare engine with no
/// sockets, no locks and batch admission always granted.
///
/// Because wire replies are deterministic functions of the engine state
/// and the command sequence (never of wall-clock time), replaying a
/// recorded command interleaving through an `Oracle` reproduces the
/// server's replies byte for byte — the integration tests' ground truth.
///
/// ```
/// use cdr_core::RepairEngine;
/// use cdr_server::Oracle;
/// use cdr_workloads::employee_example;
///
/// let (db, keys) = employee_example();
/// let mut oracle = Oracle::new(RepairEngine::new(db, keys));
/// let replies = oracle.feed("COUNT auto EXISTS n . Employee(2, n, 'IT')");
/// assert!(replies[0].starts_with("OK COUNT 4 "));
/// ```
pub struct Oracle {
    backend: Backend,
    session: Session,
    auto_compact: Option<u64>,
    admin_token: Option<String>,
}

struct OracleHost<'a> {
    backend: &'a Backend,
    auto_compact: Option<u64>,
    admin_token: Option<&'a str>,
}

impl EngineHost for OracleHost<'_> {
    fn backend(&self) -> &Backend {
        self.backend
    }
    fn with_batch_permit<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        Some(f())
    }
    fn chaos(&self) -> bool {
        false
    }
    fn max_batch_commands(&self) -> usize {
        usize::MAX
    }
    fn auto_compact_threshold(&self) -> Option<u64> {
        self.auto_compact
    }
    fn admin_token(&self) -> Option<&str> {
        self.admin_token
    }
}

impl Oracle {
    /// A reference session over the given engine.
    pub fn new(engine: RepairEngine) -> Self {
        Oracle {
            backend: Backend::single(engine),
            session: Session::new(),
            auto_compact: None,
            admin_token: None,
        }
    }

    /// Enables the auto-compaction policy with the given waste threshold —
    /// the oracle-side mirror of `cdr-serve --auto-compact`, so replies
    /// stay byte-comparable against a server running the same policy.
    pub fn with_auto_compact(mut self, threshold: u64) -> Self {
        self.auto_compact = Some(threshold);
        self
    }

    /// Configures the admin token — the oracle-side mirror of
    /// `cdr-serve --admin-token`, gating `SHUTDOWN` and the chaos verbs
    /// behind a per-session `AUTH`.
    pub fn with_admin_token(mut self, token: impl Into<String>) -> Self {
        self.admin_token = Some(token.into());
        self
    }

    /// Executes one wire line, returning the reply lines it produced
    /// (empty for blank lines, comments and open-batch collection).
    pub fn feed(&mut self, line: &str) -> Vec<String> {
        let host = OracleHost {
            backend: &self.backend,
            auto_compact: self.auto_compact,
            admin_token: self.admin_token.as_deref(),
        };
        match self.session.feed(&host, line) {
            Step::Silent => Vec::new(),
            Step::Replies(replies) | Step::RepliesRaw(replies, _) => replies,
            Step::Quit(reply) | Step::Shutdown(reply) => vec![reply],
        }
    }

    /// Executes one `BULK` frame body, returning the reply lines it
    /// produced — one per op on success, a single `ERR FRAME …` line on
    /// a defective frame.  The single-threaded ground truth for the
    /// server's binary ingest path, exactly as [`Oracle::feed`] is for
    /// its line path.
    pub fn feed_bulk(&mut self, frame: &[u8]) -> Vec<String> {
        let host = OracleHost {
            backend: &self.backend,
            auto_compact: self.auto_compact,
            admin_token: self.admin_token.as_deref(),
        };
        match self.session.bulk(&host, frame) {
            Step::Silent => Vec::new(),
            Step::Replies(replies) | Step::RepliesRaw(replies, _) => replies,
            Step::Quit(reply) | Step::Shutdown(reply) => vec![reply],
        }
    }

    /// Shared access to the underlying engine (for end-state assertions).
    pub fn with_engine<R>(&self, f: impl FnOnce(&RepairEngine) -> R) -> R {
        self.backend.read(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_workloads::employee_example;

    fn oracle() -> Oracle {
        let (db, keys) = employee_example();
        Oracle::new(RepairEngine::new(db, keys))
    }

    #[test]
    fn single_command_session() {
        let mut oracle = oracle();
        let replies = oracle.feed("FREQ EXISTS n . Employee(2, n, 'IT')");
        assert_eq!(replies.len(), 1);
        assert!(replies[0].starts_with("OK FREQ 1 "), "{}", replies[0]);
        let replies = oracle.feed("INSERT Employee(2, 'Eve', 'Sales')");
        assert_eq!(
            replies,
            vec!["OK INSERT id=4 applied=1 gen=1 total=6".to_string()]
        );
        let replies = oracle.feed("FREQ EXISTS n . Employee(2, n, 'IT')");
        assert!(replies[0].starts_with("OK FREQ 2/3 "), "{}", replies[0]);
        let replies = oracle.feed("DELETE 4");
        assert_eq!(replies, vec!["OK DELETE id=4 gen=2 total=4".to_string()]);
        // Deleting again is a MISSING error, not a dead session.
        let replies = oracle.feed("DELETE 4");
        assert!(replies[0].starts_with("ERR MISSING "), "{}", replies[0]);
        let replies = oracle.feed("STATS");
        assert!(
            replies[0].starts_with("OK STATS facts=4 ids=5 "),
            "{}",
            replies[0]
        );
    }

    #[test]
    fn blank_lines_and_comments_are_silent() {
        let mut oracle = oracle();
        assert!(oracle.feed("").is_empty());
        assert!(oracle.feed("   ").is_empty());
        assert!(oracle.feed("# comment").is_empty());
    }

    #[test]
    fn mutation_batches_are_atomic() {
        let mut oracle = oracle();
        oracle.feed("BATCH");
        assert!(oracle.feed("INSERT Employee(3, 'Ann', 'IT')").is_empty());
        assert!(oracle.feed("INSERT Employee(3, 'Kim', 'HR')").is_empty());
        let replies = oracle.feed("END");
        assert_eq!(
            replies,
            vec!["OK BATCH applied=2 noops=0 gen=2 total=8".to_string()]
        );
        // A batch with one bad delete changes nothing.
        oracle.feed("BATCH");
        oracle.feed("INSERT Employee(4, 'Joe', 'IT')");
        oracle.feed("DELETE 99");
        let replies = oracle.feed("END");
        assert!(replies[0].starts_with("ERR MISSING "), "{}", replies[0]);
        let stats = oracle.feed("STATS");
        assert!(stats[0].contains("facts=6 "), "{}", stats[0]);
    }

    #[test]
    fn query_batches_reply_per_item_in_order() {
        let mut oracle = oracle();
        oracle.feed("BATCH");
        oracle.feed("COUNT auto EXISTS n . Employee(2, n, 'IT')");
        oracle.feed("CERTAIN EXISTS n . Employee(2, n, 'IT')");
        oracle.feed("DECIDE EXISTS n . Employee(9, n, 'IT')");
        let replies = oracle.feed("END");
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0], "OK BATCH 3");
        assert!(replies[1].starts_with("OK COUNT 4 "), "{}", replies[1]);
        assert!(replies[2].starts_with("OK CERTAIN true "), "{}", replies[2]);
        assert!(replies[3].starts_with("OK DECIDE false "), "{}", replies[3]);
    }

    #[test]
    fn mixed_batches_and_stray_end_are_errors() {
        let mut oracle = oracle();
        oracle.feed("BATCH");
        oracle.feed("INSERT Employee(3, 'Ann', 'IT')");
        oracle.feed("COUNT auto TRUE");
        let replies = oracle.feed("END");
        assert!(replies[0].starts_with("ERR BATCH "), "{}", replies[0]);
        let replies = oracle.feed("END");
        assert!(replies[0].starts_with("ERR BATCH "), "{}", replies[0]);
        // The failed batch applied nothing.
        assert!(oracle.feed("STATS")[0].contains("facts=4 "));
    }

    #[test]
    fn unknown_verbs_and_parse_errors_keep_the_session_alive() {
        let mut oracle = oracle();
        assert!(oracle.feed("NONSENSE 1 2 3")[0].starts_with("ERR UNKNOWN "));
        assert!(oracle.feed("COUNT warp TRUE")[0].starts_with("ERR PARSE "));
        assert!(oracle.feed("INSERT Unknown(1)")[0].starts_with("ERR RELATION "));
        assert!(oracle.feed("DELETE x")[0].starts_with("ERR PARSE "));
        assert!(oracle.feed("STATS")[0].starts_with("OK STATS "));
    }

    #[test]
    fn quit_replies_bye() {
        let mut oracle = oracle();
        assert_eq!(oracle.feed("QUIT"), vec!["OK BYE".to_string()]);
    }

    #[test]
    fn compact_reclaims_waste_and_reports_deterministically() {
        let mut oracle = oracle();
        oracle.feed("INSERT Employee(9, 'Flux', 'Ops')");
        assert_eq!(
            oracle.feed("DELETE 4"),
            vec!["OK DELETE id=4 gen=2 total=4".to_string()]
        );
        let stats = oracle.feed("STATS");
        assert!(stats[0].contains("ids=5 "), "{}", stats[0]);
        assert!(stats[0].contains("tombstones=1 "), "{}", stats[0]);
        assert!(stats[0].contains("waste=2 "), "{}", stats[0]);
        assert_eq!(
            oracle.feed("COMPACT"),
            vec!["OK COMPACTED facts=4 slots=2 reclaimed=1 gen=3 total=4".to_string()]
        );
        let stats = oracle.feed("STATS");
        assert!(stats[0].contains("ids=4 "), "{}", stats[0]);
        assert!(stats[0].contains("tombstones=0 "), "{}", stats[0]);
        assert!(stats[0].contains("waste=0 "), "{}", stats[0]);
        // Operands are rejected; the session stays alive.
        assert!(oracle.feed("COMPACT now")[0].starts_with("ERR PARSE "));
        assert!(oracle.feed("STATS")[0].starts_with("OK STATS "));
    }

    #[test]
    fn compact_recovers_an_exhausted_session() {
        let (db, keys) = employee_example();
        let mut oracle = Oracle::new(RepairEngine::new(db.with_fact_id_capacity(5), keys));
        oracle.feed("INSERT Employee(3, 'Eve', 'IT')");
        oracle.feed("DELETE 4");
        let replies = oracle.feed("INSERT Employee(3, 'Kim', 'IT')");
        assert!(replies[0].starts_with("ERR EXHAUSTED "), "{}", replies[0]);
        let replies = oracle.feed("COMPACT");
        assert!(replies[0].starts_with("OK COMPACTED "), "{}", replies[0]);
        let replies = oracle.feed("INSERT Employee(3, 'Kim', 'IT')");
        assert_eq!(
            replies,
            vec!["OK INSERT id=4 applied=1 gen=4 total=4".to_string()]
        );
    }

    #[test]
    fn compact_verbose_streams_the_remap_table() {
        let mut oracle = oracle();
        // Tombstone id 1: compaction slides 2->1 and 3->2.
        oracle.feed("DELETE 1");
        let replies = oracle.feed("COMPACT VERBOSE");
        assert!(replies[0].starts_with("OK COMPACTED "), "{}", replies[0]);
        assert!(replies[0].ends_with(" remaps=2"), "{}", replies[0]);
        assert_eq!(replies[1..], ["REMAP 2->1", "REMAP 3->2"]);
        // Nothing moved: an empty stream, not a missing header.
        let replies = oracle.feed("COMPACT VERBOSE");
        assert!(replies[0].ends_with(" remaps=0"), "{}", replies[0]);
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn compact_verbose_limit_caps_the_stream_not_the_count() {
        let mut oracle = oracle();
        oracle.feed("DELETE 0");
        let replies = oracle.feed("COMPACT VERBOSE LIMIT 1");
        assert!(replies[0].ends_with(" remaps=3"), "{}", replies[0]);
        assert_eq!(replies[1..], ["REMAP 1->0"]);
        oracle.feed("DELETE 0");
        let replies = oracle.feed("compact verbose limit 0");
        assert!(replies[0].ends_with(" remaps=2"), "{}", replies[0]);
        assert_eq!(replies.len(), 1);
    }

    #[test]
    fn compact_verbose_rejects_malformed_operands() {
        let mut oracle = oracle();
        let replies = oracle.feed("COMPACT VERBOSE LIMIT soon");
        assert_eq!(replies, vec!["ERR PARSE `soon` is not a remap limit"]);
        let replies = oracle.feed("COMPACT VERBOSE NOW");
        assert_eq!(
            replies,
            vec!["ERR PARSE usage: COMPACT VERBOSE [LIMIT <n>]"]
        );
        let replies = oracle.feed("COMPACT VERBOSE LIMIT 1 extra");
        assert_eq!(
            replies,
            vec!["ERR PARSE usage: COMPACT VERBOSE [LIMIT <n>]"]
        );
        // A parse error never compacts: the generation is untouched.
        assert!(oracle.feed("STATS")[0].contains(" gen=0 "));
    }

    #[test]
    fn auth_is_denied_when_no_token_is_configured() {
        let mut oracle = oracle();
        let replies = oracle.feed("AUTH whatever");
        assert_eq!(
            replies,
            vec!["ERR DENIED AUTH is not enabled on this server"]
        );
        // Legacy open server: admin verbs still work without AUTH.
        assert_eq!(oracle.feed("SLEEP 0"), vec!["OK SLEPT 0"]);
        assert_eq!(oracle.feed("SHUTDOWN"), vec!["OK SHUTDOWN"]);
    }

    #[test]
    fn admin_verbs_require_auth_when_a_token_is_set() {
        let (db, keys) = employee_example();
        let mut oracle = Oracle::new(RepairEngine::new(db, keys)).with_admin_token("sesame");
        // PANIC is also gated by chaos mode, which the oracle never
        // enables; its AUTH gate is covered by the socket tests.
        for (line, verb) in [("SLEEP 0", "SLEEP"), ("SHUTDOWN", "SHUTDOWN")] {
            assert_eq!(
                oracle.feed(line),
                vec![format!("ERR DENIED {verb} requires AUTH on this server")]
            );
        }
        // Denial is a reply, not a disconnect — and data verbs stay open.
        assert!(oracle.feed("STATS")[0].starts_with("OK STATS "));
        assert!(oracle.feed("COUNT auto TRUE")[0].starts_with("OK COUNT "));
        // A wrong token does not unlock the session.
        assert_eq!(
            oracle.feed("AUTH opensesame"),
            vec!["ERR DENIED bad admin token"]
        );
        assert_eq!(
            oracle.feed("SLEEP 0"),
            vec!["ERR DENIED SLEEP requires AUTH on this server"]
        );
        // The right one does, for the rest of the connection.
        assert_eq!(oracle.feed("AUTH sesame"), vec!["OK AUTH"]);
        assert_eq!(oracle.feed("SLEEP 0"), vec!["OK SLEPT 0"]);
        assert_eq!(oracle.feed("SHUTDOWN"), vec!["OK SHUTDOWN"]);
    }

    #[test]
    fn batch_sleep_is_gated_by_auth() {
        let (db, keys) = employee_example();
        let mut oracle = Oracle::new(RepairEngine::new(db, keys)).with_admin_token("sesame");
        oracle.feed("BATCH");
        oracle.feed("COUNT auto TRUE");
        oracle.feed("SLEEP 0");
        let replies = oracle.feed("END");
        assert_eq!(
            replies,
            vec!["ERR DENIED SLEEP requires AUTH on this server"]
        );
        // Query-only batches never needed admin rights.
        oracle.feed("BATCH");
        oracle.feed("COUNT auto TRUE");
        let replies = oracle.feed("END");
        assert_eq!(replies[0], "OK BATCH 1");
        oracle.feed("AUTH sesame");
        oracle.feed("BATCH");
        oracle.feed("SLEEP 0");
        let replies = oracle.feed("END");
        assert_eq!(replies, vec!["OK BATCH 1", "OK SLEPT 0"]);
    }

    #[test]
    fn bulk_frames_reply_byte_identically_to_the_textual_lines() {
        let (db, keys) = employee_example();
        let mut textual = Oracle::new(RepairEngine::new(db.clone(), keys.clone()));
        let mut binary = Oracle::new(RepairEngine::new(db.clone(), keys));
        let lines = [
            "INSERT Employee(2, 'Eve', 'Sales')",
            "INSERT Employee(3, 'Ann', 'IT')",
            "DELETE 4",
            "DELETE 4",
            "INSERT Employee(3, 'Ann', 'IT')",
        ];
        let mutations: Vec<_> = lines
            .iter()
            .map(|l| cdr_core::wire::parse_mutation(l, &db).unwrap())
            .collect();
        let frame = cdr_core::encode_bulk(&db, &mutations);
        let mut expected = Vec::new();
        for line in lines {
            expected.extend(textual.feed(line));
        }
        assert_eq!(binary.feed_bulk(&frame), expected);
        assert_eq!(
            binary.feed("STATS"),
            textual.feed("STATS"),
            "final engine state diverged"
        );
    }

    #[test]
    fn a_defective_bulk_frame_executes_nothing() {
        let mut oracle = oracle();
        let replies = oracle.feed_bulk(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        assert_eq!(replies.len(), 1);
        assert!(replies[0].starts_with("ERR FRAME "), "{}", replies[0]);
        assert!(oracle.feed("STATS")[0].contains(" gen=0 "), "nothing ran");
        // An empty frame is valid and answers nothing at all.
        let empty = {
            let (db, _) = employee_example();
            cdr_core::encode_bulk(&db, &[])
        };
        assert!(oracle.feed_bulk(&empty).is_empty());
    }

    #[test]
    fn a_bulk_frame_discards_an_open_batch() {
        let mut oracle = oracle();
        oracle.feed("BATCH");
        oracle.feed("INSERT Employee(3, 'Ann', 'IT')");
        let frame = {
            let (db, _) = employee_example();
            cdr_core::encode_bulk(&db, &[])
        };
        let replies = oracle.feed_bulk(&frame);
        assert_eq!(
            replies,
            vec!["ERR FRAME BULK inside an open BATCH; the batch was discarded".to_string()]
        );
        // The half-collected batch is gone: END is now a stray.
        assert!(oracle.feed("END")[0].starts_with("ERR BATCH "));
        assert!(oracle.feed("STATS")[0].contains("facts=4 "));
    }

    #[test]
    fn auto_compact_keeps_a_capped_session_alive_indefinitely() {
        let (db, keys) = employee_example();
        let mut oracle =
            Oracle::new(RepairEngine::new(db.with_fact_id_capacity(8), keys)).with_auto_compact(2);
        // 50 insert/delete cycles consume 50 ids against a capacity of 8:
        // without the policy this dies with ERR EXHAUSTED on the 5th.
        for _ in 0..50 {
            let replies = oracle.feed("INSERT Employee(9, 'Flux', 'Ops')");
            assert!(replies[0].starts_with("OK INSERT "), "{}", replies[0]);
            let id = replies[0]
                .strip_prefix("OK INSERT id=")
                .and_then(|r| r.split_whitespace().next())
                .unwrap()
                .to_string();
            let replies = oracle.feed(&format!("DELETE {id}"));
            assert!(replies[0].starts_with("OK DELETE "), "{}", replies[0]);
        }
        let stats = oracle.feed("STATS");
        assert!(stats[0].contains("facts=4 "), "{}", stats[0]);
        oracle.with_engine(|engine| {
            assert!(engine.waste() <= 2, "the policy bounds the waste");
            assert!(engine.database().fact_ids_assigned() <= 8);
        });
    }
}
