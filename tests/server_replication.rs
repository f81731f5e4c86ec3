//! End-to-end socket tests for the replicated command log: a primary
//! over `--log-dir` that logs-then-applies every mutation, snapshots at
//! compaction and recovers by replaying only the post-snapshot suffix; a
//! follower that bootstraps from `REPL SNAPSHOT`, tails `REPL FETCH`,
//! serves reads byte-identically and refuses writes; `PROMOTE` failover;
//! and the per-connection token-bucket rate limiter.
//!
//! Every byte-parity assertion here leans on the same property the rest
//! of the suite does: wire replies are a pure function of engine state
//! and command order, so replicas that replay the same log must answer
//! identically — including `gen=`/`cached=` provenance and seeded
//! `APPROX` estimates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use repair_count::prelude::*;
use repair_count::workloads::{churn_base, churn_session, employee_example, replication_battery};

/// Distinct per-test log directories under the system temp dir.
static LOG_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_log_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdr-replication-test-{}-{}-{}",
        std::process::id(),
        tag,
        LOG_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn test_config() -> ServerConfig {
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    config
}

fn churn_engine() -> RepairEngine {
    let (db, keys) = churn_base();
    RepairEngine::new(db, keys)
}

/// Starts a primary over `dir` with the churn base and the given
/// auto-compaction threshold.
fn start_primary(dir: &Path, auto_compact: Option<u64>) -> Server {
    let backend = ReplicatedBackend::primary(churn_engine(), dir).expect("fresh primary");
    let mut config = test_config();
    config.auto_compact = auto_compact;
    Server::start_replicated(backend, config).expect("bind primary")
}

/// Starts a follower of `upstream` (identity tuning — the churn engines
/// here run default budgets).
fn start_follower(
    upstream: &str,
    auto_compact: Option<u64>,
    configure: impl FnOnce(&mut ServerConfig),
) -> Server {
    let backend =
        ReplicatedBackend::follower(upstream, auto_compact, |engine| engine).expect("bootstrap");
    let mut config = test_config();
    config.auto_compact = auto_compact;
    configure(&mut config);
    Server::start_replicated(backend, config).expect("bind follower")
}

/// `key=value` extraction from a `STATS` / `REPL` reply.
fn stat_u64(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` field in `{line}`"))
}

/// The gauge head of a `STATS` reply — everything before the first ` | `
/// tail (cache traffic and the repl gauge legitimately differ per node).
fn stats_head(reply: &str) -> &str {
    reply.split(" | ").next().unwrap_or(reply)
}

/// Polls the node's `STATS` until its replicated offset reaches
/// `target`, returning the final reply.
fn wait_for_offset(client: &mut Client, target: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client.send("STATS").expect("STATS");
        if stat_u64(&reply, "end=") >= target {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "stuck short of offset {target}: {reply}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Sends the read battery and returns every reply — the byte-comparable
/// fingerprint of a node (each battery line runs twice, so `cached=`
/// provenance is part of the fingerprint).
fn battery_replies(client: &mut Client) -> Vec<String> {
    replication_battery()
        .iter()
        .map(|line| client.send(line).expect("battery line"))
        .collect()
}

/// Acceptance: a primary that logged a churn workload (including
/// auto-compactions, which snapshot and truncate the disk log) restarts
/// into byte-identical state, replaying only the records after the last
/// snapshot — the `replayed=` gauge proves the suffix stayed short.
#[test]
fn a_cold_restart_replays_only_the_post_snapshot_suffix() {
    let dir = temp_log_dir("restart");
    let (_, _, trace) = churn_session(120, Some(16));

    let server = start_primary(&dir, Some(16));
    let mut client = Client::connect(server.addr()).expect("connect");
    for line in &trace {
        let reply = client.send(line).expect("trace line");
        assert!(reply.starts_with("OK "), "`{line}` drew `{reply}`");
    }
    let before_stats = client.send("STATS").expect("STATS");
    let before_battery = battery_replies(&mut client);
    let hello = client.send("REPL HELLO").expect("HELLO");
    let end = stat_u64(&hello, "end=");
    let snap = stat_u64(&hello, "snap=");
    assert!(
        snap > 0,
        "the churn trace must auto-compact (and so snapshot): {hello}"
    );
    assert!(end > snap, "mutations landed after the last snapshot");
    assert_eq!(client.send("SHUTDOWN").expect("SHUTDOWN"), "OK SHUTDOWN");
    server.join();

    // Cold restart over the same directory: snapshot + suffix replay.
    let server = start_primary(&dir, Some(16));
    let mut client = Client::connect(server.addr()).expect("connect");
    let after_stats = client.send("STATS").expect("STATS");
    assert_eq!(
        stats_head(&after_stats),
        stats_head(&before_stats),
        "the recovered gauges (facts, slots, gen, total) must match"
    );
    assert_eq!(stat_u64(&after_stats, "base="), snap);
    assert_eq!(stat_u64(&after_stats, "end="), end);
    assert_eq!(
        stat_u64(&after_stats, "replayed="),
        end - snap,
        "recovery replays exactly the post-snapshot suffix: {after_stats}"
    );
    assert_eq!(
        battery_replies(&mut client),
        before_battery,
        "the recovered node answers the read battery byte-identically"
    );

    // The records before the recovery snapshot are gone from the log:
    // a stale fetch is told to re-bootstrap, a future one is refused.
    let reply = client.send("REPL FETCH 0 8").expect("FETCH");
    assert!(reply.starts_with("ERR REPL COMPACTED "), "{reply}");
    let reply = client
        .send(&format!("REPL FETCH {} 8", end + 5))
        .expect("FETCH");
    assert!(reply.starts_with("ERR REPL RANGE "), "{reply}");

    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: a follower bootstraps from the primary's snapshot, tails
/// the log through a replicated churn workload (mutations, batches and
/// auto-compactions), and then answers the read battery byte-for-byte —
/// while every mutating verb draws a deterministic `ERR READONLY`.
#[test]
fn a_follower_serves_reads_byte_identically_and_refuses_writes() {
    let dir = temp_log_dir("follower");
    let (_, _, trace) = churn_session(90, Some(16));

    let primary = start_primary(&dir, Some(16));
    let primary_addr = primary.addr().to_string();
    let follower = start_follower(&primary_addr, Some(16), |_| {});

    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for line in &trace {
        let reply = client.send(line).expect("trace line");
        assert!(reply.starts_with("OK "), "`{line}` drew `{reply}`");
    }
    let primary_stats = client.send("STATS").expect("STATS");
    let target = stat_u64(&primary_stats, "end=");

    let mut reader = Client::connect(follower.addr()).expect("connect follower");
    let follower_stats = wait_for_offset(&mut reader, target);
    assert_eq!(stats_head(&primary_stats), stats_head(&follower_stats));
    assert_eq!(stat_u64(&follower_stats, "epoch="), 0);
    assert_eq!(battery_replies(&mut client), battery_replies(&mut reader));

    // Writes are refused with the exact documented reply — and the
    // refusal is a reply, never a disconnect.
    for (line, verb) in [
        ("INSERT Event(300, 'nope')", "INSERT"),
        ("DELETE 0", "DELETE"),
        ("COMPACT", "COMPACT"),
        ("COMPACT VERBOSE", "COMPACT"),
    ] {
        assert_eq!(
            reader.send(line).expect("refused write"),
            format!("ERR READONLY {verb} is not served by a follower; write to the primary"),
            "on `{line}`"
        );
    }
    let refused = reader
        .send_batch(&["INSERT Event(301, 'nope')", "INSERT Event(302, 'nope')"])
        .expect("refused batch");
    assert_eq!(
        refused,
        vec!["ERR READONLY BATCH is not served by a follower; write to the primary".to_string()]
    );
    assert!(reader.send("STATS").expect("STATS").starts_with("OK STATS"));

    follower.shutdown();
    assert_eq!(follower.join().recovered_panics, 0, "tailer never panics");
    primary.shutdown();
    assert_eq!(primary.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: failover.  The primary dies mid-stream; `PROMOTE` (an
/// admin verb, gated behind `AUTH`) flips the caught-up follower into a
/// primary at a new epoch, and it takes writes from exactly the
/// replicated state.
#[test]
fn promote_turns_a_follower_into_a_primary_at_a_new_epoch() {
    let dir = temp_log_dir("promote");
    let primary = start_primary(&dir, None);
    let primary_addr = primary.addr().to_string();
    let follower = start_follower(&primary_addr, None, |config| {
        config.admin_token = Some("sekrit".to_string());
    });

    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for k in 200..206 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'pre-failover')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let target = stat_u64(&client.send("STATS").expect("STATS"), "end=");

    let mut surviving = Client::connect(follower.addr()).expect("connect follower");
    wait_for_offset(&mut surviving, target);
    let expected_gen = stat_u64(&surviving.send("STATS").expect("STATS"), "gen=");

    // The primary is gone — a dead upstream idles the tailer, it never
    // panics (recovered_panics stays 0 below).
    primary.shutdown();
    primary.join();

    // PROMOTE is an admin verb.
    assert_eq!(
        surviving.send("PROMOTE").expect("PROMOTE"),
        "ERR DENIED PROMOTE requires AUTH on this server"
    );
    assert_eq!(surviving.send("AUTH sekrit").expect("AUTH"), "OK AUTH");
    assert_eq!(
        surviving.send("PROMOTE").expect("PROMOTE"),
        format!("OK PROMOTED epoch=1 end={target}")
    );
    assert_eq!(
        surviving.send("PROMOTE").expect("PROMOTE"),
        "ERR REPL already primary at epoch=1",
        "promotion is idempotent-safe, not repeatable"
    );

    // The promoted node serves writes, continuing the replicated
    // generation counter — nothing was lost or double-applied.
    let stats = surviving.send("STATS").expect("STATS");
    assert!(stats.contains(" | repl role=primary epoch=1 "), "{stats}");
    let reply = surviving
        .send("INSERT Event(207, 'post-failover')")
        .expect("insert");
    assert!(
        reply.starts_with("OK INSERT id=") && reply.contains(&format!(" gen={}", expected_gen + 1)),
        "{reply}"
    );
    assert_eq!(
        stat_u64(&surviving.send("STATS").expect("STATS"), "end="),
        target + 1,
        "the promoted primary logs its own mutations"
    );

    follower.shutdown();
    assert_eq!(follower.join().recovered_panics, 0, "tailer never panics");
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: promoting a follower that has not yet applied everything
/// the upstream acknowledged must refuse with `ERR REPL BEHIND end=<e>
/// upstream=<u>` — the failover soak once raced the final `REPL FETCH`
/// and promoted a node missing the acknowledged tail.  Once the tailer
/// catches up, the same node promotes cleanly.
#[test]
fn promote_refuses_while_the_follower_is_behind_the_upstream() {
    let dir = temp_log_dir("behind");
    let primary = start_primary(&dir, None);
    let primary_addr = primary.addr().to_string();
    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for k in 400..404 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'pre-snap')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let reply = client.send("COMPACT").expect("COMPACT");
    assert!(reply.starts_with("OK COMPACTED "), "{reply}");
    for k in 404..406 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'post-snap')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let hello = client.send("REPL HELLO").expect("HELLO");
    let snap = stat_u64(&hello, "snap=");
    let end = stat_u64(&hello, "end=");
    assert!(end > snap, "mutations landed after the snapshot: {hello}");

    // Bootstrap a follower but never serve it: the tailer never runs, so
    // the node sits at the snapshot offset while the bootstrap HELLO
    // already told it how far the upstream really is.
    let backend =
        ReplicatedBackend::follower(&primary_addr, None, |engine| engine).expect("bootstrap");
    assert_eq!(
        backend.promote(false),
        format!("ERR REPL BEHIND end={snap} upstream={end}"),
        "a behind follower must refuse promotion"
    );

    // Served normally, the tailer applies the suffix and the very same
    // node promotes at the acknowledged offset.
    let follower = Server::start_replicated(backend, test_config()).expect("bind follower");
    let mut surviving = Client::connect(follower.addr()).expect("connect follower");
    wait_for_offset(&mut surviving, end);
    primary.shutdown();
    primary.join();
    assert_eq!(
        surviving.send("PROMOTE").expect("PROMOTE"),
        format!("OK PROMOTED epoch=1 end={end}")
    );

    follower.shutdown();
    assert_eq!(follower.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: three-node failover by hand — the exact sequence the
/// supervisor drives.  The primary dies; its surviving followers count
/// tail retries (visible as `repl retries=` in `STATS`) while backing
/// off; one follower is promoted; `RETARGET` (admin-gated) re-points
/// the other at the new primary, and post-failover writes replicate to
/// it with full byte parity.
#[test]
fn retarget_repoints_a_survivor_at_the_promoted_primary() {
    let dir = temp_log_dir("retarget");
    let primary = start_primary(&dir, None);
    let primary_addr = primary.addr().to_string();
    let follower_a = start_follower(&primary_addr, None, |config| {
        config.admin_token = Some("sekrit".to_string());
    });
    let follower_b = start_follower(&primary_addr, None, |config| {
        config.admin_token = Some("sekrit".to_string());
    });

    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for k in 500..505 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'pre-failover')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let target = stat_u64(&client.send("STATS").expect("STATS"), "end=");

    let mut a = Client::connect(follower_a.addr()).expect("connect follower a");
    let mut b = Client::connect(follower_b.addr()).expect("connect follower b");
    wait_for_offset(&mut a, target);
    wait_for_offset(&mut b, target);

    // The primary dies for real; the surviving tailers' fetches fail and
    // the `retries=` gauge starts counting (with capped backoff behind
    // it — asserted by the deadline staying comfortable).
    primary.shutdown();
    primary.join();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = b.send("STATS").expect("STATS");
        if stat_u64(&stats, "retries=") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no retry counted: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    }

    assert_eq!(a.send("AUTH sekrit").expect("AUTH"), "OK AUTH");
    assert_eq!(
        a.send("PROMOTE").expect("PROMOTE"),
        format!("OK PROMOTED epoch=1 end={target}")
    );

    // RETARGET is an admin verb with a usage line; the happy path swaps
    // the upstream and acknowledges it.
    assert_eq!(
        b.send("RETARGET").expect("RETARGET"),
        "ERR DENIED RETARGET requires AUTH on this server"
    );
    assert_eq!(b.send("AUTH sekrit").expect("AUTH"), "OK AUTH");
    assert_eq!(
        b.send("RETARGET").expect("RETARGET"),
        "ERR REPL usage: RETARGET <host:port>"
    );
    let new_primary = follower_a.addr().to_string();
    assert_eq!(
        b.send(&format!("RETARGET {new_primary}"))
            .expect("RETARGET"),
        format!("OK RETARGET {new_primary}")
    );

    // A post-failover write on the new primary reaches the retargeted
    // survivor, byte for byte.
    let reply = a
        .send("INSERT Event(505, 'post-failover')")
        .expect("insert");
    assert!(reply.starts_with("OK INSERT "), "{reply}");
    let stats = wait_for_offset(&mut b, target + 1);
    assert!(stats.contains("role=follower"), "{stats}");
    assert!(stat_u64(&stats, "retries=") >= 1, "{stats}");
    assert_eq!(battery_replies(&mut a), battery_replies(&mut b));

    follower_b.shutdown();
    assert_eq!(follower_b.join().recovered_panics, 0);
    follower_a.shutdown();
    assert_eq!(follower_a.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: re-bootstrap over the binary snapshot path.  A follower
/// whose cursor predates the primary's snapshot horizon is told
/// `ERR REPL COMPACTED`; the tailer then restarts itself from
/// `REPL SNAPSHOT` and catches up byte-identically.
#[test]
fn a_stale_follower_rebootstraps_through_the_binary_snapshot() {
    let dir = temp_log_dir("rebootstrap");
    let primary = start_primary(&dir, None);
    let primary_addr = primary.addr().to_string();
    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for k in 800..804 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'pre-compact')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }

    // Bootstrap the follower at the primary's pre-compaction snapshot
    // (offset 0) but do not serve it yet: its cursor stays put.
    let backend =
        ReplicatedBackend::follower(&primary_addr, None, |engine| engine).expect("bootstrap");
    let bootstrap_bytes = stat_u64(&backend.stats(), "bytes=");

    // Compact, then cold-restart the primary: the records behind the new
    // snapshot are gone from its in-memory window, so the stale cursor
    // will draw `ERR REPL COMPACTED`.
    let reply = client.send("COMPACT").expect("COMPACT");
    assert!(reply.starts_with("OK COMPACTED "), "{reply}");
    assert_eq!(client.send("SHUTDOWN").expect("SHUTDOWN"), "OK SHUTDOWN");
    primary.join();
    let primary = start_primary(&dir, None);
    let mut client = Client::connect(primary.addr()).expect("connect primary");
    let hello = client.send("REPL HELLO").expect("HELLO");
    let base = stat_u64(&hello, "base=");
    assert!(base > 0, "the restart recovered from the snapshot: {hello}");
    let reply = client.send("REPL FETCH 0 8").expect("FETCH");
    assert!(reply.starts_with("ERR REPL COMPACTED "), "{reply}");
    for k in 804..806 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'post-compact')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let target = stat_u64(&client.send("STATS").expect("STATS"), "end=");
    let primary_battery = battery_replies(&mut client);
    let new_addr = primary.addr().to_string();

    // Serve the stale follower and point it at the restarted primary;
    // the tailer re-bootstraps from the post-compaction snapshot.
    let follower = Server::start_replicated(backend, test_config()).expect("bind follower");
    let mut reader = Client::connect(follower.addr()).expect("connect follower");
    assert_eq!(
        reader
            .send(&format!("RETARGET {new_addr}"))
            .expect("RETARGET"),
        format!("OK RETARGET {new_addr}")
    );
    let stats = wait_for_offset(&mut reader, target);
    assert_eq!(
        stat_u64(&stats, "base="),
        base,
        "re-bootstrapped from the post-compaction snapshot: {stats}"
    );
    assert!(
        stat_u64(&stats, "bytes=") > bootstrap_bytes,
        "the re-bootstrap counted its feed bytes: {stats}"
    );
    assert_eq!(
        battery_replies(&mut reader),
        primary_battery,
        "battery diverged after re-bootstrap"
    );
    follower.shutdown();
    assert_eq!(follower.join().recovered_panics, 0, "tailer never panics");

    primary.shutdown();
    assert_eq!(primary.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: `--rate-limit N` is a per-connection token bucket with a
/// deterministic refusal — the N+1-th command inside the burst window
/// draws exactly `ERR BUSY RATE LIMITED`, an open `BATCH` is aborted,
/// and blank/comment lines are never charged.
#[test]
fn rate_limit_draws_deterministic_busy_and_aborts_the_batch() {
    let (db, keys) = employee_example();
    let mut config = test_config();
    config.rate_limit = Some(2);
    let server = Server::start(RepairEngine::new(db, keys), config).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Two tokens: BATCH opens (1), the collected mutation spends (2) —
    // the END that would commit is refused with the exact busy reply.
    client.send_line("BATCH").expect("open batch");
    client
        .send_line("INSERT Employee(2, 'Eve', 'Finance')")
        .expect("collect");
    assert_eq!(client.send("END").expect("END"), "ERR BUSY RATE LIMITED");

    // The throttle aborted the open batch: once the bucket refills, END
    // has no batch to commit, and the collected INSERT never applied.
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        client.send("END").expect("END after refill"),
        "ERR BATCH END without an open BATCH"
    );
    std::thread::sleep(Duration::from_millis(1200));
    let reply = client.send("STATS").expect("STATS");
    assert!(
        reply.starts_with("OK STATS facts=4 "),
        "the aborted batch left the engine untouched: {reply}"
    );

    // Blank and comment lines are free: after a full refill (2 tokens),
    // a pile of comments followed by two commands still fits the budget.
    std::thread::sleep(Duration::from_millis(1200));
    for _ in 0..8 {
        client.send_line("# not charged").expect("comment");
        client.send_line("").expect("blank");
    }
    let reply = client.send("COUNT auto EXISTS n . Employee(2, n, 'IT')");
    assert!(reply.expect("query").starts_with("OK COUNT 4 "));
    assert!(client.send("STATS").expect("STATS").starts_with("OK STATS"));
    assert_eq!(
        client.send("STATS").expect("STATS"),
        "ERR BUSY RATE LIMITED"
    );

    // The limiter is per-connection: a fresh session has its own bucket.
    let mut other = Client::connect(server.addr()).expect("connect");
    assert!(other.send("STATS").expect("STATS").starts_with("OK STATS"));

    // Replication verbs on a non-replicated server are a reply, too
    // (after a refill tick — the fresh bucket holds two tokens).
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        other.send("REPL HELLO").expect("REPL"),
        "ERR REPL replication is not enabled on this server"
    );
    assert_eq!(
        other.send("PROMOTE").expect("PROMOTE"),
        "ERR REPL replication is not enabled on this server"
    );

    server.shutdown();
    let stats = server.join();
    assert!(stats.busy_rejections >= 2, "both refusals were counted");
    assert_eq!(stats.recovered_panics, 0);
}

/// Regression: `PROMOTE FORCE` is the catch-up escape hatch.  A
/// follower stranded behind an upstream that died before serving its
/// acknowledged tail refuses a plain `PROMOTE` forever — FORCE promotes
/// anyway and reports the accepted loss as `dropped=<n>`.
#[test]
fn promote_force_overrides_the_behind_refusal() {
    let dir = temp_log_dir("force");
    let primary = start_primary(&dir, None);
    let primary_addr = primary.addr().to_string();
    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for k in 600..604 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'pre-snap')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let reply = client.send("COMPACT").expect("COMPACT");
    assert!(reply.starts_with("OK COMPACTED "), "{reply}");
    for k in 604..606 {
        let reply = client
            .send(&format!("INSERT Event({k}, 'post-snap')"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let hello = client.send("REPL HELLO").expect("HELLO");
    let snap = stat_u64(&hello, "snap=");
    let end = stat_u64(&hello, "end=");
    assert!(end > snap, "mutations landed after the snapshot: {hello}");

    // Bootstrap a follower, then kill the upstream before the tailer can
    // fetch the post-snapshot suffix: the records are gone for good.
    let backend =
        ReplicatedBackend::follower(&primary_addr, None, |engine| engine).expect("bootstrap");
    primary.shutdown();
    primary.join();
    let mut config = test_config();
    config.admin_token = Some("sekrit".to_string());
    let stranded = Server::start_replicated(backend, config).expect("bind follower");
    let mut surviving = Client::connect(stranded.addr()).expect("connect follower");
    assert_eq!(surviving.send("AUTH sekrit").expect("AUTH"), "OK AUTH");

    // The refusal is deterministic, a malformed operand is an error, and
    // FORCE promotes at the replicated offset, reporting the loss.
    assert_eq!(
        surviving.send("PROMOTE").expect("PROMOTE"),
        format!("ERR REPL BEHIND end={snap} upstream={end}")
    );
    assert_eq!(
        surviving.send("PROMOTE NOW PLEASE").expect("PROMOTE"),
        "ERR REPL usage: PROMOTE [FORCE]"
    );
    assert_eq!(
        surviving.send("PROMOTE FORCE").expect("PROMOTE FORCE"),
        format!("OK PROMOTED epoch=1 end={snap} dropped={}", end - snap)
    );
    let stats = surviving.send("STATS").expect("STATS");
    assert!(stats.contains(" | repl role=primary epoch=1 "), "{stats}");
    let reply = surviving
        .send("INSERT Event(607, 'post-force')")
        .expect("insert");
    assert!(reply.starts_with("OK INSERT "), "{reply}");

    stranded.shutdown();
    assert_eq!(stranded.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: the fencing bite of `REPL HELLO epoch=<n>` is as
/// destructive as `PROMOTE` (it stops all writes, monotonically), so on
/// a server that gates admin verbs it must be gated too — otherwise any
/// unauthenticated client could halt the primary with one line.
#[test]
fn fencing_over_the_wire_requires_auth() {
    let dir = temp_log_dir("fence-auth");
    let backend = ReplicatedBackend::primary(churn_engine(), &dir).expect("fresh primary");
    let mut config = test_config();
    config.admin_token = Some("sekrit".to_string());
    let primary = Server::start_replicated(backend, config).expect("bind primary");
    let mut client = Client::connect(primary.addr()).expect("connect");

    // Probe forms stay open to unauthenticated sessions.
    let hello = client.send("REPL HELLO").expect("HELLO");
    assert!(hello.starts_with("OK REPL HELLO "), "{hello}");
    let hello = client.send("REPL HELLO epoch=0").expect("HELLO");
    assert!(hello.starts_with("OK REPL HELLO "), "{hello}");

    // A fencing announcement without AUTH is refused and leaves the
    // primary serving writes.
    assert_eq!(
        client.send("REPL HELLO epoch=9").expect("HELLO"),
        "ERR DENIED REPL HELLO epoch=9 would fence this primary and requires AUTH \
         on this server"
    );
    let reply = client
        .send("INSERT Event(700, 'still-writable')")
        .expect("insert");
    assert!(reply.starts_with("OK INSERT "), "{reply}");
    let stats = client.send("STATS").expect("STATS");
    assert!(!stats.contains("fenced="), "{stats}");

    // The same announcement after AUTH fences: writes refuse, reads flow.
    assert_eq!(client.send("AUTH sekrit").expect("AUTH"), "OK AUTH");
    let hello = client.send("REPL HELLO epoch=9").expect("HELLO");
    assert!(hello.ends_with("fenced=9"), "{hello}");
    assert_eq!(
        client
            .send("INSERT Event(701, 'split-brain')")
            .expect("insert"),
        "ERR FENCED epoch=9 INSERT refused; a newer primary was promoted"
    );
    assert!(client.send("STATS").expect("STATS").contains("fenced=9"));

    primary.shutdown();
    assert_eq!(primary.join().recovered_panics, 0);
    std::fs::remove_dir_all(&dir).ok();
}
