//! The three socket workloads.  Each runs against real `cdr-serve`
//! processes (or, in the self-tests, an in-process `Server`) and checks
//! every reply against the in-process `Oracle` after the timed part.

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cdr_core::{encode_bulk, RepairEngine};
use cdr_repairdb::Mutation;
use cdr_server::Oracle;

use crate::gen::{self, Class, Write as GenWrite};
use crate::net::{fresh_dir, read_reply, work_dir, Conn, ServerProc};
use crate::stats::{ms, us, Tracer};

/// Offered rate of the open-loop churn stream, in ops/s.  On the 2-core
/// reference host one pipelined connection saturates near 60 000 ops/s,
/// and at 30 000 some runs already build a backlog; this is half that.
pub const CHURN_RATE: f64 = 15_000.0;

/// What a timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    /// Open loop: send time minus scheduled time.  Closed loop: the
    /// generator's turnaround from a reply to its next send.
    pub late_ms: Vec<f64>,
    pub ops: u64,
    /// Completion time of each op, in seconds from the phase start, sorted.
    pub done_s: Vec<f64>,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub rss_mib: f64,
    /// `STATS` round trips on the quiesced server, in µs.
    pub rtt_us: Vec<f64>,
    /// Follower feed bytes per replicated record (ingest only).
    pub feed_bytes_per_record: Option<f64>,
    /// Lines of the read and write streams the phase consumed, in order.
    pub reads_done: usize,
    pub writes_done: usize,
    pub mismatches: Vec<String>,
}

impl Phase {
    fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }

    fn expect_eq(&mut self, what: &str, got: &str, want: &str) {
        self.attempted += 1;
        if got != want {
            self.mismatch(format!("{what}: got `{got}`, want `{want}`"));
        }
    }
}

/// How a run reaches `cdr-serve`.
pub struct Env {
    pub bin: PathBuf,
    pub seconds: f64,
    pub seed: u64,
}

pub fn churn_args() -> Vec<String> {
    args(&[
        "--scenario",
        "churn",
        "--auto-compact",
        &gen::CHURN_AUTO_COMPACT.to_string(),
    ])
}

pub fn sensors_args() -> Vec<String> {
    let (s, t, d) = gen::SENSORS_BASE;
    args(&[
        "--scenario",
        "sensors",
        "--sensors",
        &s.to_string(),
        "--ticks",
        &t.to_string(),
        "--dups",
        &d.to_string(),
    ])
}

pub fn ingest_primary_args(dir: &Path) -> Vec<String> {
    let (s, t, d) = gen::INGEST_BASE;
    let mut out = args(&[
        "--scenario",
        "sensors",
        "--sensors",
        &s.to_string(),
        "--ticks",
        &t.to_string(),
        "--dups",
        &d.to_string(),
    ]);
    out.extend(["--log-dir".to_string(), dir.display().to_string()]);
    out
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn spawn(env: &Env, args: &[String], name: &str) -> io::Result<ServerProc> {
    ServerProc::spawn(&env.bin, args, &work_dir()?.join(format!("{name}.log")))
}

/// Boots a single server, recording its set-up time.
fn boot_single(
    env: &Env,
    args: &[String],
    name: &str,
    phase: &mut Phase,
) -> io::Result<ServerProc> {
    let server = spawn(env, args, name)?;
    phase.setup_s = server.boot.as_secs_f64();
    Ok(server)
}

fn quiesced_rtt(addr: &str, phase: &mut Phase) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    for _ in 0..500 {
        let started = Instant::now();
        conn.request("STATS")?;
        phase.rtt_us.push(us(started.elapsed()));
    }
    Ok(())
}

fn gen_of(reply: &str) -> Option<u64> {
    gen::field_u64(reply, "gen")
}

/// Read-your-writes lag on one node: for each write ack `(time, gen)`,
/// the wait until the reply to the first read *sent* after the ack, which
/// must cover the write.  `reads` are `(sent, received, gen)` in send
/// order.  A read already in flight at the ack does not count: on a
/// pipelined connection its reply trails the ack by the queue, not by
/// any visibility delay.
fn read_your_writes_lag(
    writes: &[(Instant, u64)],
    reads: &[(Instant, Instant, u64)],
    phase: &mut Phase,
) {
    let mut j = 0;
    for &(acked, gen) in writes {
        while j < reads.len() && reads[j].0 < acked {
            j += 1;
        }
        if let Some(&(_, at, seen)) = reads.get(j) {
            phase.lag_ms.push(ms(at - acked));
            phase.attempted += 1;
            if seen < gen {
                phase.mismatch(format!(
                    "a read sent after the ack of gen={gen} answered gen={seen}"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- churn

/// The raw result of one open-loop stream on one pipelined connection.
pub struct OpenLoop {
    pub start: Instant,
    pub period: Duration,
    pub sent: Vec<Instant>,
    pub sent_end: Vec<Instant>,
    pub recv: Vec<Instant>,
    pub replies: Vec<String>,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl OpenLoop {
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period.mul_f64(i as f64)
    }

    /// Latency of op `i` from its scheduled send time, in ms.
    pub fn latency_from_schedule_ms(&self, i: usize) -> f64 {
        ms(self.recv[i].saturating_duration_since(self.due(i)))
    }
}

/// Sends `lines` on one connection at `rate` ops/s regardless of replies
/// (a sender thread) while a receiver thread timestamps each reply.  Ops
/// that fall due while the sender is behind go out in one write.
pub fn open_loop(addr: &str, lines: &[String], rate: f64) -> io::Result<OpenLoop> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let n = lines.len();
    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> io::Result<(Vec<Instant>, Vec<Instant>, u64)> {
            let mut sent = Vec::with_capacity(n);
            let mut sent_end = Vec::with_capacity(n);
            let mut bytes = 0u64;
            let mut buf = Vec::new();
            let mut i = 0;
            while i < n {
                let due = start + period.mul_f64(i as f64);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    continue;
                }
                buf.clear();
                let first = i;
                while i < n && start + period.mul_f64(i as f64) <= now {
                    buf.extend_from_slice(lines[i].as_bytes());
                    buf.push(b'\n');
                    i += 1;
                }
                let began = Instant::now();
                writer.write_all(&buf)?;
                let ended = Instant::now();
                bytes += buf.len() as u64;
                sent.extend(std::iter::repeat_n(began, i - first));
                sent_end.extend(std::iter::repeat_n(ended, i - first));
            }
            Ok((sent, sent_end, bytes))
        });
        let mut recv = Vec::with_capacity(n);
        let mut replies = Vec::with_capacity(n);
        let mut bytes_in = 0u64;
        let mut error = None;
        for _ in 0..n {
            match read_reply(&mut reader, &mut bytes_in) {
                Ok(line) => {
                    recv.push(Instant::now());
                    replies.push(line);
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        let sent = sender.join().expect("the sender thread does not panic");
        (sent, (recv, replies, bytes_in, error))
    });
    let (sent, sent_end, bytes_out) = sent?;
    let (recv, replies, bytes_in, error) = received;
    if let Some(e) = error {
        return Err(e);
    }
    Ok(OpenLoop {
        start,
        period,
        sent,
        sent_end,
        recv,
        replies,
        bytes_out,
        bytes_in,
    })
}

pub fn churn(env: &Env, mut tracer: Option<&mut Tracer>) -> io::Result<(Phase, Vec<String>)> {
    let mut phase = Phase::default();
    let lines = gen::churn_stream(env.seed, (CHURN_RATE * env.seconds) as usize);
    let server = boot_single(env, &churn_args(), "churn", &mut phase)?;
    let run = open_loop(&server.addr, &lines, CHURN_RATE);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            phase.attempted = lines.len() as u64;
            phase.failed = lines.len() as u64;
            phase
                .mismatches
                .push(format!("churn connection failed: {e}"));
            return Ok((phase, lines));
        }
    };
    phase.done_s = run
        .recv
        .iter()
        .map(|t| (*t - run.start).as_secs_f64())
        .collect();
    phase.ops = lines.len() as u64;
    phase.bytes_out = run.bytes_out;
    phase.bytes_in = run.bytes_in;
    let mut acks = Vec::new();
    let mut seen = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let latency = run.latency_from_schedule_ms(i);
        phase
            .late_ms
            .push(ms(run.sent[i].saturating_duration_since(run.due(i))));
        let gen = gen_of(&run.replies[i]).unwrap_or(0);
        match gen::class_of(line) {
            Class::Read => {
                phase.read_ms.push(latency);
                seen.push((run.sent[i], run.recv[i], gen));
            }
            Class::Write => {
                phase.write_ms.push(latency);
                acks.push((run.recv[i], gen));
            }
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            let op = tracer.record("socket.op", run.due(i), run.recv[i], None, i as u64);
            tracer.record("harness.late", run.due(i), run.sent[i], Some(op), i as u64);
            tracer.record(
                "client.send",
                run.sent[i],
                run.sent_end[i],
                Some(op),
                i as u64,
            );
        }
    }
    read_your_writes_lag(&acks, &seen, &mut phase);
    quiesced_rtt(&server.addr, &mut phase)?;
    phase.rss_mib = server.peak_rss_mib();
    if !server.shutdown() {
        phase.mismatch("churn server did not shut down cleanly".to_string());
    }
    phase.reads_done = lines.len();
    phase.writes_done = lines.len();

    let (db, keys) = gen::churn_data();
    let mut oracle =
        Oracle::new(RepairEngine::new(db, keys)).with_auto_compact(gen::CHURN_AUTO_COMPACT);
    for (i, line) in lines.iter().enumerate() {
        let want = oracle.feed(line).join("\n");
        phase.expect_eq(&format!("churn op {i} `{line}`"), &run.replies[i], &want);
    }
    Ok((phase, lines))
}

// -------------------------------------------------------------- sensors

/// The sensors streams: a pre-generated writer stream and reader stream.
pub struct SensorStreams {
    pub writes: Vec<GenWrite>,
    pub think: Vec<Duration>,
    pub reads: Vec<String>,
}

/// Sensors reads per second of `--seconds`: the fixed read count takes
/// about 85% of `--seconds` on the reference host.
pub const SENSORS_READS_PER_S: f64 = 220.0;
/// The sensors writer's mean think time between an ack and its next
/// write.  On the reference host the writer then finishes its quarter of
/// the reader's op count while the reader is still running, so every
/// write can be covered by a later read (`lag_*`).
pub const WRITE_THINK: Duration = Duration::from_millis(9);

pub fn sensor_streams(env: &Env) -> SensorStreams {
    let reads = (env.seconds * SENSORS_READS_PER_S) as usize;
    let writes = reads / gen::READS_PER_WRITE;
    SensorStreams {
        writes: gen::sensors_writes(env.seed, writes),
        think: gen::think_times(env.seed, writes, WRITE_THINK),
        reads: gen::sensors_reads(env.seed, reads),
    }
}

/// Runs the sensors streams: a closed-loop reader and a closed-loop
/// writer with seeded exponential think times, each with a fixed op count.  `with_reader`
/// false replays the writer alone.  Twice `--seconds` caps the run.
pub fn sensors(
    env: &Env,
    streams: &SensorStreams,
    with_reader: bool,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let server = boot_single(env, &sensors_args(), "sensors", &mut phase)?;
    let deadline = Instant::now() + Duration::from_secs_f64(2.0 * env.seconds);
    let started = Instant::now();
    type Timed = Vec<(Instant, Instant, String)>;
    let closed_loop = |lines: &mut dyn Iterator<Item = &String>,
                       think: &[Duration]|
     -> io::Result<(Timed, Conn)> {
        let mut conn = Conn::connect(&server.addr)?;
        let mut out = Vec::new();
        for (i, line) in lines.enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let sent = Instant::now();
            let reply = conn.request(line)?;
            out.push((sent, Instant::now(), reply));
            if let Some(pause) = think.get(i) {
                std::thread::sleep(*pause);
            }
        }
        Ok((out, conn))
    };
    let (writer_out, reader_out) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let take = if with_reader { streams.reads.len() } else { 0 };
            closed_loop(&mut streams.reads.iter().take(take), &[])
        });
        let writer = scope
            .spawn(|| closed_loop(&mut streams.writes.iter().map(|w| &w.line), &streams.think));
        let w = writer.join().expect("the writer thread does not panic");
        let r = reader.join().expect("the reader thread does not panic");
        (w, r)
    });
    let (writes, wconn) = writer_out?;
    let (reads, rconn) = reader_out?;
    phase.done_s = writes
        .iter()
        .chain(&reads)
        .map(|(_, done, _)| (*done - started).as_secs_f64())
        .collect();
    phase.done_s.sort_by(f64::total_cmp);
    phase.writes_done = writes.len();
    phase.reads_done = reads.len();
    phase.ops = (writes.len() + reads.len()) as u64;
    phase.bytes_out = wconn.bytes_out + rconn.bytes_out;
    phase.bytes_in = wconn.bytes_in + rconn.bytes_in;
    let mut acks = Vec::new();
    // The writer thinks between writes by design, so only the reader's
    // turnaround counts as generator lateness here.
    for (i, (sent, done, reply)) in writes.iter().enumerate() {
        phase.write_ms.push(ms(*done - *sent));
        acks.push((*done, gen_of(reply).unwrap_or(0)));
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("socket.op", *sent, *done, None, i as u64);
        }
    }
    let mut seen = Vec::new();
    let mut prev_done: Option<Instant> = None;
    for (i, (sent, done, reply)) in reads.iter().enumerate() {
        phase.read_ms.push(ms(*done - *sent));
        if let Some(prev) = prev_done {
            phase.late_ms.push(ms(*sent - prev));
        }
        prev_done = Some(*done);
        seen.push((*sent, *done, gen_of(reply).unwrap_or(0)));
        phase.attempted += 1;
        if !reply.starts_with("OK ") {
            phase.mismatch(format!(
                "sensors read `{}` answered `{reply}`",
                streams.reads[i]
            ));
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("socket.op", *sent, *done, None, (1 << 32) + i as u64);
        }
    }
    read_your_writes_lag(&acks, &seen, &mut phase);

    // Verification: writer replies against an Oracle fed the writer
    // stream, then a read battery on the quiesced server.  Each battery
    // runs twice and the second pass is compared, so plan-cache
    // provenance (`cached=1`) agrees whatever the reader left cached.
    let (db, keys) = gen::sensors_data();
    let mut oracle = Oracle::new(RepairEngine::new(db, keys));
    for (i, (_, _, reply)) in writes.iter().enumerate() {
        let line = &streams.writes[i].line;
        let want = oracle.feed(line).join("\n");
        phase.expect_eq(&format!("sensors write {i} `{line}`"), reply, &want);
    }
    let (s, t, _) = gen::SENSORS_BASE;
    let battery = gen::reading_battery(s, t);
    let mut conn = Conn::connect(&server.addr)?;
    let got = battery_passes(&mut conn, &battery, 2)?;
    let want = battery_passes_oracle(&mut oracle, &battery, 2);
    for ((line, got), want) in battery.iter().zip(&got).zip(&want) {
        phase.expect_eq(&format!("sensors battery `{line}`"), got, want);
    }
    let got = conn.request("STATS")?;
    let want = oracle.feed("STATS").join("\n");
    phase.expect_eq(
        "sensors final STATS head",
        gen::stats_head(&got),
        gen::stats_head(&want),
    );
    drop(conn);
    quiesced_rtt(&server.addr, &mut phase)?;
    phase.rss_mib = server.peak_rss_mib();
    if !server.shutdown() {
        phase.mismatch("sensors server did not shut down cleanly".to_string());
    }
    Ok(phase)
}

/// Runs a battery `passes` times and returns the last pass.
fn battery_passes(conn: &mut Conn, battery: &[String], passes: usize) -> io::Result<Vec<String>> {
    for _ in 1..passes {
        for line in battery {
            conn.request(line)?;
        }
    }
    battery.iter().map(|line| conn.request(line)).collect()
}

fn battery_passes_oracle(oracle: &mut Oracle, battery: &[String], passes: usize) -> Vec<String> {
    for _ in 1..passes {
        for line in battery {
            oracle.feed(line);
        }
    }
    battery
        .iter()
        .map(|line| oracle.feed(line).join("\n"))
        .collect()
}

// --------------------------------------------------------------- ingest

/// The ingest writer stream as `BULK` frames.
pub struct IngestStreams {
    pub writes: Vec<GenWrite>,
    pub frames: Vec<Vec<u8>>,
}

/// Pause between follower `STATS` polls: a `STATS` reply renders the
/// ~350-digit repair total, so tighter polling would steal CPU from the
/// servers on a 2-core host.  Lag is resolved to this pause.
const POLL_PAUSE: Duration = Duration::from_millis(5);

/// Ingest `BULK` frames per second of `--seconds`: the fixed frame count
/// takes about 80% of `--seconds` on the reference host.
pub const INGEST_FRAMES_PER_S: f64 = 55.0;

pub fn ingest_streams(env: &Env) -> IngestStreams {
    let ops = (env.seconds * INGEST_FRAMES_PER_S).ceil() as usize * gen::FRAME_OPS;
    let writes = gen::ingest_writes(env.seed, ops);
    let (db, _) = gen::ingest_data();
    let frames = writes
        .chunks(gen::FRAME_OPS)
        .map(|chunk| {
            let mutations: Vec<Mutation> = chunk.iter().map(|w| w.mutation.clone()).collect();
            encode_bulk(&db, &mutations)
        })
        .collect();
    IngestStreams { writes, frames }
}

fn stats_end(conn: &mut Conn) -> io::Result<u64> {
    let stats = conn.request("STATS")?;
    gen::field_u64(&stats, "end")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no end= in `{stats}`")))
}

/// Polls the follower until its log end reaches `end`.
fn await_end(follower: &mut Conn, end: u64, within: Duration) -> io::Result<()> {
    let deadline = Instant::now() + within;
    while stats_end(follower)? < end {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "follower did not catch up",
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// A primary and, unless `alone`, a follower bootstrapped to parity.
pub struct IngestServers {
    pub primary: ServerProc,
    pub follower: Option<ServerProc>,
    pub base_end: u64,
    pub base_feed_bytes: u64,
}

pub fn boot_ingest(env: &Env, alone: bool) -> io::Result<(IngestServers, f64)> {
    let started = Instant::now();
    let dir = fresh_dir("ingest-log")?;
    let primary = spawn(env, &ingest_primary_args(&dir), "ingest-primary")?;
    let base_end = stats_end(&mut Conn::connect(&primary.addr)?)?;
    let mut follower = None;
    let mut base_feed_bytes = 0;
    if !alone {
        let proc = spawn(env, &args(&["--follow", &primary.addr]), "ingest-follower")?;
        let mut conn = Conn::connect(&proc.addr)?;
        await_end(&mut conn, base_end, Duration::from_secs(60))?;
        base_feed_bytes = gen::field_u64(&conn.request("STATS")?, "bytes").unwrap_or(0);
        follower = Some(proc);
    }
    let setup = started.elapsed().as_secs_f64();
    Ok((
        IngestServers {
            primary,
            follower,
            base_end,
            base_feed_bytes,
        },
        setup,
    ))
}

fn shutdown_ingest(servers: IngestServers, phase: &mut Phase) {
    let mut rss = servers.primary.peak_rss_mib();
    let mut clean = servers.primary.shutdown();
    if let Some(follower) = servers.follower {
        rss += follower.peak_rss_mib();
        clean &= follower.shutdown();
    }
    phase.rss_mib = rss;
    if !clean {
        phase.mismatch("an ingest server did not shut down cleanly".to_string());
    }
}

/// One closed-loop `BULK` writer on the primary with a fixed frame count;
/// unless `alone`, a second connection polls the follower's `STATS` and
/// times, for every acked frame, how long until the follower's `end=`
/// covers it.  Twice `--seconds` caps the run.
pub fn ingest(
    env: &Env,
    streams: &IngestStreams,
    alone: bool,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let (servers, setup) = boot_ingest(env, alone)?;
    phase.setup_s = setup;
    let deadline = Instant::now() + Duration::from_secs_f64(2.0 * env.seconds);
    let acked: Mutex<VecDeque<(u64, Instant)>> = Mutex::new(VecDeque::new());
    let writing = AtomicBool::new(true);
    let started = Instant::now();
    type Frames = Vec<(Instant, Instant, Instant, Vec<String>)>;
    type Polls = Vec<(Instant, Instant)>;
    let (writer_out, poller_out) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> io::Result<(Frames, Conn)> {
            let result = (|| {
                let mut conn = Conn::connect(&servers.primary.addr)?;
                let mut out = Vec::new();
                let mut last = None;
                let mut end = servers.base_end;
                for (k, frame) in streams.frames.iter().enumerate() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let ops = gen::FRAME_OPS.min(streams.writes.len() - k * gen::FRAME_OPS);
                    let sent = Instant::now();
                    let replies = conn.bulk(frame, ops)?;
                    let done = Instant::now();
                    end += ops as u64;
                    acked.lock().expect("ack queue lock").push_back((end, done));
                    out.push((last.unwrap_or(sent), sent, done, replies));
                    last = Some(done);
                }
                Ok((out, conn))
            })();
            writing.store(false, Ordering::SeqCst);
            result
        });
        let poller = scope.spawn(|| -> io::Result<(Polls, Vec<f64>, Conn)> {
            let Some(follower) = &servers.follower else {
                return Ok((
                    Vec::new(),
                    Vec::new(),
                    Conn::connect(&servers.primary.addr)?,
                ));
            };
            let mut conn = Conn::connect(&follower.addr)?;
            let mut polls = Vec::new();
            let mut lag = Vec::new();
            let catch_up = Duration::from_secs(30);
            let mut idle_since = None;
            loop {
                let sent = Instant::now();
                let end = stats_end(&mut conn)?;
                let done = Instant::now();
                polls.push((sent, done));
                let mut queue = acked.lock().expect("ack queue lock");
                while queue.front().is_some_and(|(pos, _)| *pos <= end) {
                    let (_, at) = queue.pop_front().expect("front exists");
                    lag.push(ms(done.saturating_duration_since(at)));
                }
                let drained = queue.is_empty();
                drop(queue);
                if !writing.load(Ordering::SeqCst) && drained {
                    break;
                }
                if !writing.load(Ordering::SeqCst) {
                    let since = *idle_since.get_or_insert(done);
                    if done - since > catch_up {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "follower lag never drained",
                        ));
                    }
                }
                std::thread::sleep(POLL_PAUSE);
            }
            Ok((polls, lag, conn))
        });
        let w = writer.join().expect("the writer thread does not panic");
        let p = poller.join().expect("the poller thread does not panic");
        (w, p)
    });
    let (frames, wconn) = writer_out?;
    for (_, _, done, replies) in &frames {
        let at = (*done - started).as_secs_f64();
        phase.done_s.extend(std::iter::repeat_n(at, replies.len()));
    }
    let (polls, lag, pconn) = poller_out?;
    phase.lag_ms = lag;
    phase.writes_done = frames.len();
    let ops: usize = frames.iter().map(|f| f.3.len()).sum();
    phase.ops = ops as u64;
    phase.reads_done = polls.len();
    phase.bytes_out = wconn.bytes_out + pconn.bytes_out;
    phase.bytes_in = wconn.bytes_in + pconn.bytes_in;
    for (i, (prev, sent, done, _)) in frames.iter().enumerate() {
        phase.write_ms.push(ms(*done - *sent));
        phase.late_ms.push(ms(*sent - *prev));
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("socket.op", *sent, *done, None, i as u64);
        }
    }
    for (i, (sent, done)) in polls.iter().enumerate() {
        phase.read_ms.push(ms(*done - *sent));
        phase.attempted += 1;
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.record("socket.op", *sent, *done, None, (1 << 32) + i as u64);
        }
    }

    // Verification: every frame reply against the Oracle, then (after
    // catch-up) follower and primary batteries byte-identical, and the
    // primary's final STATS head equal to the Oracle's.
    let (db, keys) = gen::ingest_data();
    let mut oracle = Oracle::new(RepairEngine::new(db, keys));
    for (k, (_, _, _, replies)) in frames.iter().enumerate() {
        let want = oracle.feed_bulk(&streams.frames[k]);
        for (j, (got, want)) in replies.iter().zip(&want).enumerate() {
            phase.expect_eq(&format!("ingest frame {k} op {j}"), got, want);
        }
        if replies.len() != want.len() {
            phase.mismatch(format!(
                "ingest frame {k}: {} replies, want {}",
                replies.len(),
                want.len()
            ));
        }
    }
    let mut primary = Conn::connect(&servers.primary.addr)?;
    let (sensors, ticks, _) = gen::INGEST_BASE;
    let battery = gen::reading_battery(sensors, ticks);
    // Neither node served a read before, so one pass compares like with
    // like.
    let primary_battery = battery_passes(&mut primary, &battery, 1)?;
    let got = primary.request("STATS")?;
    let primary_end = gen::field_u64(&got, "end").unwrap_or(0);
    let want = oracle.feed("STATS").join("\n");
    phase.expect_eq(
        "ingest primary STATS head",
        gen::stats_head(&got),
        gen::stats_head(&want),
    );
    if let Some(follower) = &servers.follower {
        let mut conn = Conn::connect(&follower.addr)?;
        await_end(&mut conn, primary_end, Duration::from_secs(30))?;
        let follower_battery = battery_passes(&mut conn, &battery, 1)?;
        for ((line, got), want) in battery.iter().zip(&follower_battery).zip(&primary_battery) {
            phase.expect_eq(&format!("ingest follower battery `{line}`"), got, want);
        }
        let stats = conn.request("STATS")?;
        let bytes = gen::field_u64(&stats, "bytes").unwrap_or(0);
        let records = primary_end.saturating_sub(servers.base_end);
        if records > 0 {
            phase.feed_bytes_per_record =
                Some(bytes.saturating_sub(servers.base_feed_bytes) as f64 / records as f64);
        }
    }
    drop(primary);
    quiesced_rtt(&servers.primary.addr, &mut phase)?;
    shutdown_ingest(servers, &mut phase);
    Ok(phase)
}

/// The churn writes alone, closed loop on a fresh server.
pub fn churn_writes_alone(env: &Env, writes: &[String]) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let server = boot_single(env, &churn_args(), "churn-alone", &mut phase)?;
    let mut conn = Conn::connect(&server.addr)?;
    let deadline = Instant::now() + Duration::from_secs_f64(env.seconds);
    for line in writes {
        if Instant::now() >= deadline {
            break;
        }
        let sent = Instant::now();
        let reply = conn.request(line)?;
        phase.write_ms.push(ms(sent.elapsed()));
        phase.attempted += 1;
        if !reply.starts_with("OK ") {
            phase.mismatch(format!("churn write alone `{line}` answered `{reply}`"));
        }
    }
    drop(conn);
    if !server.shutdown() {
        phase.mismatch("churn server did not shut down cleanly".to_string());
    }
    Ok(phase)
}
