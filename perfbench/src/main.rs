//! End-to-end serving benchmark for `cdr-serve`.
//!
//! ```text
//! cdr-perfbench --workload churn|sensors|ingest --seed <n> --seconds <s> --trace 0|1 --bin <cdr-serve>
//! ```
//!
//! `--trace 0` runs the workload against real server processes and prints
//! the end-to-end metrics; `--trace 1` prints the per-layer metrics of a
//! traced run instead.  The last stdout line is the JSON result.

mod e2e;
mod gen;
mod layers;
mod net;
#[cfg(test)]
mod selftest;
mod stats;

use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use e2e::{Env, Phase};
use layers::{Item, Replay};
use stats::{median, quantile, windowed_rate, Report, Tracer};

/// Sub-runs of an untraced run, each on freshly booted servers with its
/// own derived seed.  Each end-to-end metric is the median over the
/// sub-runs' figures, so a stall of the shared host that hits one sub-run
/// does not move the result, and `setup_s` is the median of 5 boots.
const SUB_RUNS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
}

fn usage(message: &str) -> ! {
    eprintln!("cdr-perfbench: {message}");
    eprintln!(
        "usage: cdr-perfbench --workload churn|sensors|ingest --seed <n> --seconds <s> --trace 0|1 --bin <cdr-serve>"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bin: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = format!("{flag}: bad value `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage(&bad)),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage(&bad)),
            "--trace" => args.trace = value == "1",
            "--bin" => args.bin = PathBuf::from(&value),
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    if !["churn", "sensors", "ingest"].contains(&args.workload.as_str()) {
        usage("--workload must be churn, sensors or ingest");
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    if !args.bin.is_file() {
        usage(&format!("no cdr-serve binary at `{}`", args.bin.display()));
    }
    args
}

/// Core count, CPU model, build profile and server configuration.
fn fingerprint(workload: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let config = match workload {
        "churn" => e2e::churn_args().join(" "),
        "sensors" => e2e::sensors_args().join(" "),
        _ => format!(
            "{} ; follower: --follow <primary>",
            e2e::ingest_primary_args(std::path::Path::new("<dir>")).join(" ")
        ),
    };
    format!(
        "{{\"cores\": {cores}, \"cpu\": \"{}\", \"profile\": \"{profile}\", \"server\": \"cdr-serve {config} (other flags default)\", \"churn_rate\": {}}}",
        cpu.replace('"', "'"),
        e2e::CHURN_RATE
    )
}

fn end_to_end(phases: &[Phase], report: &mut Report) {
    let across = |f: &dyn Fn(&Phase) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    report.put("setup_s", across(&|p| p.setup_s), "s");
    report.put("ops_per_s", across(&|p| windowed_rate(&p.done_s)), "ops/s");
    report.put("read_p50_ms", across(&|p| quantile(&p.read_ms, 0.5)), "ms");
    report.put(
        "write_p50_ms",
        across(&|p| quantile(&p.write_ms, 0.5)),
        "ms",
    );
    report.put("lag_p50_ms", across(&|p| quantile(&p.lag_ms, 0.5)), "ms");
    report.put("peak_rss_mb", across(&|p| p.rss_mib), "MiB");
}

fn print_report(title: &str, report: &Report) {
    println!("{title}");
    for m in &report.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn print_sub_runs(phases: &[Phase]) {
    for (k, p) in phases.iter().enumerate() {
        println!(
            "  sub-run {k}: read p50/p90 {:.4}/{:.4} ms (n={}), write p50/p90 {:.4}/{:.4} ms (n={}), lag p50/p90 {:.4}/{:.4} ms (n={}), {:.1} ops/s",
            quantile(&p.read_ms, 0.5),
            quantile(&p.read_ms, 0.9),
            p.read_ms.len(),
            quantile(&p.write_ms, 0.5),
            quantile(&p.write_ms, 0.9),
            p.write_ms.len(),
            quantile(&p.lag_ms, 0.5),
            quantile(&p.lag_ms, 0.9),
            p.lag_ms.len(),
            windowed_rate(&p.done_s)
        );
    }
}

fn print_phase_counts(phase: &Phase) {
    println!(
        "  attempted {}, failed {}, fail_ratio {:.6}",
        phase.attempted,
        phase.failed,
        phase.failed as f64 / phase.attempted.max(1) as f64
    );
    for m in &phase.mismatches {
        println!("  MISMATCH {m}");
    }
}

/// One socket phase of the chosen workload.
fn socket_phase(args: &Args, env: &Env, tracer: Option<&mut Tracer>) -> std::io::Result<Phase> {
    match args.workload.as_str() {
        "churn" => e2e::churn(env, tracer).map(|(phase, _)| phase),
        "sensors" => e2e::sensors(env, &e2e::sensor_streams(env), true, tracer),
        _ => e2e::ingest(env, &e2e::ingest_streams(env), false, tracer),
    }
}

fn untraced(args: &Args, env: &Env) -> std::io::Result<(Report, Phase)> {
    let mut phases = Vec::with_capacity(SUB_RUNS);
    for k in 0..SUB_RUNS {
        let sub = Env {
            bin: env.bin.clone(),
            seconds: env.seconds / SUB_RUNS as f64,
            seed: env
                .seed
                .wrapping_mul(SUB_RUNS as u64)
                .wrapping_add(k as u64),
        };
        phases.push(socket_phase(args, &sub, None)?);
    }
    let mut report = Report::default();
    end_to_end(&phases, &mut report);
    print_report(&format!("end-to-end, workload {}", args.workload), &report);
    print_sub_runs(&phases);
    let total = merge_counts(phases);
    print_phase_counts(&total);
    Ok((report, total))
}

/// The attempted and failed counts of several phases, with their mismatches.
fn merge_counts(phases: impl IntoIterator<Item = Phase>) -> Phase {
    let mut total = Phase::default();
    for phase in phases {
        total.attempted += phase.attempted;
        total.failed += phase.failed;
        total.mismatches.extend(phase.mismatches);
    }
    total
}

fn all_latencies(phase: &Phase) -> Vec<f64> {
    phase
        .read_ms
        .iter()
        .chain(&phase.write_ms)
        .copied()
        .collect()
}

/// Every per-layer metric, from the in-process replay and the socket
/// phases: `plain` (untraced), `traced`, and the writer alone.
fn per_layer(
    replay: &Replay,
    base: &(cdr_repairdb::Database, cdr_repairdb::KeySet),
    plain: &Phase,
    traced: &Phase,
    alone_write_p50: f64,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    report.put("transport.rtt_us", median(&traced.rtt_us), "us");
    replay.report(base, &mut report)?;
    let read_p50_us = quantile(&plain.read_ms, 0.5) * 1e3;
    let write_p50_us = quantile(&plain.write_ms, 0.5) * 1e3;
    let feed_read = report.get("session.feed_us.read").unwrap_or(0.0);
    let feed_write = report.get("session.feed_us.write").unwrap_or(0.0);
    report.put("transport.overhead_us.read", read_p50_us - feed_read, "us");
    report.put(
        "transport.overhead_us.write",
        write_p50_us - feed_write,
        "us",
    );
    report.put(
        "scheduler.barrier_wait_ms",
        quantile(&plain.write_ms, 0.5) - alone_write_p50,
        "ms",
    );
    report.put(
        "net.bytes_out_per_op",
        plain.bytes_out as f64 / plain.ops.max(1) as f64,
        "bytes",
    );
    report.put(
        "net.bytes_in_per_op",
        plain.bytes_in as f64 / plain.ops.max(1) as f64,
        "bytes",
    );
    if let Some(bytes) = plain.feed_bytes_per_record {
        report
            .metrics
            .retain(|m| m.name != "repl.feed_bytes_per_record");
        report.put("repl.feed_bytes_per_record", bytes, "bytes");
    }
    report.put("harness.late_p99_ms", quantile(&plain.late_ms, 0.99), "ms");
    let plain_p50 = median(&all_latencies(plain));
    let traced_p50 = median(&all_latencies(traced));
    report.put(
        "harness.tracing_overhead",
        (traced_p50 - plain_p50) / plain_p50.max(1e-9),
        "ratio",
    );
    Ok(report)
}

fn traced(args: &Args, env: &Env) -> std::io::Result<(Report, Phase)> {
    let half = Env {
        bin: env.bin.clone(),
        seconds: env.seconds / 2.0,
        seed: env.seed,
    };
    let plain = socket_phase(args, &half, None)?;
    let mut socket_tracer = Tracer::new();
    let traced = socket_phase(args, &half, Some(&mut socket_tracer))?;

    // The writer replayed alone: the engine-lock barrier is what the
    // other connection's presence adds to the writer's median.
    let alone = match args.workload.as_str() {
        "churn" => {
            let lines = gen::churn_stream(half.seed, (e2e::CHURN_RATE * half.seconds) as usize);
            let writes: Vec<String> = lines
                .into_iter()
                .filter(|l| gen::class_of(l) == gen::Class::Write)
                .collect();
            e2e::churn_writes_alone(&half, &writes)?
        }
        "sensors" => e2e::sensors(&half, &e2e::sensor_streams(&half), false, None)?,
        _ => e2e::ingest(&half, &e2e::ingest_streams(&half), true, None)?,
    };
    let alone_write_p50 = median(&alone.write_ms);

    // In-process replay of what the plain phase consumed.
    let budget = Duration::from_secs_f64(half.seconds);
    let (base, auto_compact) = match args.workload.as_str() {
        "churn" => (gen::churn_data(), Some(gen::CHURN_AUTO_COMPACT)),
        "sensors" => (gen::sensors_data(), None),
        _ => (gen::ingest_data(), None),
    };
    let mut replay = Replay::new(base.clone(), auto_compact);
    match args.workload.as_str() {
        "churn" => {
            let lines = gen::churn_stream(half.seed, plain.reads_done);
            let items: Vec<Item> = lines.iter().map(|l| Item::Line(l)).collect();
            replay.run(&items, budget);
        }
        "sensors" => {
            let streams = e2e::sensor_streams(&half);
            let mut items = Vec::new();
            let mut reads = streams.reads[..plain.reads_done].iter();
            for write in &streams.writes[..plain.writes_done] {
                items.extend(
                    reads
                        .by_ref()
                        .take(gen::READS_PER_WRITE)
                        .map(|l| Item::Line(l)),
                );
                items.push(Item::Line(&write.line));
            }
            items.extend(reads.map(|l| Item::Line(l)));
            replay.run(&items, budget);
        }
        _ => {
            let streams = e2e::ingest_streams(&half);
            let mut items = Vec::new();
            for frame in &streams.frames[..plain.writes_done] {
                items.push(Item::Frame(frame));
                items.push(Item::Line("STATS"));
            }
            let frames_done = replay.run(&items, budget).div_ceil(2);
            let ops_done = (frames_done * gen::FRAME_OPS).min(streams.writes.len());
            let lines: Vec<&str> = streams.writes[..ops_done]
                .iter()
                .map(|w| w.line.as_str())
                .collect();
            replay.parse_writes(&lines);
            let (s, t, _) = gen::INGEST_BASE;
            let battery = gen::reading_battery(s, t);
            replay.probe_engine(&battery);
        }
    }

    let report = per_layer(&replay, &base, &plain, &traced, alone_write_p50)?;
    print_report(&format!("per-layer, workload {}", args.workload), &report);
    println!("layer sums against end-to-end medians (in-process layer sum = session.feed):");
    for class in ["read", "write"] {
        let layers = report
            .get(&format!("session.feed_us.{class}"))
            .unwrap_or(0.0);
        let rest = report
            .get(&format!("transport.overhead_us.{class}"))
            .unwrap_or(0.0);
        println!(
            "  {class:<5} e2e p50 {:>10.1} us  layers {layers:>10.1} us  transport.overhead_us {rest:>10.1} us  {}",
            layers + rest,
            if rest >= 0.0 { "holds" } else { "VIOLATED: layers exceed end-to-end" }
        );
    }
    println!(
        "plan-cache cross-check: shadow hit ratio {:.4}; oracle STATS counters: {}",
        report.get("plan.hit_ratio").unwrap_or(0.0),
        replay.oracle_cache()
    );
    println!("self time per layer (in-process replay, then socket phase):");
    for tracer in [&replay.tracer, &socket_tracer] {
        let times = tracer.self_times();
        let total: u64 = times.iter().map(|(_, t)| t).sum();
        for (name, t) in times {
            println!(
                "  {name:<16} {:>12.3} ms  {:>5.1}%",
                t as f64 / 1e6,
                100.0 * t as f64 / total.max(1) as f64
            );
        }
    }
    let spans = net::work_dir()?.join(format!("spans-{}.tsv", args.workload));
    std::fs::write(&spans, replay.tracer.to_tsv() + &socket_tracer.to_tsv())?;
    println!("spans written to {}", spans.display());
    let total = merge_counts([plain, traced, alone]);
    print_phase_counts(&total);
    Ok((report, total))
}

fn main() {
    let args = parse_args();
    let env = Env {
        bin: args.bin.clone(),
        seconds: args.seconds,
        seed: args.seed,
    };
    println!("fingerprint {}", fingerprint(&args.workload));
    let result = if args.trace {
        traced(&args, &env)
    } else {
        untraced(&args, &env)
    };
    match result {
        Ok((report, phase)) => {
            let attempted = phase.attempted.max(1);
            println!(
                "{}",
                report.json(phase.failed == 0, attempted, phase.failed)
            );
        }
        Err(e) => {
            eprintln!("cdr-perfbench: {} failed: {e}", args.workload);
            exit(1);
        }
    }
}
