//! `serve_bench` — closed-loop load generator for the consensus service.
//!
//! Pushes `--instances` proposals through a [`Server`] at full speed (a
//! dedicated proposer thread submits, the main thread drains decisions)
//! and records throughput and latency per thread count into a JSON report
//! (`--out`, default `BENCH_serve.json`) written through the workspace's
//! one JSON codec, `kset_core::json`.
//!
//! Latency here is submit-to-decide under saturation: with the bounded
//! proposal queues full, it is dominated by queueing, which is exactly
//! what a service-level benchmark should show.
//!
//! The run fails closed: every decision must answer an id that was
//! proposed and not yet answered, carry the inputs proposed for that id,
//! and pass `ProblemSpec::check` against SC(t+1, t, RV1) (termination
//! included). Any failure, or any id left unanswered, exits non-zero.

use std::process::ExitCode;
use std::time::Instant;

use kset_core::json::Json;
use kset_core::{ProblemSpec, ValidityCondition};
use kset_serve::{Decision, ServeConfig, Server, Workload};

struct BenchRow {
    threads: usize,
    instances: u64,
    wall_s: f64,
    decisions_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    max_us: u64,
    events_total: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_bench [--instances N] [--threads LIST] [--n N] [--t N] \
         [--batch EVENTS] [--max-live N] [--queue-depth N] [--seed SEED] [--out PATH]"
    );
    std::process::exit(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("serve_bench: {flag} needs a valid value");
            usage()
        })
}

/// Deterministic per-instance inputs: varied enough to exercise different
/// decision values, reproducible from the instance id alone.
fn inputs_for(id: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|p| (id.wrapping_mul(31) + p * 7) % 97).collect()
}

fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 - 1) * pct) / 100;
    sorted[idx as usize]
}

/// Checks one decision of a run that proposed ids `0..answered.len()`
/// with [`inputs_for`], marking its id answered.
fn verify(decision: &Decision, spec: &ProblemSpec, answered: &mut [bool]) -> Result<(), String> {
    let id = decision.id;
    match answered.get_mut(id as usize) {
        None => return Err(format!("decision for unproposed instance {id}")),
        Some(true) => return Err(format!("instance {id} answered twice")),
        Some(seen) => *seen = true,
    }
    if decision.record.inputs() != inputs_for(id, spec.n()).as_slice() {
        return Err(format!("instance {id} answered with other inputs"));
    }
    let report = spec.check(&decision.record);
    if !report.is_ok() {
        return Err(format!("instance {id} violates {spec}: {report}"));
    }
    Ok(())
}

fn run_one(config: ServeConfig, instances: u64) -> Result<BenchRow, String> {
    let workload = config.workload;
    let spec = ProblemSpec::new(workload.n, workload.t + 1, workload.t, ValidityCondition::RV1)
        .map_err(|e| e.to_string())?;
    let server = Server::start(config);
    let client = server.client();
    let n = config.workload.n;
    let start = Instant::now();
    let proposer = std::thread::spawn(move || {
        for id in 0..instances {
            // Ids are assigned in submission order, so this proposes the
            // inputs the drain below will verify against.
            if client.propose(inputs_for(id, n)).is_err() {
                return Err(id);
            }
        }
        Ok(())
    });

    let mut latencies_us: Vec<u64> = Vec::with_capacity(instances as usize);
    let mut answered = vec![false; instances as usize];
    let mut events_total: u64 = 0;
    for drained in 0..instances {
        let decision = server
            .recv_decision()
            .ok_or_else(|| format!("workers exited after {drained} decisions"))?;
        verify(&decision, &spec, &mut answered)?;
        events_total += decision.events;
        latencies_us.push(decision.latency.as_micros() as u64);
        if (drained + 1) % 250_000 == 0 {
            eprintln!(
                "serve_bench: threads={} {}/{} decided",
                config.threads,
                drained + 1,
                instances
            );
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    proposer
        .join()
        .map_err(|_| "proposer thread panicked".to_string())?
        .map_err(|id| format!("propose {id} failed"))?;
    let stats = server.shutdown();
    if stats.decided != instances {
        return Err(format!("decided {} of {instances}", stats.decided));
    }
    latencies_us.sort_unstable();
    Ok(BenchRow {
        threads: config.threads,
        instances,
        wall_s,
        decisions_per_s: instances as f64 / wall_s,
        p50_us: percentile(&latencies_us, 50),
        p95_us: percentile(&latencies_us, 95),
        max_us: *latencies_us.last().unwrap_or(&0),
        events_total,
    })
}

/// What the host's CPU count means for the rows: besides the workers, the
/// proposer thread and the draining main thread are busy throughout.
fn host_note(cpus: usize) -> String {
    if cpus <= 1 {
        "Recorded on a single-CPU host: every thread time-slices one CPU, so \
         threads=2 measures multiplexing overhead, not speedup."
            .to_string()
    } else {
        format!(
            "Recorded on a {cpus}-CPU host. Besides the workers, the proposer thread and the \
             draining main thread are busy, so rows with threads above {} time-slice the \
             CPUs and understate sharded scaling.",
            cpus.saturating_sub(2).max(1)
        )
    }
}

fn write_report(
    path: &str,
    workload: &Workload,
    config: &ServeConfig,
    rows: &[BenchRow],
) -> std::io::Result<()> {
    let cpus = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let runs = rows.iter().map(|row| {
        Json::object([
            ("threads", row.threads.into()),
            ("instances", row.instances.into()),
            ("wall_s", Json::decimal(row.wall_s, 3)),
            ("decisions_per_s", Json::decimal(row.decisions_per_s, 0)),
            ("p50_latency_us", row.p50_us.into()),
            ("p95_latency_us", row.p95_us.into()),
            ("max_latency_us", row.max_us.into()),
            ("events_total", row.events_total.into()),
            (
                "events_per_instance",
                Json::decimal(row.events_total as f64 / row.instances as f64, 2),
            ),
        ])
    });
    let report = Json::object([
        ("bench", "serve_throughput".into()),
        (
            "description",
            "Closed-loop load test of kset-serve: a proposer thread \
             submits failure-free FloodMin instances as fast as backpressure allows while \
             the main thread drains and verifies every decision (exactly one answer per \
             id, the proposed inputs, and ProblemSpec::check against SC(t+1, t, RV1)); \
             any failure fails the run. decisions_per_s is end-to-end service throughput; latencies \
             are submit-to-decide under saturation, so they are dominated by time spent \
             in the bounded per-worker queues (queue_depth entries deep) — divide wall_s \
             by instances for the per-instance service time instead. Recorded from \
             `serve_bench --instances N --threads LIST`."
                .into(),
        ),
        ("host_logical_cpus", cpus.into()),
        ("host_note", host_note(cpus).into()),
        (
            "workload",
            Json::object([
                ("protocol", "FloodMin".into()),
                ("n", workload.n.into()),
                ("t", workload.t.into()),
                ("seed", workload.seed.into()),
                ("fault_plan", "all correct".into()),
            ]),
        ),
        (
            "config",
            Json::object([
                ("batch", config.batch.into()),
                ("max_live", config.max_live.into()),
                ("queue_depth", config.queue_depth.into()),
            ]),
        ),
        ("runs", Json::Array(runs.collect())),
    ]);
    std::fs::write(path, report.to_document())
}

fn main() -> ExitCode {
    let mut instances: u64 = 1_000_000;
    let mut thread_counts: Vec<usize> = vec![1, 2];
    let mut workload = Workload::flood_min(3, 1);
    let mut config = ServeConfig::new(workload);
    let mut out_path = "BENCH_serve.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instances" => instances = parse("--instances", args.next()),
            "--threads" => {
                let list: String = parse("--threads", args.next());
                match list.split(',').map(|s| s.trim().parse()).collect() {
                    Ok(parsed) => thread_counts = parsed,
                    Err(_) => usage(),
                }
            }
            "--n" => workload.n = parse("--n", args.next()),
            "--t" => workload.t = parse("--t", args.next()),
            "--batch" => config.batch = parse("--batch", args.next()),
            "--max-live" => config.max_live = parse("--max-live", args.next()),
            "--queue-depth" => config.queue_depth = parse("--queue-depth", args.next()),
            "--seed" => workload.seed = parse("--seed", args.next()),
            "--out" => out_path = parse("--out", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("serve_bench: unknown flag {other}");
                usage()
            }
        }
    }
    config.workload = workload;

    let mut rows = Vec::new();
    for &threads in &thread_counts {
        let run_config = ServeConfig { threads, ..config };
        eprintln!(
            "serve_bench: {instances} instances of FloodMin(n={}, t={}) on {threads} worker(s)",
            workload.n, workload.t
        );
        match run_one(run_config, instances) {
            Ok(row) => {
                println!(
                    "threads={} wall_s={:.3} decisions_per_s={:.0} p50_us={} p95_us={} \
                     events_per_instance={:.2}",
                    row.threads,
                    row.wall_s,
                    row.decisions_per_s,
                    row.p50_us,
                    row.p95_us,
                    row.events_total as f64 / row.instances as f64,
                );
                rows.push(row);
            }
            Err(err) => {
                eprintln!("serve_bench: threads={threads} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(err) = write_report(&out_path, &workload, &config, &rows) {
        eprintln!("serve_bench: cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("serve_bench: wrote {out_path}");
    ExitCode::SUCCESS
}
