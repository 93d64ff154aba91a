//! The benchmark's worker. `run.py` builds it and runs one workload per
//! fresh process:
//!
//! ```text
//! perfbench --workload zones|refine|service --seed N --seconds S \
//!           --trace 0|1 --work DIR [--transyt PATH] [--setup-only]
//! ```
//!
//! In-process workloads print `READY` once set-up is done (the parent
//! times set-up and reads peak memory from outside this process), then the
//! result line: one JSON object with `correct`, `attempted`, `failed` and
//! the metrics. `--setup-only` exits after `READY`.

mod gen;
mod inproc;
mod layers;
mod openloop;
mod report;
mod service;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{count, end_to_end, result_line, Judgement, Metrics};
use stats::{median, tail};
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    transyt: Option<PathBuf>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".bench_build/perfbench-work"),
        transyt: None,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--work" => args.work = PathBuf::from(value()?),
            "--transyt" => args.transyt = Some(PathBuf::from(value()?)),
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["zones", "refine", "service"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads per in-process task: `nproc` for `zones`, where the
/// parallel exploration driver is one of the layers measured, and 1 for
/// `refine`. In interleaved runs on a shared 2-vCPU host the same `refine`
/// jobs ran slower at two threads than at one (median 32 against 23 ms)
/// and far less steadily (the run-to-run spread of their tail was 0.51 of
/// its median, against 0.03); `zones` jobs were faster and steadier at two.
fn task_threads(workload: &str) -> usize {
    if workload == "zones" {
        nproc()
    } else {
        1
    }
}

/// Jobs run at once: 1 for `zones`, whose tasks use every core, and
/// `nproc` for `refine`, whose single-threaded jobs would otherwise leave
/// all cores but one idle, as a server with `--workers nproc` would not.
/// Spreading the jobs over every core also spreads them over whatever
/// else the host runs on each.
fn job_runners(workload: &str) -> usize {
    if workload == "refine" {
        nproc()
    } else {
        1
    }
}

/// Prints the human-readable summary (stderr) and returns the result line.
fn finish(workload: &str, records: &[report::JobRecord], metrics: &Metrics) -> String {
    let attempted = records.len();
    let failed = count(records, Judgement::Failed);
    let t = tail(&records.iter().map(|r| r.ms).collect::<Vec<_>>());
    eprintln!(
        "perfbench {workload}: {attempted} jobs, {failed} failed, {} undecided; verdict tail = p{:.1} of {} samples",
        count(records, Judgement::Undecided),
        t.percentile,
        t.samples
    );
    let mut classes: Vec<&str> = records.iter().map(|r| r.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let times: Vec<f64> = records
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.ms)
            .collect();
        eprintln!(
            "  {class:<24} {:>5} jobs  median {:>10.3} ms",
            times.len(),
            median(&times)
        );
    }
    result_line(
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        metrics,
    )
}

/// The traced run's result: the layer metrics plus the traced pass's own
/// sample statistics, completed to the full per-layer list.
fn per_layer(mut found: Metrics, e2e: &Metrics) -> Metrics {
    for name in [
        "bench.tail_percentile",
        "bench.samples",
        "bench.failed_share",
    ] {
        found.push(name, e2e.get(name).unwrap_or(0.0), "");
    }
    layers::complete(&found)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = task_threads(&args.workload);
    let runners = job_runners(&args.workload);
    let line = if args.workload == "service" {
        let Some(transyt) = &args.transyt else {
            eprintln!("perfbench: the service workload needs --transyt PATH");
            return ExitCode::from(2);
        };
        match service::run(
            args.seed,
            args.seconds,
            args.trace,
            transyt,
            &args.work,
            nproc(),
        ) {
            Ok(out) => {
                let mut e2e = out.end_to_end();
                if args.trace {
                    finish(
                        &args.workload,
                        &out.records,
                        &per_layer(out.layer_metrics, &e2e),
                    )
                } else {
                    e2e.push("setup_s", out.setup_s, "s");
                    e2e.push("peak_rss_mb", out.peak_rss_mb, "MB");
                    finish(&args.workload, &out.records, &e2e)
                }
            }
            Err(e) => {
                eprintln!("perfbench: service: {e}");
                return ExitCode::from(1);
            }
        }
    } else if args.trace {
        // An untraced pass first, for the tracing overhead, then the
        // traced pass whose spans give the per-layer numbers. Both run the
        // full time: the traced pass also calls each engine directly, so
        // it completes fewer jobs.
        let seconds = args.seconds;
        let base = {
            let off = Tracer::new(false);
            let setup = inproc::setup(&args.workload, args.seed, seconds, threads, &off);
            let out = inproc::run(&setup, seconds, threads, runners, &off);
            median(&out.records.iter().map(|r| r.ms).collect::<Vec<_>>())
        };
        let tracer = Tracer::new(true);
        let setup = inproc::setup(&args.workload, args.seed, seconds, threads, &tracer);
        let out = inproc::run(&setup, seconds, threads, runners, &tracer);
        let path = args
            .work
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let e2e = end_to_end(&out.records, out.wall_s);
        let mut found = out.layer_metrics;
        let p50 = e2e.get("verdict_p50_ms").unwrap_or(0.0);
        found.push(
            "bench.tracing_overhead_pct",
            100.0 * (p50 / base.max(1e-9) - 1.0),
            "%",
        );
        finish(&args.workload, &out.records, &per_layer(found, &e2e))
    } else {
        let off = Tracer::new(false);
        let setup = inproc::setup(&args.workload, args.seed, args.seconds, threads, &off);
        println!("READY");
        let _ = std::io::stdout().flush();
        if args.setup_only {
            return ExitCode::SUCCESS;
        }
        let out = inproc::run(&setup, args.seconds, threads, runners, &off);
        finish(
            &args.workload,
            &out.records,
            &end_to_end(&out.records, out.wall_s),
        )
    };
    println!("{line}");
    ExitCode::SUCCESS
}
