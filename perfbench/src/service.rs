//! The `service` workload: open-loop traffic against a live
//! `transyt serve --data-dir … --fsync on`.
//!
//! Set-up starts the server, waits for `/healthz` and uploads the run's
//! models; it is repeated [`SETUPS`] times (each on a fresh data
//! directory) and the median reported. The measured run has two phases,
//! both driven from one submitting connection while a second connection
//! follows each admitted job's `/events` stream to its terminal frame and
//! fetches `GET /jobs/{id}/result`:
//!
//! - the open loop offers jobs at the fixed [`RATE`]; its latencies give
//!   `verdict_p50_ms` and `verdict_tail_ms`;
//! - the saturation phase offers bursts of [`BURST`] jobs, all due at
//!   once, each after the previous burst has drained; jobs per second of
//!   drain time give `jobs_per_s`, the rate the server sustains when work
//!   is waiting, and queued jobs are where priorities take effect.
//!
//! Afterwards every fetched document is compared byte for byte with the
//! in-process `Session` rendering of the same spec.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use transyt::Verdict;
use transyt_server::client;
use transyt_session::{Outcome, Session, TaskSpec};

use crate::gen::{Generator, Rng};
use crate::openloop;
use crate::report::{end_to_end, JobRecord, Judgement, Metrics};
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 3;
/// The open loop's offered rate, in jobs per second: half the saturated
/// rate (`jobs_per_s`) measured on a 2-vCPU x86-64 host, so the server
/// carries load without a growing backlog.
pub const RATE: f64 = 12.0;
/// Seconds of open loop per second of `--seconds`; the bursts take about
/// the rest.
pub const OPEN_SHARE: f64 = 0.6;
/// Jobs per saturation burst: fewer than the server's default admission
/// depth (64), so no burst job is refused.
pub const BURST: usize = 48;
/// Saturation bursts per run: a fixed count, so every run offers the same
/// jobs however fast the server drains them.
pub const BURSTS: usize = 3;
/// Share of submissions that exactly repeat an earlier submission. An
/// assumption, not a measurement: enough repeats to exercise the memo and
/// store read path beside the fresh specs' write path.
pub const REPEAT_SHARE: f64 = 0.25;
/// The latency limit on `verdict_tail_ms` for `max_rate_under_slo`.
pub const SLO_MS: f64 = 100.0;
/// Offered rates of the traced run's sweep, and seconds per step.
pub const SWEEP: [f64; 5] = [5.0, 10.0, 15.0, 20.0, 30.0];
pub const SWEEP_STEP_S: f64 = 3.0;

/// Base models of the mix and the commands each takes.
const MIX: [(&str, [&str; COMMANDS]); 5] = [
    ("race_overlap.tts", ["verify", "verify+trace", "zones"]),
    ("intro_fig1.tts", ["verify", "verify+trace", "zones"]),
    ("c_element.stg", ["verify", "reach", "zones"]),
    ("ring_pipeline.stg", ["verify", "reach", "zones"]),
    ("ipcmos_1stage.stg", ["verify", "reach", "zones"]),
];
const COMMANDS: usize = 3;

/// One submission of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Index into the uploaded model list.
    pub model: usize,
    pub command: &'static str,
    pub params: Vec<(String, String)>,
    /// `Some(i)`: an exact resubmission of submission `i`.
    pub repeat_of: Option<usize>,
}

/// The seeded mix: the uploaded model texts and `count` submissions.
/// Enough models are generated that no fresh submission repeats a task
/// key, even if none of the `count` is a repeat.
pub fn mix(seed: u64, count: usize) -> (Vec<String>, Vec<Submission>) {
    let mut generator = Generator::new(seed, 1);
    let model_count = count.div_ceil(COMMANDS);
    let models: Vec<String> = (0..model_count)
        .map(|i| generator.perturbed_text(MIX[i % MIX.len()].0))
        .collect();
    // Every (model, command) pair is a distinct task key; fresh
    // submissions take them in a seeded order.
    let mut fresh: Vec<(usize, &'static str)> = (0..model_count)
        .flat_map(|m| MIX[m % MIX.len()].1.iter().map(move |&c| (m, c)))
        .collect();
    let rng: &mut Rng = generator.rng();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut next_fresh = fresh.into_iter();
    let mut submissions: Vec<Submission> = Vec::with_capacity(count);
    let mut fresh_indices = Vec::new();
    for i in 0..count {
        let repeat = !fresh_indices.is_empty() && (rng.below(1000) as f64) < REPEAT_SHARE * 1000.0;
        if repeat {
            let of = fresh_indices[rng.below(fresh_indices.len() as u64) as usize];
            let mut again = Submission::clone(&submissions[of]);
            again.repeat_of = Some(of);
            submissions.push(again);
            continue;
        }
        let (model, command) = next_fresh.next().expect("a fresh key per submission");
        let (command, trace) = match command {
            "verify+trace" => ("verify", true),
            other => (other, false),
        };
        let mut params = vec![("threads".to_owned(), "1".to_owned())];
        if trace {
            params.push(("trace".to_owned(), "true".to_owned()));
        }
        submissions.push(Submission {
            model,
            command,
            params,
            repeat_of: None,
        });
        fresh_indices.push(i);
    }
    (models, submissions)
}

/// A running server.
struct Server {
    child: Child,
    /// Held open so the server's later banner lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Server {
    fn start(transyt: &Path, dir: PathBuf, workers: usize) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut child = Command::new(transyt)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .arg("--data-dir")
            .arg(&dir)
            .args(["--fsync", "on"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", transyt.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        let addr = line
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .ok_or_else(|| format!("no address in the server banner `{}`", line.trim()))?
            .to_owned();
        let server = Server {
            child,
            _stdout: stdout,
            addr,
            dir,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok((200, _)) = client::request(&server.addr, "GET", "/healthz", None) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("the server never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn healthz(&self) -> String {
        client::request(&self.addr, "GET", "/healthz", None)
            .map(|(_, body)| body)
            .unwrap_or_default()
    }

    /// CPU time the server process has used so far (user plus system,
    /// all threads), in milliseconds, from `/proc/<pid>/stat`.
    fn cpu_ms(&self) -> f64 {
        extern "C" {
            fn sysconf(name: i32) -> i64;
        }
        const SC_CLK_TCK: i32 = 2;
        // SAFETY: `sysconf` only reads a system constant.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (ticks(11) + ticks(12)) * 1000.0 / ticks_per_s
    }

    /// VmHWM of the server process, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful shutdown; the drop that follows kills a server that has
    /// not exited within ten seconds.
    fn stop(mut self) {
        let _ = client::request(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a server and uploads `models`; returns it with the model hashes
/// and the upload round trips (ms).
fn set_up(
    transyt: &Path,
    dir: PathBuf,
    workers: usize,
    models: &[String],
    tracer: &Tracer,
) -> Result<(Server, Vec<String>), String> {
    let server = tracer.within(0, None, "server.start", || {
        Server::start(transyt, dir, workers)
    })?;
    let mut hashes = Vec::with_capacity(models.len());
    for text in models {
        let call = tracer.open(0, None, "http.upload");
        let (status, body) =
            client::request(&server.addr, "POST", "/models", Some(text.as_bytes()))?;
        tracer.close(call, &[]);
        if status != 200 {
            return Err(format!("upload refused: {status} {}", body.trim()));
        }
        hashes.push(client::json_str_field(&body, "hash").ok_or("upload answered no hash")?);
    }
    Ok((server, hashes))
}

/// What the client saw of one job.
#[derive(Debug, Default)]
struct Observed {
    /// Latency from due time to the fetched document, ms.
    verdict_ms: f64,
    status: String,
    document: String,
    rejected: bool,
}

fn query(sub: &Submission, hash: &str) -> String {
    let mut q = format!("/jobs?model={hash}&command={}", sub.command);
    for (k, v) in &sub.params {
        q.push_str(&format!("&{k}={v}"));
    }
    q
}

/// Offers `subs` at `rate` against `server` and follows every job to its
/// document. Returns what was observed per submission and the wall time
/// from the first due time to the last document.
fn offer(
    server: &Server,
    hashes: &[String],
    subs: &[Submission],
    rate: f64,
    tracer: &Tracer,
) -> (Vec<Observed>, f64, f64, usize) {
    let (admitted_tx, admitted_rx) = mpsc::channel::<(usize, Instant, Option<u64>)>();
    let start = Instant::now() + Duration::from_millis(20);
    let addr = server.addr.clone();
    let mut observed: Vec<Observed> = (0..subs.len()).map(|_| Observed::default()).collect();
    let mut requests = 0usize;
    let mut last_done = start;
    let (late_max, submit_requests) = std::thread::scope(|scope| {
        // The submitting connection.
        let submitter = scope.spawn(|| {
            let mut late_max: f64 = 0.0;
            let mut requests = 0usize;
            openloop::drive(
                start,
                subs.len(),
                rate,
                |i| {
                    let job = i as u64;
                    let path = query(&subs[i], &hashes[subs[i].model]);
                    // A 429 is retried after its Retry-After, a bounded
                    // number of times; a job never admitted counts as failed.
                    for _ in 0..3 {
                        let call = tracer.open(job, None, "http.submit");
                        requests += 1;
                        let answer = client::request_with_headers(&addr, "POST", &path, None);
                        match answer {
                            Ok((202, _, body)) => {
                                let position =
                                    client::json_uint_field(&body, "position").unwrap_or(0);
                                tracer.close(call, &[("position", position as f64)]);
                                return client::json_uint_field(&body, "job");
                            }
                            Ok((429, headers, _)) => {
                                tracer.close(call, &[("rejected", 1.0)]);
                                let wait = client::header(&headers, "retry-after")
                                    .and_then(|s| s.parse::<u64>().ok())
                                    .unwrap_or(1);
                                std::thread::sleep(Duration::from_secs(wait.min(2)));
                            }
                            _ => {
                                tracer.close(call, &[("error", 1.0)]);
                                return None;
                            }
                        }
                    }
                    None
                },
                |sent| {
                    late_max = late_max.max(sent.late_ms);
                    admitted_tx
                        .send((sent.index, sent.due_at, sent.reply))
                        .expect("collector alive");
                },
            );
            drop(admitted_tx);
            (late_max, requests)
        });
        // The collecting connection.
        for (index, due_at, id) in admitted_rx {
            let job = index as u64;
            let Some(id) = id else {
                observed[index].rejected = true;
                continue;
            };
            let call = tracer.open(job, None, "http.events");
            let mut status = String::new();
            let mut saw_queued = false;
            requests += 1;
            let _ = client::stream_events(&addr, id, |frame| {
                if frame.contains("\"type\":\"queued\"") {
                    saw_queued = true;
                } else if frame.contains("\"type\":\"running\"") && saw_queued {
                    tracer.point(job, Some(call), "sse.running", &[]);
                } else if frame.contains("\"type\":\"terminal\"") {
                    status = client::json_str_field(frame, "status").unwrap_or_default();
                }
            });
            tracer.close(call, &[]);
            let call = tracer.open(job, None, "http.result");
            requests += 1;
            let document = client::request(&addr, "GET", &format!("/jobs/{id}/result"), None)
                .map(|(_, body)| body)
                .unwrap_or_default();
            tracer.close(call, &[]);
            let done = Instant::now();
            last_done = last_done.max(done);
            observed[index] = Observed {
                verdict_ms: done.duration_since(due_at).as_secs_f64() * 1000.0,
                status,
                document,
                rejected: false,
            };
        }
        submitter.join().expect("submitter thread")
    });
    let wall_s = last_done.duration_since(start).as_secs_f64();
    (observed, wall_s, late_max, requests + submit_requests)
}

/// A spec's identity: model index, command and parameters.
type SpecKey = (usize, &'static str, Vec<(String, String)>);

/// Judges every observation: the document must equal the in-process
/// rendering of the same spec, byte for byte.
fn judge(models: &[String], subs: &[Submission], observed: &[Observed]) -> Vec<Judgement> {
    let session = Session::new();
    // Per distinct spec: the in-process document and whether it is decided.
    let mut expected: HashMap<SpecKey, (String, bool)> = HashMap::new();
    subs.iter()
        .zip(observed)
        .map(|(sub, seen)| {
            if seen.rejected || seen.status != "done" {
                return Judgement::Failed;
            }
            let (document, decided) = expected
                .entry((sub.model, sub.command, sub.params.clone()))
                .or_insert_with(|| {
                    let (cached, _) = session
                        .add_model(&models[sub.model])
                        .expect("generated model parses");
                    let spec = TaskSpec::parse(sub.command, &sub.params)
                        .expect("generated parameters are valid")
                        .for_model(cached.hash);
                    let result = match session.run_task(&spec, Default::default()) {
                        transyt_session::Completion::Finished(result) => result,
                        transyt_session::Completion::Detached => unreachable!("inert token"),
                    };
                    let decided = !matches!(
                        &result.outcome,
                        Ok(Outcome::Verify(v)) if matches!(v.verdict, Verdict::Inconclusive { .. })
                    );
                    (result.document.clone(), decided)
                })
                .clone();
            if document != seen.document {
                Judgement::Failed
            } else if decided {
                Judgement::Decided
            } else {
                Judgement::Undecided
            }
        })
        .collect()
}

pub struct ServiceOutput {
    /// The open loop's jobs, then the bursts' jobs.
    pub records: Vec<JobRecord>,
    /// How many of `records` the open loop ran.
    pub open_jobs: usize,
    /// Burst jobs per second of drain time.
    pub saturated_jobs_per_s: f64,
    /// Server CPU time over both phases, per job.
    pub server_cpu_ms_per_job: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub layer_metrics: Metrics,
}

impl ServiceOutput {
    /// The end-to-end metrics: latencies from the open loop, throughput
    /// from the bursts, server CPU and shares over every job of the run.
    pub fn end_to_end(&self) -> Metrics {
        let open = end_to_end(&self.records[..self.open_jobs], 1.0);
        let all = end_to_end(&self.records, 1.0);
        let mut m = Metrics::default();
        for (name, value, unit) in all.0 {
            let value = match name.as_str() {
                "verdict_p50_ms"
                | "verdict_tail_ms"
                | "bench.tail_percentile"
                | "bench.samples" => open.get(&name).unwrap_or(0.0),
                "jobs_per_s" => self.saturated_jobs_per_s,
                "cpu_ms_per_job" => self.server_cpu_ms_per_job,
                _ => value,
            };
            m.push(&name, value, unit);
        }
        m
    }
}

/// A counter of a `/healthz` document (0 if absent).
fn health_field(health: &str, name: &str) -> f64 {
    client::json_uint_field(health, name).map_or(0.0, |v| v as f64)
}

/// Offers `subs` in bursts of [`BURST`], each once the previous one has
/// drained. Returns the observations and the jobs per second of drain
/// time, and the HTTP requests made.
fn saturate(
    server: &Server,
    hashes: &[String],
    subs: &[Submission],
    tracer: &Tracer,
) -> (Vec<Observed>, f64, usize) {
    let mut observed = Vec::with_capacity(subs.len());
    let mut drain_s = 0.0;
    let mut requests = 0;
    for burst in subs.chunks(BURST) {
        let (seen, wall_s, _, sent) = offer(server, hashes, burst, f64::INFINITY, tracer);
        observed.extend(seen);
        drain_s += wall_s;
        requests += sent;
    }
    let jobs_per_s = observed.len() as f64 / drain_s.max(1e-9);
    (observed, jobs_per_s, requests)
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    transyt: &Path,
    work: &Path,
    workers: usize,
) -> Result<ServiceOutput, String> {
    let open_count = (RATE * seconds * OPEN_SHARE).round().max(1.0) as usize;
    let (models, subs) = mix(seed, open_count + BURSTS * BURST);
    let (open_subs, burst_subs) = subs.split_at(open_count);
    let dir = |k: usize| work.join(format!("service-{}-{seed}-{k}", std::process::id()));

    let untraced = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        let tracer = if traced && k + 1 == SETUPS {
            Tracer::new(true)
        } else {
            untraced.clone()
        };
        let t0 = Instant::now();
        let (server, hashes) = set_up(transyt, dir(k), workers, &models, &tracer)?;
        setups.push(t0.elapsed().as_secs_f64());
        if k + 1 == SETUPS {
            kept = Some((server, hashes, tracer));
        } else {
            server.stop();
        }
    }
    let (server, hashes, tracer) = kept.expect("at least one set-up");
    let setup_s = median(&setups);

    let overhead_base = if traced {
        // An untraced open loop on its own server, for the tracing overhead.
        let (probe, probe_hashes) = set_up(transyt, dir(SETUPS), workers, &models, &untraced)?;
        let (seen, _, _, _) = offer(&probe, &probe_hashes, open_subs, RATE, &untraced);
        probe.stop();
        Some(median(
            &seen.iter().map(|o| o.verdict_ms).collect::<Vec<_>>(),
        ))
    } else {
        None
    };
    let before = server.healthz();
    let cpu_before = server.cpu_ms();
    let (mut observed, _, late_max, open_requests) =
        offer(&server, &hashes, open_subs, RATE, &tracer);
    let (burst_observed, saturated_jobs_per_s, burst_requests) =
        saturate(&server, &hashes, burst_subs, &tracer);
    observed.extend(burst_observed);
    let requests = open_requests + burst_requests;
    let server_cpu_ms_per_job = (server.cpu_ms() - cpu_before) / subs.len().max(1) as f64;
    let after = server.healthz();
    let peak_rss_mb = server.peak_rss_mb();
    server.stop();

    let measured = &subs[..];
    let judgements = judge(&models, measured, &observed);
    let records: Vec<JobRecord> = measured
        .iter()
        .zip(&observed)
        .zip(&judgements)
        .map(|((sub, seen), judgement)| JobRecord {
            class: MIX[sub.model % MIX.len()].0,
            ms: seen.verdict_ms,
            cpu_ms: None,
            judgement: *judgement,
        })
        .collect();

    let mut layer_metrics = Metrics::default();
    if traced {
        let path = work.join(format!("trace-service-seed{seed}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let spans = tracer.spans();
        let times = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .collect()
        };
        let m = &mut layer_metrics;
        m.push("server.upload_ms_p50", median(&times("http.upload")), "ms");
        let submits = times("http.submit");
        m.push("server.submit_ms_p50", median(&submits), "ms");
        m.push("server.submit_ms_tail", tail(&submits).value, "ms");
        m.push("server.poll_ms_p50", median(&times("http.events")), "ms");
        m.push("server.result_ms_p50", median(&times("http.result")), "ms");
        let jobs = measured.len().max(1) as f64;
        m.push("server.requests_per_job", requests as f64 / jobs, "count");
        m.push(
            "server.run_ms_avg",
            health_field(&after, "avg_run_ms"),
            "ms",
        );
        // Queue wait: from the 202 to the `running` frame, where the
        // stream saw the job queued first (otherwise it is not observable
        // from the client).
        let mut waits = Vec::new();
        for (id, span) in spans.iter().enumerate() {
            if span.name != "http.events" {
                continue;
            }
            let running = spans
                .iter()
                .find(|s| s.parent == Some(id) && s.name == "sse.running");
            let submitted = spans
                .iter()
                .rev()
                .find(|s| s.job == span.job && s.name == "http.submit");
            if let (Some(running), Some(submitted)) = (running, submitted) {
                waits.push((running.start_us - submitted.end_us) / 1000.0);
            }
        }
        m.push("gate.queue_wait_ms_p50", median(&waits), "ms");
        m.push("gate.queue_wait_ms_tail", tail(&waits).value, "ms");
        let rejects = spans
            .iter()
            .filter(|s| s.name == "http.submit" && s.attr("rejected") > 0.0)
            .count();
        m.push("gate.rejects", rejects as f64, "count");
        let max_waiting = spans
            .iter()
            .filter(|s| s.name == "http.submit")
            .map(|s| s.attr("position"))
            .fold(0.0, f64::max);
        m.push("gate.max_waiting", max_waiting, "count");
        let delta = |name: &str| health_field(&after, name) - health_field(&before, name);
        m.push(
            "store.journal_bytes_per_job",
            delta("journal_bytes") / jobs,
            "B",
        );
        m.push(
            "store.journal_entries_per_job",
            delta("journal_entries") / jobs,
            "count",
        );
        m.push(
            "store.compacted_bytes",
            health_field(&after, "compacted_bytes"),
            "B",
        );
        m.push("store.result_bytes", delta("result_bytes"), "B");
        m.push("store.store_hits", delta("store_hits"), "count");
        let repeats = measured.iter().filter(|s| s.repeat_of.is_some()).count() as f64;
        let hits = delta("memo_hits") + delta("store_hits");
        m.push(
            "store.hit_ratio",
            if repeats > 0.0 { hits / repeats } else { 0.0 },
            "ratio",
        );
        m.push("session.runs_executed", delta("runs_executed"), "count");
        m.push("session.memo_hits", delta("memo_hits"), "count");
        m.push("session.runs_attached", delta("runs_attached"), "count");
        m.push("bench.late_max_ms", late_max, "ms");
        let p50 = median(
            &records[..open_count]
                .iter()
                .map(|r| r.ms)
                .collect::<Vec<_>>(),
        );
        if let Some(base) = overhead_base {
            m.push(
                "bench.tracing_overhead_pct",
                100.0 * (p50 / base - 1.0),
                "%",
            );
        }
        m.push(
            "bench.max_rate_under_slo",
            max_rate_under_slo(seed, transyt, work, workers)?,
            "1/s",
        );
    }
    Ok(ServiceOutput {
        records,
        open_jobs: open_count,
        saturated_jobs_per_s,
        server_cpu_ms_per_job,
        setup_s,
        peak_rss_mb,
        layer_metrics,
    })
}

/// The highest rate of [`SWEEP`] whose tail latency stays within
/// [`SLO_MS`] with no growing backlog (the last quarter of the step's
/// jobs is no slower than the first quarter plus the limit).
fn max_rate_under_slo(
    seed: u64,
    transyt: &Path,
    work: &Path,
    workers: usize,
) -> Result<f64, String> {
    let untraced = Tracer::new(false);
    let mut best = 0.0;
    for (k, &rate) in SWEEP.iter().enumerate() {
        let count = (rate * SWEEP_STEP_S).round() as usize;
        let (models, subs) = mix(seed.wrapping_add(1 + k as u64), count);
        let dir = work.join(format!("sweep-{}-{seed}-{k}", std::process::id()));
        let (server, hashes) = set_up(transyt, dir, workers, &models, &untraced)?;
        let (seen, _, _, _) = offer(&server, &hashes, &subs, rate, &untraced);
        server.stop();
        let latencies: Vec<f64> = seen.iter().map(|o| o.verdict_ms).collect();
        let quarter = (latencies.len() / 4).max(1);
        let growing = median(&latencies[latencies.len() - quarter..])
            > median(&latencies[..quarter]) + SLO_MS;
        let failed = seen.iter().any(|o| o.rejected || o.status != "done");
        if tail(&latencies).value <= SLO_MS && !growing && !failed {
            best = rate;
        } else {
            break;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        assert_eq!(mix(5, 40), mix(5, 40));
        assert_ne!(mix(5, 40).1, mix(6, 40).1);
    }

    #[test]
    fn fresh_submissions_never_repeat_a_task_key() {
        let (models, subs) = mix(4, 300);
        let mut keys = std::collections::HashSet::new();
        for s in subs.iter().filter(|s| s.repeat_of.is_none()) {
            assert!(s.model < models.len());
            assert!(keys.insert((s.model, s.command, s.params.clone())));
        }
    }

    #[test]
    fn repeats_copy_an_earlier_fresh_submission_exactly() {
        let (_, subs) = mix(9, 200);
        let repeats = subs.iter().filter(|s| s.repeat_of.is_some()).count();
        assert!((30..=70).contains(&repeats), "{repeats} repeats of 200");
        for s in &subs {
            if let Some(of) = s.repeat_of {
                let original = &subs[of];
                assert!(original.repeat_of.is_none());
                assert_eq!(
                    (s.model, s.command, &s.params),
                    (original.model, original.command, &original.params)
                );
            }
        }
    }
}
