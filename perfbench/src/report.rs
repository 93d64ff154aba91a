//! Per-job records, the end-to-end metrics computed from them, and the
//! result line the worker prints.

use std::fmt::Write as _;

use crate::stats::{median, tail};

/// How one job ended, as the known-answer checks judged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// A conclusive verdict equal to the known answer.
    Decided,
    /// Inconclusive, limit-exceeded or timed out: no verdict to check.
    Undecided,
    /// An error, a refusal, a wrong verdict or a document that differs.
    Failed,
}

#[derive(Debug, Clone)]
pub struct JobRecord {
    pub class: &'static str,
    /// Time to verdict in milliseconds.
    pub ms: f64,
    /// CPU time the working process spent on the job, in milliseconds;
    /// `None` where it is not attributable to one job (service jobs, and
    /// in-process jobs run once per run).
    pub cpu_ms: Option<f64>,
    pub judgement: Judgement,
}

/// Named metric values, in output order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// The end-to-end metrics of one untraced run. `wall_s` is the measured
/// interval over which the verdicts were delivered. `cpu_ms_per_job` is
/// the mean over the jobs whose CPU time is known.
pub fn end_to_end(records: &[JobRecord], wall_s: f64) -> Metrics {
    let latencies: Vec<f64> = records
        .iter()
        .filter(|r| r.judgement != Judgement::Failed)
        .map(|r| r.ms)
        .collect();
    let n = records.len().max(1) as f64;
    let decided = count(records, Judgement::Decided) as f64;
    let failed = count(records, Judgement::Failed) as f64;
    let t = tail(&latencies);
    let mut m = Metrics::default();
    m.push("verdict_p50_ms", median(&latencies), "ms");
    m.push("verdict_tail_ms", t.value, "ms");
    m.push(
        "jobs_per_s",
        latencies.len() as f64 / wall_s.max(1e-9),
        "1/s",
    );
    let cpu: Vec<f64> = records.iter().filter_map(|r| r.cpu_ms).collect();
    m.push(
        "cpu_ms_per_job",
        cpu.iter().sum::<f64>() / cpu.len().max(1) as f64,
        "ms",
    );
    m.push("decided_share", decided / n, "share");
    m.push("ok_share", 1.0 - failed / n, "share");
    m.push("bench.tail_percentile", t.percentile, "%");
    m.push("bench.samples", t.samples as f64, "count");
    m.push("bench.failed_share", failed / n, "share");
    m
}

pub fn count(records: &[JobRecord], judgement: Judgement) -> usize {
    records.iter().filter(|r| r.judgement == judgement).count()
}

/// The worker's result line: `correct`, `attempted`, `failed` and the
/// metrics, as one JSON object.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}").expect("string write");
    }
    out.push_str("}}");
    out
}
