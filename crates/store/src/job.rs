//! The job lifecycle, one type from journal to wire: [`JobStatus`] is what a
//! journal `Status` record carries, what replay folds into the job table,
//! what the server holds per job and what `GET /jobs/{id}` and
//! `transyt store ls` print. [`JobRecord`] is a job as the journal knows it;
//! [`fold`] replays records into those and [`compaction_records`] writes
//! them back.

use std::fmt;

use crate::journal::Record;

/// Lifecycle of a job. Terminal states carry their payload, so a failed job
/// always has its message and a breached one its budget triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue. Never journaled: a `job` line implies it.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished with a document, stored at `results/<result>.res`.
    Done {
        /// The task-key fingerprint addressing the stored result.
        result: String,
    },
    /// Finished with an error message.
    Failed {
        /// The error message.
        error: String,
    },
    /// Cancelled before or while running.
    Cancelled,
    /// The job's deadline expired before the run finished.
    TimedOut,
    /// The job's resource budget (`max-configs` / `max-zone-bytes`) was
    /// breached and the run aborted deterministically.
    BudgetExceeded {
        /// The breached resource (`configs` / `zone-bytes`).
        resource: String,
        /// Usage observed at the breach.
        used: usize,
        /// The configured budget.
        limit: usize,
    },
}

impl JobStatus {
    /// Returns `true` once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::TimedOut => "timed_out",
            JobStatus::BudgetExceeded { .. } => "budget_exceeded",
        })
    }
}

/// A job as the journal knows it: its submission plus its lifecycle. Replay
/// rebuilds one per `job` line, the server keeps one per job, and compaction
/// writes them back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The stable job id (the submission index).
    pub id: usize,
    /// The command name as journaled.
    pub command: String,
    /// The model's content hash.
    pub model: String,
    /// The textual task parameters, ready for
    /// [`TaskSpec::parse`](transyt_session::TaskSpec::parse).
    pub params: Vec<(String, String)>,
    /// The journaled scheduling class name (empty when the submission
    /// predates priorities; the server applies its default class then).
    pub prio: String,
    /// The current lifecycle state.
    pub status: JobStatus,
    /// `true` when the job's stored result was garbage-collected.
    pub evicted: bool,
}

impl JobRecord {
    /// A freshly submitted, queued job.
    pub fn submitted(
        id: usize,
        command: &str,
        model: &str,
        params: Vec<(String, String)>,
        prio: &str,
    ) -> JobRecord {
        JobRecord {
            id,
            command: command.to_owned(),
            model: model.to_owned(),
            params,
            prio: prio.to_owned(),
            status: JobStatus::Queued,
            evicted: false,
        }
    }

    /// The `job` record announcing this submission.
    pub fn submission(&self) -> Record {
        Record::Job {
            id: self.id,
            command: self.command.clone(),
            model: self.model.clone(),
            params: self.params.clone(),
            prio: self.prio.clone(),
        }
    }
}

/// Replays journal records into the model list and the dense job table.
/// Transitions are applied defensively: out-of-order ids and transitions on
/// already-terminal jobs are ignored rather than trusted.
pub(crate) fn fold(records: &[Record]) -> (Vec<String>, Vec<JobRecord>) {
    let mut models: Vec<String> = Vec::new();
    let mut jobs: Vec<JobRecord> = Vec::new();
    for record in records {
        match record {
            Record::Model { hash } => {
                if !models.contains(hash) {
                    models.push(hash.clone());
                }
            }
            Record::Job {
                id,
                command,
                model,
                params,
                prio,
            } => {
                if *id == jobs.len() {
                    jobs.push(JobRecord::submitted(
                        *id,
                        command,
                        model,
                        params.clone(),
                        prio,
                    ));
                }
            }
            Record::Status { id, status } => {
                if let Some(job) = jobs.get_mut(*id) {
                    if !job.status.is_terminal() {
                        job.status = status.clone();
                    }
                }
            }
            Record::Evict { id } => {
                if let Some(job) = jobs.get_mut(*id) {
                    job.evicted = true;
                }
            }
        }
    }
    (models, jobs)
}

/// The compacted journal image of a job table: model records, then per job
/// its `job` record, its status (a queued one encodes to no line) and an
/// `evict` record when its result is gone.
pub fn compaction_records<'a>(
    models: &[String],
    jobs: impl IntoIterator<Item = &'a JobRecord>,
) -> Vec<Record> {
    let mut records: Vec<Record> = models
        .iter()
        .map(|hash| Record::Model { hash: hash.clone() })
        .collect();
    for job in jobs {
        records.push(job.submission());
        records.push(Record::Status {
            id: job.id,
            status: job.status.clone(),
        });
        if job.evicted {
            records.push(Record::Evict { id: job.id });
        }
    }
    records
}
