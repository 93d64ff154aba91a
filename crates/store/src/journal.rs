//! The append-only write-ahead job journal.
//!
//! One line per record, each carrying its own FNV-1a checksum:
//!
//! ```text
//! v1 <type> <fields…> <crc16hex>\n
//! ```
//!
//! Fields that may contain arbitrary text (job parameters, error messages)
//! are `%XX`-escaped so a record never spans lines and tokens never contain
//! spaces. Appends are fsync'd (configurable), so a record that made it to
//! disk is complete or absent. Recovery scans the file front to back and
//! stops at the first line that fails to decode — a torn tail (the partial
//! record a SIGKILL or power loss can leave) is dropped and truncated away,
//! and every record before it is kept.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use transyt_session::content_hash;

use crate::codec::{escape, unescape};
use crate::job::JobStatus;

/// One journal record: a model interning, a job submission, a job state
/// transition or an eviction. The grammar is documented in `docs/SERVER.md`
/// ("Persistence & recovery").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A model was interned; its text lives at `models/<hash>.model`.
    Model {
        /// The model's content hash.
        hash: String,
    },
    /// A job was submitted. `id` is the job's stable index, `params` the
    /// textual `(name, value)` pairs [`TaskSpec::parse`] lowers (the same
    /// vocabulary the server's query strings use), so replay re-normalizes
    /// through exactly the submission path.
    ///
    /// [`TaskSpec::parse`]: transyt_session::TaskSpec::parse
    Job {
        /// The job id (dense: the submission index).
        id: usize,
        /// The command name (`verify` / `reach` / `zones`).
        command: String,
        /// The model's content hash.
        model: String,
        /// Textual task parameters.
        params: Vec<(String, String)>,
        /// The scheduling class name (`interactive` / `batch` /
        /// `background`); empty when the submission predates priorities
        /// (the server then applies its default class).
        prio: String,
    },
    /// The job moved to `status` (a `run`, `done`, `fail`, `cancel`,
    /// `timeout` or `budget` line).
    Status {
        /// The job id.
        id: usize,
        /// The new lifecycle state.
        status: JobStatus,
    },
    /// The job's stored result document was garbage-collected (LRU cap or
    /// TTL); fetches answer `410 Gone` after replay, like before the
    /// restart.
    Evict {
        /// The job id.
        id: usize,
    },
}

fn encode_params(params: &[(String, String)]) -> String {
    if params.is_empty() {
        return "-".to_owned();
    }
    params
        .iter()
        .map(|(name, value)| format!("{}={}", escape(name), escape(value)))
        .collect::<Vec<_>>()
        .join("&")
}

fn decode_params(field: &str) -> Vec<(String, String)> {
    if field == "-" {
        return Vec::new();
    }
    field
        .split('&')
        .map(|pair| match pair.split_once('=') {
            Some((name, value)) => (unescape(name), unescape(value)),
            None => (unescape(pair), String::new()),
        })
        .collect()
}

fn encode_text(text: &str) -> String {
    if text.is_empty() {
        "-".to_owned()
    } else {
        escape(text)
    }
}

fn decode_text(field: &str) -> String {
    if field == "-" {
        String::new()
    } else {
        unescape(field)
    }
}

impl Record {
    /// Encodes the record as its checksummed journal line (trailing `\n`).
    /// A `Queued` status encodes to the empty string: the `job` line already
    /// implies it, so it is never journaled.
    pub fn encode(&self) -> String {
        let body = match self {
            Record::Model { hash } => format!("v1 model {hash}"),
            Record::Job {
                id,
                command,
                model,
                params,
                prio,
            } => format!(
                "v1 job {id} {command} {model} {} {}",
                encode_params(params),
                encode_text(prio)
            ),
            Record::Status { id, status } => match status {
                JobStatus::Queued => return String::new(),
                JobStatus::Running => format!("v1 run {id}"),
                JobStatus::Done { result } => format!("v1 done {id} {result}"),
                JobStatus::Failed { error } => format!("v1 fail {id} {}", encode_text(error)),
                JobStatus::Cancelled => format!("v1 cancel {id}"),
                JobStatus::TimedOut => format!("v1 timeout {id}"),
                JobStatus::BudgetExceeded {
                    resource,
                    used,
                    limit,
                } => format!("v1 budget {id} {} {used} {limit}", encode_text(resource)),
            },
            Record::Evict { id } => format!("v1 evict {id}"),
        };
        let crc = content_hash(&body);
        format!("{body} {crc}\n")
    }

    /// Decodes one journal line (without the trailing `\n`). `None` for
    /// torn, corrupted or checksum-mismatching lines.
    pub fn decode(line: &str) -> Option<Record> {
        let (body, crc) = line.rsplit_once(' ')?;
        if content_hash(body) != crc {
            return None;
        }
        let mut tokens = body.split(' ');
        if tokens.next()? != "v1" {
            return None;
        }
        let kind = tokens.next()?;
        fn id(tokens: &mut std::str::Split<'_, char>) -> Option<usize> {
            tokens.next()?.parse().ok()
        }
        let record = match kind {
            "model" => Record::Model {
                hash: tokens.next()?.to_owned(),
            },
            "job" => Record::Job {
                id: id(&mut tokens)?,
                command: tokens.next()?.to_owned(),
                model: tokens.next()?.to_owned(),
                params: decode_params(tokens.next()?),
                // Absent in pre-priority journals: decode to "unspecified"
                // so old data dirs replay cleanly.
                prio: tokens.next().map(decode_text).unwrap_or_default(),
            },
            "evict" => Record::Evict {
                id: id(&mut tokens)?,
            },
            _ => Record::Status {
                id: id(&mut tokens)?,
                status: match kind {
                    "run" => JobStatus::Running,
                    "done" => JobStatus::Done {
                        result: tokens.next()?.to_owned(),
                    },
                    "fail" => JobStatus::Failed {
                        error: decode_text(tokens.next()?),
                    },
                    "cancel" => JobStatus::Cancelled,
                    "timeout" => JobStatus::TimedOut,
                    "budget" => JobStatus::BudgetExceeded {
                        resource: decode_text(tokens.next()?),
                        used: id(&mut tokens)?,
                        limit: id(&mut tokens)?,
                    },
                    _ => return None,
                },
            },
        };
        tokens.next().is_none().then_some(record)
    }
}

/// Size counters of a [`Journal`], served through `/healthz`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records currently in the journal file.
    pub entries: u64,
    /// Bytes currently in the journal file.
    pub bytes: u64,
    /// Records right after the last compaction (or open).
    pub compacted_entries: u64,
    /// Bytes right after the last compaction (or open) — the baseline the
    /// size-triggered rewrite compares against.
    pub compacted_bytes: u64,
    /// Torn-tail bytes dropped when the journal was opened.
    pub torn_bytes_dropped: u64,
}

/// A journal only compacts once it outgrows this floor (small journals are
/// not worth rewriting).
pub const COMPACT_MIN_BYTES: u64 = 64 * 1024;

struct JournalInner {
    file: File,
    stats: JournalStats,
}

/// The open write-ahead journal: replay happens at [`Journal::open`];
/// afterwards records are appended one fsync'd line at a time and
/// [`Journal::rewrite`] compacts the file in place (atomic rename).
pub struct Journal {
    path: PathBuf,
    fsync: bool,
    inner: Mutex<JournalInner>,
}

/// Scans raw journal bytes: the decoded records of the longest valid prefix,
/// plus that prefix's byte length.
fn scan(bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let line = &bytes[pos..pos + nl];
        let Some(record) = std::str::from_utf8(line).ok().and_then(Record::decode) else {
            break;
        };
        records.push(record);
        pos += nl + 1;
    }
    (records, pos as u64)
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replays it and truncates
    /// away any torn tail. Returns the journal and the replayed records.
    ///
    /// # Errors
    ///
    /// Filesystem errors opening, reading or truncating the file.
    pub fn open(path: &Path, fsync: bool) -> io::Result<(Journal, Vec<Record>)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = scan(&bytes);
        let dropped = bytes.len() as u64 - valid_len;
        if dropped > 0 {
            // Drop the torn tail so the next append starts a well-formed
            // line.
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let stats = JournalStats {
            entries: records.len() as u64,
            bytes: valid_len,
            compacted_entries: records.len() as u64,
            compacted_bytes: valid_len,
            torn_bytes_dropped: dropped,
        };
        Ok((
            Journal {
                path: path.to_path_buf(),
                fsync,
                inner: Mutex::new(JournalInner { file, stats }),
            },
            records,
        ))
    }

    /// Replays the journal at `path` without opening it for writing and
    /// without truncating a torn tail — the read-only path behind
    /// `transyt store ls`, safe to run next to a live server. Returns the
    /// valid records and the number of trailing bytes that failed to decode.
    ///
    /// # Errors
    ///
    /// Filesystem errors reading the file (a missing journal is empty, not
    /// an error).
    pub fn replay(path: &Path) -> io::Result<(Vec<Record>, u64)> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (records, valid_len) = scan(&bytes);
        Ok((records, bytes.len() as u64 - valid_len))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JournalInner> {
        self.inner.lock().expect("journal poisoned")
    }

    /// Appends one record's line (fsync'd when the journal was opened with
    /// fsync); a record that encodes to no line writes nothing.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing or syncing.
    pub fn append(&self, record: &Record) -> io::Result<()> {
        let line = record.encode();
        if line.is_empty() {
            return Ok(());
        }
        let mut inner = self.lock();
        inner.file.write_all(line.as_bytes())?;
        if self.fsync {
            inner.file.sync_data()?;
        }
        inner.stats.entries += 1;
        inner.stats.bytes += line.len() as u64;
        Ok(())
    }

    /// Compacts the journal to exactly `records` via an atomic temp-file +
    /// rename rewrite, resetting the size baseline the next
    /// [`should_compact`](Self::should_compact) compares against.
    ///
    /// # Errors
    ///
    /// Filesystem errors writing the replacement file.
    pub fn rewrite(&self, records: &[Record]) -> io::Result<()> {
        let mut content = String::new();
        for record in records {
            content.push_str(&record.encode());
        }
        let mut inner = self.lock();
        crate::fsio::write_atomic(&self.path, content.as_bytes(), self.fsync)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.stats.entries = content.matches('\n').count() as u64;
        inner.stats.bytes = content.len() as u64;
        inner.stats.compacted_entries = inner.stats.entries;
        inner.stats.compacted_bytes = inner.stats.bytes;
        Ok(())
    }

    /// `true` once the journal has grown past [`COMPACT_MIN_BYTES`] *and*
    /// past 4× its size at the last compaction — the size trigger for a
    /// [`rewrite`](Self::rewrite).
    pub fn should_compact(&self) -> bool {
        let stats = self.lock().stats;
        stats.bytes > COMPACT_MIN_BYTES && stats.bytes > 4 * stats.compacted_bytes.max(1)
    }

    /// Current size counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRecord;

    fn run(id: usize) -> Record {
        Record::Status {
            id,
            status: JobStatus::Running,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Model {
                hash: "00ff00ff00ff00ff".to_owned(),
            },
            Record::Job {
                id: 0,
                command: "zones".to_owned(),
                model: "00ff00ff00ff00ff".to_owned(),
                params: vec![
                    ("threads".to_owned(), "2".to_owned()),
                    ("trace".to_owned(), "true".to_owned()),
                ],
                prio: "interactive".to_owned(),
            },
            Record::Status {
                id: 0,
                status: JobStatus::Running,
            },
            Record::Status {
                id: 0,
                status: JobStatus::Done {
                    result: "a1b2c3d4e5f60718".to_owned(),
                },
            },
            Record::Job {
                id: 1,
                command: "verify".to_owned(),
                model: "00ff00ff00ff00ff".to_owned(),
                params: Vec::new(),
                prio: String::new(),
            },
            Record::Status {
                id: 1,
                status: JobStatus::Failed {
                    error: "model error: no `property` line & spaces".to_owned(),
                },
            },
            Record::Status {
                id: 2,
                status: JobStatus::Cancelled,
            },
            Record::Status {
                id: 3,
                status: JobStatus::TimedOut,
            },
            Record::Status {
                id: 4,
                status: JobStatus::BudgetExceeded {
                    resource: "zone-bytes".to_owned(),
                    used: 1_048_640,
                    limit: 1_048_576,
                },
            },
            Record::Evict { id: 0 },
        ]
    }

    #[test]
    fn pre_priority_job_lines_still_decode() {
        // The PR-9 wire shape, without the trailing prio token.
        let body = "v1 job 3 verify 00ff00ff00ff00ff threads=2";
        let line = format!("{body} {}", content_hash(body));
        assert_eq!(
            Record::decode(&line),
            Some(Record::Job {
                id: 3,
                command: "verify".to_owned(),
                model: "00ff00ff00ff00ff".to_owned(),
                params: vec![("threads".to_owned(), "2".to_owned())],
                prio: String::new(),
            })
        );
    }

    #[test]
    fn records_encode_to_checksummed_lines_and_round_trip() {
        for record in sample_records() {
            let line = record.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "{line}");
            let decoded = Record::decode(line.trim_end_matches('\n')).unwrap();
            assert_eq!(decoded, record);
        }
        // A flipped byte fails the checksum.
        let line = run(7).encode();
        let tampered = line.replace("run 7", "run 8");
        assert_eq!(Record::decode(tampered.trim_end_matches('\n')), None);
        assert_eq!(Record::decode(""), None);
        assert_eq!(Record::decode("v1 run"), None);
    }

    #[test]
    fn open_replays_appends_and_truncates_torn_tails() {
        let dir = crate::test_dir("journal");
        let path = dir.join("journal.log");
        {
            let (journal, replayed) = Journal::open(&path, true).unwrap();
            assert!(replayed.is_empty());
            for record in sample_records() {
                journal.append(&record).unwrap();
            }
        }
        // Simulate a torn write: a partial record without checksum/newline.
        let mut bytes = fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(b"v1 done 9 a1b2");
        fs::write(&path, &bytes).unwrap();

        let (journal, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, sample_records());
        let stats = journal.stats();
        assert_eq!(stats.torn_bytes_dropped, 14);
        assert_eq!(stats.bytes as usize, intact);
        // The torn tail is physically gone: appends after recovery decode.
        journal.append(&run(4)).unwrap();
        drop(journal);
        let (reopened, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed.len(), sample_records().len() + 1);
        assert_eq!(reopened.stats().torn_bytes_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_line_drops_that_line_and_everything_after() {
        let dir = crate::test_dir("journal-corrupt");
        let path = dir.join("journal.log");
        let good = run(1).encode();
        let bad = "v1 run 2 0000000000000000\n"; // wrong checksum
        let after = run(3).encode();
        fs::write(&path, format!("{good}{bad}{after}")).unwrap();
        let (journal, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, vec![run(1)]);
        assert_eq!(
            journal.stats().torn_bytes_dropped as usize,
            bad.len() + after.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_compacts_and_resets_the_size_trigger() {
        let dir = crate::test_dir("journal-compact");
        let path = dir.join("journal.log");
        let (journal, _) = Journal::open(&path, false).unwrap();
        let filler = Record::Status {
            id: 0,
            status: JobStatus::Failed {
                error: "x".repeat(200),
            },
        };
        while !journal.should_compact() {
            journal.append(&filler).unwrap();
        }
        assert!(journal.stats().bytes > COMPACT_MIN_BYTES);
        journal.rewrite(&[run(0)]).unwrap();
        assert!(!journal.should_compact());
        let stats = journal.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.compacted_bytes, stats.bytes);
        // The rewritten file replays to exactly the compacted records, and
        // post-compaction appends land after them.
        let cancel = Record::Status {
            id: 0,
            status: JobStatus::Cancelled,
        };
        journal.append(&cancel).unwrap();
        drop(journal);
        let (_, replayed) = Journal::open(&path, false).unwrap();
        assert_eq!(replayed, vec![run(0), cancel]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One line per record kind plus a pre-priority `job` line, exactly as
    /// the encoder before the shared `JobStatus` wrote them. Each must
    /// decode to the current types and re-encode to the bytes that encoder
    /// wrote.
    const GOLDEN_LINES: &[&str] = &[
        "v1 model 5a0c3d1e9b7f2468 26677443c204d557",
        "v1 job 0 verify 5a0c3d1e9b7f2468 threads=2&trace=true interactive 8a05996044c89380",
        "v1 job 1 zones 5a0c3d1e9b7f2468 - - 7d46f7fac569f0e1",
        "v1 job 3 verify 00ff00ff00ff00ff threads=2 e4be60f427b4a7f7",
        "v1 run 0 741c4ff7206a71a5",
        "v1 done 0 a1b2c3d4e5f60718 68d7dbfe0360ab5a",
        "v1 fail 1 model%20error%3A%20no%20%60property%60%20line%20%26%20spaces 8b1da1b8c7ad2483",
        "v1 cancel 2 d9e5ad1b59ce360c",
        "v1 timeout 3 c6789d90d9eb5a46",
        "v1 budget 4 zone-bytes 1048640 1048576 2ed374a386797a83",
        "v1 evict 0 133e81025fcc3301",
    ];

    #[test]
    fn golden_lines_decode_and_re_encode_byte_for_byte() {
        let s = |text: &str| text.to_owned();
        let status = |id, status| Record::Status { id, status };
        let expected = vec![
            Record::Model {
                hash: s("5a0c3d1e9b7f2468"),
            },
            Record::Job {
                id: 0,
                command: s("verify"),
                model: s("5a0c3d1e9b7f2468"),
                params: vec![(s("threads"), s("2")), (s("trace"), s("true"))],
                prio: s("interactive"),
            },
            Record::Job {
                id: 1,
                command: s("zones"),
                model: s("5a0c3d1e9b7f2468"),
                params: Vec::new(),
                prio: String::new(),
            },
            Record::Job {
                id: 3,
                command: s("verify"),
                model: s("00ff00ff00ff00ff"),
                params: vec![(s("threads"), s("2"))],
                prio: String::new(),
            },
            status(0, JobStatus::Running),
            status(
                0,
                JobStatus::Done {
                    result: s("a1b2c3d4e5f60718"),
                },
            ),
            status(
                1,
                JobStatus::Failed {
                    error: s("model error: no `property` line & spaces"),
                },
            ),
            status(2, JobStatus::Cancelled),
            status(3, JobStatus::TimedOut),
            status(
                4,
                JobStatus::BudgetExceeded {
                    resource: s("zone-bytes"),
                    used: 1_048_640,
                    limit: 1_048_576,
                },
            ),
            Record::Evict { id: 0 },
        ];
        assert_eq!(GOLDEN_LINES.len(), expected.len());
        for (line, record) in GOLDEN_LINES.iter().zip(&expected) {
            assert_eq!(Record::decode(line).as_ref(), Some(record), "{line}");
            let reencoded = record.encode();
            // The pre-priority line re-encodes with an explicit empty class
            // token, as the previous encoder also did; every other line
            // comes back byte for byte.
            if line.starts_with("v1 job 3 ") {
                assert_eq!(
                    reencoded,
                    "v1 job 3 verify 00ff00ff00ff00ff threads=2 - 26c322b8dc70c1e8\n"
                );
            } else {
                assert_eq!(reencoded, format!("{line}\n"));
            }
        }
        // `Queued` is implied by the `job` line and never journaled.
        assert_eq!(status(0, JobStatus::Queued).encode(), "");
    }

    /// A journal as the encoder before the shared `JobStatus` wrote it,
    /// with a duplicate model record, out-of-order and unknown ids, and
    /// transitions on already-terminal jobs.
    const GOLDEN_JOURNAL: &str = "\
v1 model 00ff00ff00ff00ff a25555776497957f
v1 model 00ff00ff00ff00ff a25555776497957f
v1 job 0 verify 00ff00ff00ff00ff threads=1 batch b8cca656dcf2952b
v1 job 1 zones 00ff00ff00ff00ff threads=1 interactive f4814e6d7cca5732
v1 job 5 zones 00ff00ff00ff00ff threads=1 batch 94e3de5d3bd79602
v1 run 0 741c4ff7206a71a5
v1 done 0 fp0 e62ff84c7818b95a
v1 cancel 0 d9e5af1b59ce3972
v1 run 1 741c4ef7206a6ff2
v1 evict 0 133e81025fcc3301
v1 run 99 b6a578ec14f39729
v1 job 2 zones 00ff00ff00ff00ff threads=1 - fb7f384a442374fa
v1 budget 2 configs 5001 5000 4c90f2db063cd353
v1 job 3 reach 00ff00ff00ff00ff threads=1 background 2fa558d1fdc2ce08
v1 fail 3 expanding%20%60m%60%3A%20too%20many%20markings e37540e36ab77764
v1 done 3 fp3 401594b8c352f2ca
v1 job 4 verify 00ff00ff00ff00ff threads=1 batch fe35b420c9a35747
v1 run 4 741c4bf7206a6ad9
v1 timeout 4 c678a090d9eb5f5f
v1 job 5 verify 00ff00ff00ff00ff threads=1 batch b2ac092da08c8d54
v1 cancel 5 d9e5ac1b59ce3459
v1 run 5 741c4af7206a6926
";

    #[test]
    fn a_golden_journal_folds_to_the_expected_job_table() {
        let (records, valid) = scan(GOLDEN_JOURNAL.as_bytes());
        assert_eq!(valid as usize, GOLDEN_JOURNAL.len(), "every line decodes");
        // Re-encoding the decoded records reproduces the file exactly.
        let reencoded: String = records.iter().map(Record::encode).collect();
        assert_eq!(reencoded, GOLDEN_JOURNAL);

        let (models, jobs) = crate::job::fold(&records);
        assert_eq!(models, vec!["00ff00ff00ff00ff"]);
        let job = |id, command: &str, prio: &str, status, evicted| JobRecord {
            id,
            command: command.to_owned(),
            model: "00ff00ff00ff00ff".to_owned(),
            params: vec![("threads".to_owned(), "1".to_owned())],
            prio: prio.to_owned(),
            status,
            evicted,
        };
        let expected = vec![
            job(
                0,
                "verify",
                "batch",
                JobStatus::Done {
                    result: "fp0".to_owned(),
                },
                true,
            ),
            job(1, "zones", "interactive", JobStatus::Running, false),
            job(
                2,
                "zones",
                "",
                JobStatus::BudgetExceeded {
                    resource: "configs".to_owned(),
                    used: 5_001,
                    limit: 5_000,
                },
                false,
            ),
            job(
                3,
                "reach",
                "background",
                JobStatus::Failed {
                    error: "expanding `m`: too many markings".to_owned(),
                },
                false,
            ),
            job(4, "verify", "batch", JobStatus::TimedOut, false),
            job(5, "verify", "batch", JobStatus::Cancelled, false),
        ];
        assert_eq!(jobs, expected);

        // The compacted image replays to the same table.
        let compacted = crate::job::compaction_records(&models, &jobs);
        let bytes: String = compacted.iter().map(Record::encode).collect();
        let (replayed, _) = scan(bytes.as_bytes());
        assert_eq!(crate::job::fold(&replayed), (models, jobs));
    }
}
