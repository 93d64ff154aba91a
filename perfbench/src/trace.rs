//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is opened before a layer call and closed after it; progress
//! events the call emits through its `ProgressSink` become zero-length
//! child spans, which splits one call into phases without tracing inside
//! the program. All spans of one job share the job id. Spans stay in memory
//! and are written out once, when the run ends. With tracing off every
//! method is a no-op and sinks are inert.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use explore::{ProgressEvent, ProgressSink};

#[derive(Debug, Clone)]
pub struct Span {
    pub job: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }

    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

#[derive(Clone)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span list poisoned")
    }

    /// Opens a span; returns its id (meaningless when tracing is off).
    pub fn open(&self, job: u64, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            job,
            parent,
            name,
            start_us,
            end_us: start_us,
            attrs: Vec::new(),
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize, attrs: &[(&'static str, f64)]) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        let mut spans = self.lock();
        let span = &mut spans[id];
        span.end_us = end_us;
        span.attrs.extend_from_slice(attrs);
    }

    /// Runs `call` inside a span named `name`.
    pub fn within<T>(
        &self,
        job: u64,
        parent: Option<usize>,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(job, parent, name);
        let out = call();
        self.close(id, &[]);
        out
    }

    /// A point span (start = end) with attributes.
    pub fn point(
        &self,
        job: u64,
        parent: Option<usize>,
        name: &'static str,
        attrs: &[(&'static str, f64)],
    ) {
        let id = self.open(job, parent, name);
        if self.enabled {
            self.lock()[id].attrs.extend_from_slice(attrs);
        }
    }

    /// A progress sink recording every event as a point span under
    /// `parent`; inert when tracing is off.
    pub fn sink(&self, job: u64, parent: usize) -> ProgressSink {
        if !self.enabled {
            return ProgressSink::default();
        }
        let tracer = self.clone();
        ProgressSink::new(move |event: &ProgressEvent| {
            let parent = Some(parent);
            match *event {
                ProgressEvent::Batch {
                    expanded,
                    discovered,
                    subsumption_skips,
                } => tracer.point(
                    job,
                    parent,
                    "progress.batch",
                    &[
                        ("expanded", expanded as f64),
                        ("discovered", discovered as f64),
                        ("subsumption_skips", subsumption_skips as f64),
                    ],
                ),
                ProgressEvent::Level { index, frontier } => tracer.point(
                    job,
                    parent,
                    "progress.level",
                    &[("index", index as f64), ("frontier", frontier as f64)],
                ),
                ProgressEvent::Refinement { iteration } => tracer.point(
                    job,
                    parent,
                    "progress.refinement",
                    &[("iteration", iteration as f64)],
                ),
                ProgressEvent::Cancelled { expanded } => tracer.point(
                    job,
                    parent,
                    "progress.cancelled",
                    &[("expanded", expanded as f64)],
                ),
            }
        })
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        for (id, span) in self.lock().iter().enumerate() {
            let attrs: Vec<String> = span
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{id},\"job\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"attrs\":{{{}}}}}",
                span.job,
                span.parent.map_or("null".to_owned(), |p| p.to_string()),
                span.name,
                span.start_us,
                span.end_us,
                attrs.join(",")
            )?;
        }
        out.flush()
    }
}

/// Queries over a finished span list.
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.0
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    pub fn events(&self, parent: usize) -> Vec<&Span> {
        self.0
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name.starts_with("progress."))
            .collect()
    }
}
