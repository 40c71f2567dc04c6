//! Spans recorded in memory around the program's public seams, plus the
//! two seam wrappers that produce them: a timing [`RoundBackend`] and a
//! timing [`Vfs`]. Nothing inside the program is instrumented.

use crate::stats::{self, Interval};
use fedrlnas_core::{RoundBackend, RoundOutcome, RoundRequest, StdVfs, Vfs};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// Trace id shared by the layer probes that run after the timed rounds.
pub const PROBE_TRACE: u32 = u32::MAX;

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The round it belongs to, or [`PROBE_TRACE`].
    pub trace: u32,
    /// Index in the recorder.
    pub id: usize,
    /// The span that caused it; `None` for a root.
    pub parent: Option<usize>,
    /// Layer boundary name (`round`, `backend`, `vfs.fsync`, `probe.gemm`…).
    pub name: &'static str,
    /// When it ran, in ns since the recorder's epoch.
    pub at: Interval,
}

/// All spans of one run, kept in memory and written out at the end.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The clock every span of the run is measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        since(self.epoch)
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        trace: u32,
        parent: Option<usize>,
        name: &'static str,
        at: Interval,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            at,
        });
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        trace: u32,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(trace, parent, name, Interval { start, end });
        out
    }

    /// Every recorded span, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Duration of span `id` minus what its children cover.
    pub fn self_time(&self, id: usize) -> u64 {
        let children: Vec<Interval> = self.children(id).map(|s| s.at).collect();
        stats::self_time(self.spans[id].at, &children)
    }

    /// Writes one JSON object per span; `run` prefixes every trace id so
    /// spans of one round share `<run>:r<round>`.
    pub fn write_jsonl(&self, path: &Path, run: &str) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let trace = if s.trace == PROBE_TRACE {
                format!("{run}:probe")
            } else {
                format!("{run}:r{}", s.trace)
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":\"{trace}\",\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.at.start,
                s.at.end,
                self.self_time(s.id)
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// What the timing backend saw in one round.
#[derive(Debug)]
pub struct BackendSample {
    /// The `backend` span; `None` when the round was not traced.
    pub span: Option<Interval>,
    /// Replies from earlier rounds that surfaced in this one.
    pub late: usize,
    /// Measured first download frame per participant (traced rounds).
    pub frame_bytes: Vec<u64>,
    /// Sampled downlink bandwidth per participant (traced rounds).
    pub bandwidths_mbps: Vec<f64>,
}

/// A [`RoundBackend`] that forwards to the installed one and reports each
/// round's span and reply counts over a channel.
pub struct TimingBackend {
    inner: Box<dyn RoundBackend>,
    epoch: Instant,
    traced: Arc<AtomicBool>,
    samples: Sender<BackendSample>,
}

impl TimingBackend {
    /// Wraps `inner`. `traced` is read at the start of every round; the
    /// benchmark flips it between rounds on the thread that drives them,
    /// so the flag publishes no other data and `Relaxed` suffices.
    pub fn new(
        inner: Box<dyn RoundBackend>,
        epoch: Instant,
        traced: Arc<AtomicBool>,
        samples: Sender<BackendSample>,
    ) -> Self {
        TimingBackend {
            inner,
            epoch,
            traced,
            samples,
        }
    }
}

impl RoundBackend for TimingBackend {
    fn run_round(&mut self, request: RoundRequest<'_>) -> RoundOutcome {
        let traced = self.traced.load(Ordering::Relaxed);
        let bandwidths_mbps = if traced {
            request.bandwidths_mbps.to_vec()
        } else {
            Vec::new()
        };
        let start = traced.then(|| since(self.epoch));
        let out = self.inner.run_round(request);
        let span = start.map(|start| Interval {
            start,
            end: since(self.epoch),
        });
        // the receiver lives as long as the run; a send can only fail
        // while the benchmark is already tearing down
        let _ = self.samples.send(BackendSample {
            span,
            late: out.late.len(),
            frame_bytes: if traced {
                out.download_frame_bytes.clone()
            } else {
                Vec::new()
            },
            bandwidths_mbps,
        });
        out
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn collect_residuals(&mut self) -> Option<Vec<Vec<f32>>> {
        self.inner.collect_residuals()
    }
}

/// A [`Vfs`] over the real filesystem that times every mutating call.
#[derive(Debug)]
pub struct TimingVfs {
    inner: StdVfs,
    epoch: Instant,
    /// `(span name, interval)` of each operation, in call order.
    pub ops: Vec<(&'static str, Interval)>,
    /// Bytes handed to `write_file`.
    pub bytes_written: u64,
}

impl TimingVfs {
    /// A recorder on the same clock as the run's [`Spans`].
    pub fn new(epoch: Instant) -> Self {
        TimingVfs {
            inner: StdVfs,
            epoch,
            ops: Vec::new(),
            bytes_written: 0,
        }
    }

    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut StdVfs) -> T) -> T {
        let start = since(self.epoch);
        let out = f(&mut self.inner);
        let end = since(self.epoch);
        self.ops.push((name, Interval { start, end }));
        out
    }
}

impl Vfs for TimingVfs {
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.bytes_written += bytes.len() as u64;
        self.timed("vfs.write", |v| v.write_file(path, bytes))
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        self.timed("vfs.fsync", |v| v.fsync(path))
    }

    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.timed("vfs.fsync_dir", |v| v.fsync_dir(dir))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed("vfs.rename", |v| v.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.timed("vfs.remove", |v| v.remove(path))
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.timed("vfs.create_dir_all", |v| v.create_dir_all(dir))
    }
}
