//! `ule-obs` — observability for the ULE asymmetric-crypto design-space
//! repro: a structured event layer, a flat versioned metrics registry,
//! and the hand-rolled JSON plumbing both are built on.
//!
//! # Design
//!
//! - **Null sink by default, one branch on hot paths.** Event emission
//!   is gated by a process-global [`AtomicBool`]; when no sink is
//!   installed (the default), [`enabled`] is `false` and the
//!   [`obs_event!`] macro evaluates none of its field expressions — the
//!   cost in instrumented loops is a single relaxed atomic load and a
//!   predictable branch.
//! - **JSONL sink for `--trace`.** [`JsonlFileSink`] appends one JSON
//!   object per event with a sequence number, microsecond timestamp
//!   relative to sink installation, and the OS thread that emitted it.
//! - **Flat, versioned metrics.** [`record::Record`] /
//!   [`record::MetricsRegistry`] snapshot counter structs into flat
//!   key/value records carrying [`record::SCHEMA_VERSION`]; the schema
//!   is pinned by golden-file tests in `ule-bench`.
//! - **Zero external dependencies.** JSON is written by hand
//!   ([`json::JsonBuf`]) and checked by a tiny validator
//!   ([`json::is_valid`]), keeping the workspace's offline-build
//!   policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flame;
pub mod flight;
pub mod hist;
pub mod json;
pub mod pool;
pub mod progress;
pub mod record;
pub mod trace_events;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A dynamically typed event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialized as `null` when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// A pre-serialized JSON fragment, spliced in verbatim.
    Raw(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Receives structured events from the instrumented crates.
pub trait EventSink: Send {
    /// Handles one event. `kind` is a short static tag
    /// (e.g. `"sweep.job"`); `fields` are flat key/value pairs.
    fn event(&mut self, kind: &str, fields: &[(&str, Value)]);
    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// Fast-path gate: true iff a sink is installed. Instrumented loops
/// check this (one relaxed load) before building any event fields.
static ENABLED: AtomicBool = AtomicBool::new(false);

static SINK: Mutex<Option<Box<dyn EventSink>>> = Mutex::new(None);

/// True iff an event sink is installed. The [`obs_event!`] and
/// [`obs_span!`] macros check this so the null-sink cost is one branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the process-global event sink, replacing (and
/// flushing) any previous one.
pub fn set_sink(sink: Box<dyn EventSink>) {
    let mut s = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(old) = s.replace(sink) {
        drop_flushed(old);
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Removes the installed sink (flushing it) and restores the free null
/// sink.
pub fn clear_sink() {
    let mut s = SINK.lock().unwrap_or_else(|p| p.into_inner());
    ENABLED.store(false, Ordering::SeqCst);
    if let Some(old) = s.take() {
        drop_flushed(old);
    }
}

fn drop_flushed(mut sink: Box<dyn EventSink>) {
    sink.flush();
}

/// Delivers one event to the installed sink, if any. Prefer the
/// [`obs_event!`] macro, which skips field construction when disabled.
pub fn emit(kind: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let mut s = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(sink) = s.as_mut() {
        sink.event(kind, fields);
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    let mut s = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(sink) = s.as_mut() {
        sink.flush();
    }
}

/// Emits a `warn` event and mirrors it on stderr (so warnings surface
/// even under the null sink). Prefer [`obs_warn_once!`] at call sites
/// that can fire per-job.
pub fn warn(msg: &str, fields: &[(&str, Value)]) {
    eprintln!("warning: {msg}");
    if enabled() {
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("message", Value::Str(msg.to_owned())));
        all.extend_from_slice(fields);
        emit("warn", &all);
    }
}

/// Emits a structured event iff a sink is installed. Field expressions
/// are not evaluated under the null sink.
///
/// ```
/// ule_obs::obs_event!("sweep.job", id = 3u64, memo_hit = false);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit($kind, &[
                $((stringify!($key), $crate::Value::from($val)),)*
            ]);
        }
    };
}

/// Emits a warning (stderr + `warn` event) at most once per call site,
/// no matter how many threads race through it.
#[macro_export]
macro_rules! obs_warn_once {
    ($msg:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        static ONCE: ::std::sync::Once = ::std::sync::Once::new();
        ONCE.call_once(|| {
            $crate::warn($msg, &[
                $((stringify!($key), $crate::Value::from($val)),)*
            ]);
        });
    }};
}

/// Starts a [`Span`] guard that emits `<kind>` with a `dur_us` field
/// when dropped. Returns a no-op guard under the null sink.
pub fn span(kind: &'static str) -> Span {
    Span {
        kind,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
        fields: Vec::new(),
    }
}

/// A drop guard measuring the wall-clock duration of a scope; see
/// [`span`].
#[must_use = "a span measures the scope it is held in"]
pub struct Span {
    kind: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// Attaches a field to the eventual span event. No-op under the
    /// null sink.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_us = start.elapsed().as_micros() as u64;
            let mut fields = std::mem::take(&mut self.fields);
            fields.push(("dur_us", Value::U64(dur_us)));
            emit(self.kind, &fields);
        }
    }
}

/// A sink that appends one JSON object per event to a writer (the
/// `--trace <path>` backend). Each line carries `seq` (per-sink event
/// number), `t_us` (microseconds since sink construction), `thread`
/// (OS thread name-or-id), `kind`, and the event's own fields.
pub struct JsonlFileSink<W: std::io::Write + Send> {
    out: W,
    epoch: Instant,
    seq: AtomicU64,
}

impl JsonlFileSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and returns a buffered sink over it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlFileSink::new(std::io::BufWriter::new(f)))
    }
}

impl<W: std::io::Write + Send> JsonlFileSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlFileSink {
            out,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// The name of the calling OS thread, or its id when unnamed — the
/// `thread` field of every serialized event line.
pub(crate) fn current_thread_label() -> String {
    std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{:?}", std::thread::current().id()))
}

/// Serializes one event into the canonical JSONL line shape shared by
/// [`JsonlFileSink`] and the flight recorder: `seq`, `t_us`, `thread`,
/// `kind`, then the event's own fields.
pub(crate) fn event_line(
    seq: u64,
    t_us: u64,
    thread: &str,
    kind: &str,
    fields: &[(&str, Value)],
) -> String {
    let mut b = json::JsonBuf::new();
    b.begin_object();
    b.key("seq").value_u64(seq);
    b.key("t_us").value_u64(t_us);
    b.key("thread").value_str(thread);
    b.key("kind").value_str(kind);
    for (k, v) in fields {
        b.key(k);
        match v {
            Value::U64(n) => b.value_u64(*n),
            Value::I64(n) => b.value_i64(*n),
            Value::F64(n) => b.value_f64(*n),
            Value::Bool(x) => b.value_bool(*x),
            Value::Str(s) => b.value_str(s),
            Value::Raw(j) => b.value_raw(j),
        };
    }
    b.end_object();
    b.finish()
}

impl<W: std::io::Write + Send> EventSink for JsonlFileSink<W> {
    fn event(&mut self, kind: &str, fields: &[(&str, Value)]) {
        let line = event_line(
            self.seq.fetch_add(1, Ordering::Relaxed),
            self.epoch.elapsed().as_micros() as u64,
            &current_thread_label(),
            kind,
            fields,
        );
        let _ = writeln!(self.out, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// One event collected by a [`VecSink`]: `(kind, fields)`.
pub type CollectedEvent = (String, Vec<(String, Value)>);

/// A sink that collects events in memory — test support.
#[derive(Default)]
pub struct VecSink {
    shared: std::sync::Arc<Mutex<Vec<CollectedEvent>>>,
}

impl VecSink {
    /// A fresh sink plus a shared handle to the events it will collect.
    pub fn new() -> (Self, std::sync::Arc<Mutex<Vec<CollectedEvent>>>) {
        let sink = VecSink::default();
        let handle = sink.shared.clone();
        (sink, handle)
    }
}

impl EventSink for VecSink {
    fn event(&mut self, kind: &str, fields: &[(&str, Value)]) {
        let fields = fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect();
        self.shared
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((kind.to_owned(), fields));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is process-global, so everything that installs one runs
    // in this single test (Rust runs tests in parallel threads).
    #[test]
    fn sink_lifecycle_events_spans_and_jsonl() {
        assert!(!enabled());
        // Null sink: macro must not evaluate its fields.
        let mut evaluated = false;
        obs_event!(
            "x",
            v = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated);

        let (sink, events) = VecSink::new();
        set_sink(Box::new(sink));
        assert!(enabled());
        obs_event!("k", a = 7u64, b = "s");
        {
            let mut sp = span("phase");
            sp.field("tag", 1u64);
        }
        clear_sink();
        assert!(!enabled());
        obs_event!("dropped");

        let events = events.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, "k");
        assert_eq!(
            events[0].1,
            vec![
                ("a".to_owned(), Value::U64(7)),
                ("b".to_owned(), Value::Str("s".into()))
            ]
        );
        assert_eq!(events[1].0, "phase");
        assert_eq!(events[1].1[0], ("tag".to_owned(), Value::U64(1)));
        assert_eq!(events[1].1[1].0, "dur_us");

        // JSONL sink writes one valid object per event.
        let mut jsink = JsonlFileSink::new(Vec::new());
        jsink.event("k", &[("n", Value::U64(1)), ("s", Value::Str("x".into()))]);
        jsink.event("k2", &[]);
        let out = String::from_utf8(jsink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(json::is_valid(l), "{l}");
        }
        assert!(lines[0].contains(r#""kind":"k""#));
        assert!(lines[0].contains(r#""seq":0"#));
        assert!(lines[1].contains(r#""seq":1"#));
    }

    #[test]
    fn warn_once_fires_once() {
        static HITS: AtomicU64 = AtomicU64::new(0);
        for _ in 0..3 {
            // The Once is per call site; count via a side channel.
            obs_warn_once!("test warning (expected once in test output)");
            HITS.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(HITS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-3i32), Value::I64(-3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }
}
