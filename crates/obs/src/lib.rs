//! `ule-obs` — observability for the ULE asymmetric-crypto design-space
//! repro: a structured event layer, a flat versioned metrics registry,
//! and the hand-rolled JSON plumbing both are built on.
//!
//! # Design
//!
//! - **One recorder per run.** A [`Recorder`] owns one campaign's
//!   consumers: the `--trace` JSONL writer, the [`flight`] ring and its
//!   dump path, any [`EventSink`]s, and the [`progress`] reporter. A run
//!   makes it current on its thread with [`Recorder::enter`];
//!   [`obs_event!`], [`span`], [`warn`] and the progress hooks read the
//!   calling thread's current recorder, and [`pool::map`] carries it to
//!   every worker. No sink, reporter or ring is process-global: the
//!   panic hook (installed once) and the per-call-site
//!   [`obs_warn_once!`] latches are the only process-wide state.
//! - **One branch on hot paths without a consumer.** [`enabled`] is one
//!   thread-local load; without a consumer the [`obs_event!`] macro
//!   evaluates none of its field expressions and a span reads no clock.
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
mod recorder;
pub mod trace_events;

pub use recorder::{enabled, Entered, Recorder, RecorderBuilder};

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

/// An extra consumer of a [`Recorder`]'s events
/// ([`RecorderBuilder::sink`]).
pub trait EventSink: Send {
    /// Handles one event. `kind` is a short static tag
    /// (e.g. `"sweep.job"`); `fields` are flat key/value pairs.
    fn event(&mut self, kind: &str, fields: &[(&str, Value)]);
}

/// Locks `m`, recovering the data of a poisoned lock: a panic elsewhere
/// must not silence observability.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Emits a `warn` event to the current recorder and mirrors it on
/// stderr (so warnings surface without a consumer). Prefer
/// [`obs_warn_once!`] at call sites that can fire per-job.
pub fn warn(msg: &str, fields: &[(&str, Value)]) {
    eprintln!("warning: {msg}");
    if enabled() {
        let mut all = Vec::with_capacity(fields.len() + 1);
        all.push(("message", Value::Str(msg.to_owned())));
        all.extend_from_slice(fields);
        Recorder::emit_current("warn", &all);
    }
}

/// Emits a structured event to the calling thread's current recorder
/// iff it has a consumer. Field expressions are not evaluated without
/// one.
///
/// ```
/// ule_obs::obs_event!("sweep.job", id = 3u64, memo_hit = false);
/// ```
#[macro_export]
macro_rules! obs_event {
    ($kind:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Recorder::emit_current($kind, &[
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

/// Starts a [`Span`] guard that emits `<kind>` with a `dur_us` field to
/// the current recorder when dropped. Returns a no-op guard without a
/// consumer.
pub fn span(kind: &'static str) -> Span {
    Span {
        kind,
        start: enabled().then(Instant::now),
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
    /// Attaches a field to the eventual span event. No-op without a
    /// consumer.
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if self.start.is_some() {
            // Keep a free slot for `dur_us`, so the drop never allocates.
            self.fields.reserve(2);
            self.fields.push((key, value.into()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = ("dur_us", Value::U64(start.elapsed().as_micros() as u64));
            if self.fields.is_empty() {
                Recorder::emit_current(self.kind, &[dur]);
            } else {
                self.fields.push(dur);
                Recorder::emit_current(self.kind, &self.fields);
            }
        }
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
/// the trace writer and the flight ring: `seq`, `t_us`, `thread`,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// One event collected by a [`VecSink`]: `(kind, fields)`.
    pub(crate) type CollectedEvent = (String, Vec<(String, Value)>);

    /// A sink that collects events in memory.
    #[derive(Default)]
    pub(crate) struct VecSink {
        shared: std::sync::Arc<Mutex<Vec<CollectedEvent>>>,
    }

    impl VecSink {
        /// A fresh sink plus a shared handle to the events it will collect.
        pub(crate) fn new() -> (Self, std::sync::Arc<Mutex<Vec<CollectedEvent>>>) {
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
            lock(&self.shared).push((kind.to_owned(), fields));
        }
    }

    fn collecting() -> (Recorder, Arc<Mutex<Vec<CollectedEvent>>>) {
        let (sink, events) = VecSink::new();
        (Recorder::builder().sink(Box::new(sink)).build(), events)
    }

    #[test]
    fn without_a_consumer_fields_are_not_evaluated() {
        assert!(!enabled());
        let _in = Recorder::default().enter();
        assert!(!enabled(), "the default recorder has no consumer");
        let mut evaluated = false;
        obs_event!(
            "x",
            v = {
                evaluated = true;
                1u64
            }
        );
        assert!(!evaluated);
        let mut sp = span("phase");
        sp.field("tag", 1u64);
        assert!(sp.start.is_none(), "no clock read without a consumer");
    }

    #[test]
    fn events_and_spans_reach_the_entered_recorder_only_while_entered() {
        let (rec, events) = collecting();
        {
            let _in = rec.enter();
            assert!(enabled());
            obs_event!("k", a = 7u64, b = "s");
            let mut sp = span("phase");
            sp.field("tag", 1u64);
        }
        assert!(!enabled(), "leaving restores the previous recorder");
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
    }

    #[test]
    fn entering_nests() {
        let (outer, outer_events) = collecting();
        let (inner, inner_events) = collecting();
        let _o = outer.enter();
        {
            let _i = inner.enter();
            obs_event!("inner");
        }
        obs_event!("outer");
        assert_eq!(inner_events.lock().unwrap().len(), 1);
        let outer_events = outer_events.lock().unwrap();
        assert_eq!(outer_events.len(), 1);
        assert_eq!(outer_events[0].0, "outer");
    }

    /// A `Vec<u8>` writer the test can read back after the recorder
    /// has taken it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trace_writes_one_numbered_object_per_event() {
        let out = Shared::default();
        let rec = Recorder::builder().trace(out.clone()).build();
        rec.emit("k", &[("n", Value::U64(1)), ("s", Value::Str("x".into()))]);
        rec.emit("k2", &[]);
        rec.finish().unwrap();
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert!(json::is_valid(l), "{l}");
        }
        assert!(lines[0].contains(r#""kind":"k""#));
        assert!(lines[0].contains(r#""seq":0"#));
        assert!(lines[1].contains(r#""seq":1"#));
    }

    #[test]
    fn two_recorders_on_two_threads_see_only_their_own_events() {
        let runs: Vec<_> = (0..2).map(|_| collecting()).collect();
        let both_entered = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (i, (rec, _)) in runs.iter().enumerate() {
                let both_entered = &both_entered;
                s.spawn(move || {
                    let _in = rec.enter();
                    both_entered.wait();
                    for _ in 0..500 {
                        obs_event!("run", id = i);
                    }
                });
            }
        });
        for (i, (_, events)) in runs.iter().enumerate() {
            let events = events.lock().unwrap();
            assert_eq!(events.len(), 500);
            assert!(events.iter().all(|(_, f)| f[0].1 == Value::U64(i as u64)));
        }
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
