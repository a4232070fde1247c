//! The observability context of one run: a [`Recorder`] owns the
//! consumers of one campaign's events — the `--trace` JSONL writer, the
//! flight ring with its dump path and one-shot dump latch, any extra
//! [`EventSink`]s, and the progress reporter with its heartbeat thread.
//!
//! Library code never takes a recorder as a parameter. A run makes its
//! recorder *current* on a thread with [`Recorder::enter`] (the scoped
//! default of `tracing`'s dispatcher), and [`span`](crate::span),
//! [`obs_event!`](crate::obs_event), [`warn`](crate::warn) and the
//! [`progress`](crate::progress) hooks read the calling thread's
//! current recorder. [`pool::map`](crate::pool::map) enters the caller's
//! recorder on every worker, so a fan-out reports to its caller. Two
//! runs in one process, each entered on its own threads, never see each
//! other's events and never share a lock.
//!
//! With no current recorder (or one without event consumers),
//! [`enabled`](crate::enabled) is one thread-local load and a span costs
//! one branch.

use crate::{flight, lock, progress, EventSink, Value};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

thread_local! {
    /// The calling thread's current recorder (see [`Recorder::enter`]).
    static CURRENT: RefCell<Recorder> = const { RefCell::new(Recorder { inner: None }) };
    /// Whether the current recorder has an event consumer: the one
    /// branch instrumented code pays when it has none.
    static EVENTS: Cell<bool> = const { Cell::new(false) };
}

/// True iff the calling thread's current recorder consumes events. The
/// [`obs_event!`](crate::obs_event) macro and [`span`](crate::span)
/// check this, so without a consumer they build no fields.
#[inline(always)]
pub fn enabled() -> bool {
    EVENTS.with(Cell::get)
}

/// A cloneable handle on one run's observability context. The default
/// recorder has no consumers. Build one with [`Recorder::builder`],
/// make it current with [`Recorder::enter`], and [`finish`](Self::finish)
/// it when the run ends.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    epoch: Instant,
    /// `None` when the recorder has no event consumer.
    events: Option<Mutex<Consumers>>,
    /// Where [`flight::note_incident`] and the panic hook dump the ring.
    dump_path: Option<PathBuf>,
    /// One-shot latch: the first incident keeps the events closest to
    /// the original fault; later ones write nothing.
    dumped: AtomicBool,
    progress: Option<Arc<progress::Progress>>,
}

/// The event consumers, behind the recorder's one lock. Each event is
/// numbered and serialized once, whichever consumers read it.
struct Consumers {
    seq: u64,
    trace: Option<Box<dyn Write + Send>>,
    ring: Option<flight::Rings>,
    sinks: Vec<Box<dyn EventSink>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(p) = &self.progress {
            p.stop();
        }
    }
}

/// Configures a [`Recorder`]'s consumers; see [`Recorder::builder`].
#[derive(Default)]
#[must_use = "a builder does nothing until `build`"]
pub struct RecorderBuilder {
    trace: Option<Box<dyn Write + Send>>,
    flight: Option<(usize, Option<PathBuf>)>,
    sinks: Vec<Box<dyn EventSink>>,
    progress: Option<String>,
}

impl RecorderBuilder {
    /// Streams every event to `out` as one JSON object per line: `seq`
    /// (event number), `t_us` (microseconds since the recorder was
    /// built), `thread` (OS thread name or id), `kind`, then the
    /// event's own fields. The `--trace PATH` consumer.
    pub fn trace(mut self, out: impl Write + Send + 'static) -> Self {
        self.trace = Some(Box::new(out));
        self
    }

    /// Keeps the last `capacity` events per thread in a flight ring. With
    /// a `dump_path`, the first incident ([`flight::note_incident`], or a
    /// panic on a thread where this recorder is current) writes the
    /// ring there; the panic hook is installed once per process.
    pub fn flight(mut self, capacity: usize, dump_path: Option<PathBuf>) -> Self {
        assert!(capacity > 0, "flight-recorder capacity must be positive");
        self.flight = Some((capacity, dump_path));
        self
    }

    /// Hands every event to `sink` as well.
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Runs a progress reporter whose heartbeat lines start with `label`
    /// (see [`progress`]).
    pub fn progress(mut self, label: &str) -> Self {
        self.progress = Some(label.to_owned());
        self
    }

    /// Builds the recorder and starts its progress heartbeat, if any.
    pub fn build(self) -> Recorder {
        let (ring, dump_path) = match self.flight {
            Some((capacity, path)) => (Some(flight::Rings::new(capacity)), path),
            None => (None, None),
        };
        if dump_path.is_some() {
            install_panic_hook();
        }
        let consumers = Consumers {
            seq: 0,
            trace: self.trace,
            ring,
            sinks: self.sinks,
        };
        let any =
            consumers.trace.is_some() || consumers.ring.is_some() || !consumers.sinks.is_empty();
        let inner = Arc::new_cyclic(|weak| Inner {
            epoch: Instant::now(),
            events: any.then(|| Mutex::new(consumers)),
            dump_path,
            dumped: AtomicBool::new(false),
            progress: self.progress.and_then(|label| {
                // The heartbeat thread must not keep the recorder alive.
                let weak = weak.clone();
                progress::Progress::start(label, move |fields: &[(&str, Value)]| {
                    let rec = Recorder {
                        inner: weak.upgrade(),
                    };
                    rec.emit("progress.heartbeat", fields)
                })
            }),
        });
        Recorder { inner: Some(inner) }
    }
}

/// The panic hook, installed once per process (a panic hook is
/// process-global by nature): it dumps the panicking thread's current
/// recorder, then runs the previous hook.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flight::note_incident("panic");
            prev(info);
        }));
    });
}

/// Restores the previous current recorder of the thread when dropped;
/// see [`Recorder::enter`].
#[must_use = "the recorder is current only while the guard lives"]
pub struct Entered {
    prev: Recorder,
    prev_events: bool,
    /// Entering is per thread: the guard must drop where it was made.
    _thread: PhantomData<*const ()>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        let left = CURRENT.with(|c| c.replace(prev));
        EVENTS.with(|e| e.set(self.prev_events));
        drop(left);
    }
}

impl Recorder {
    /// A builder with no consumers.
    pub fn builder() -> RecorderBuilder {
        RecorderBuilder::default()
    }

    /// The calling thread's current recorder (the default recorder when
    /// none was entered).
    pub fn current() -> Recorder {
        CURRENT.try_with(|c| c.borrow().clone()).unwrap_or_default()
    }

    /// Makes this recorder the calling thread's current recorder until
    /// the returned guard drops, which restores the previous one.
    pub fn enter(&self) -> Entered {
        let has_events = self.inner.as_ref().is_some_and(|i| i.events.is_some());
        let prev = CURRENT.with(|c| c.replace(self.clone()));
        let prev_events = EVENTS.with(|e| e.replace(has_events));
        Entered {
            prev,
            prev_events,
            _thread: PhantomData,
        }
    }

    /// Delivers one event to this recorder's consumers. Library code
    /// uses [`obs_event!`](crate::obs_event), which reaches the current
    /// recorder and builds no fields without a consumer.
    pub fn emit(&self, kind: &str, fields: &[(&str, Value)]) {
        let Some(inner) = &self.inner else { return };
        let Some(events) = &inner.events else { return };
        let mut c = lock(events);
        let seq = c.seq;
        c.seq += 1;
        if c.trace.is_some() || c.ring.is_some() {
            let thread = crate::current_thread_label();
            let t_us = inner.epoch.elapsed().as_micros() as u64;
            let line = crate::event_line(seq, t_us, &thread, kind, fields);
            if let Some(out) = c.trace.as_mut() {
                let _ = writeln!(out, "{line}");
            }
            if let Some(ring) = c.ring.as_mut() {
                ring.push(thread, line);
            }
        }
        for sink in &mut c.sinks {
            sink.event(kind, fields);
        }
    }

    /// Delivers one event to the calling thread's current recorder (the
    /// expansion of [`obs_event!`](crate::obs_event)).
    #[doc(hidden)]
    pub fn emit_current(kind: &str, fields: &[(&str, Value)]) {
        let _ = CURRENT.try_with(|c| c.borrow().emit(kind, fields));
    }

    /// Ends the run: stops the progress heartbeat (printing its final
    /// line) and flushes the trace writer, returning its error. Events
    /// emitted later still reach the consumers.
    pub fn finish(&self) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(p) = &inner.progress {
            p.finish();
        }
        match &inner.events {
            Some(events) => lock(events)
                .trace
                .as_mut()
                .map_or(Ok(()), |out| out.flush()),
            None => Ok(()),
        }
    }

    /// The flight ring as a dump document (see [`flight`]), or `None`
    /// without a ring.
    pub fn dump(&self, reason: &str) -> Option<String> {
        self.with_ring(|ring| ring.dump(reason))
    }

    /// The retained flight-ring lines (oldest first per thread) whose
    /// `kind` is `kind`; empty without a ring.
    pub fn lines_of_kind(&self, kind: &str) -> Vec<String> {
        self.with_ring(|ring| ring.lines_of_kind(kind))
            .unwrap_or_default()
    }

    fn with_ring<R>(&self, f: impl FnOnce(&flight::Rings) -> R) -> Option<R> {
        let events = self.inner.as_ref()?.events.as_ref()?;
        lock(events).ring.as_ref().map(f)
    }

    /// Writes the flight dump to the armed path, once per recorder.
    pub(crate) fn note_incident(&self, reason: &str) {
        let Some(inner) = &self.inner else { return };
        let Some(path) = &inner.dump_path else { return };
        if inner.dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        let doc = self.dump(reason).unwrap_or_default();
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!("flight recorder: dumped to {} ({reason})", path.display()),
            Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
        }
    }

    pub(crate) fn progress(&self) -> Option<&Arc<progress::Progress>> {
        self.inner.as_ref()?.progress.as_ref()
    }
}
