//! Flight recorder: an always-on bounded ring buffer of the last N
//! structured events per thread, dumped as validated JSONL when
//! something goes wrong — a panic (installed hook), a simulation that
//! hits its cycle budget, or an explicit request.
//!
//! The recorder is an [`EventSink`], so it plugs into the existing
//! event layer: installed via [`install`], it receives every
//! `obs_event!`/span emission at the same (lazy-field, one-branch)
//! cost as any other sink, keeps only the most recent
//! [`DEFAULT_CAPACITY`] lines per emitting thread, and optionally
//! chains to an inner sink (so `--trace <path>` still streams the full
//! log while the ring holds the post-mortem tail).
//!
//! A dump is a self-describing JSONL document:
//!
//! ```text
//! {"record":"flight_dump","schema_version":3,"reason":"panic","threads":2,"events":37,"dropped":410}
//! {"record":"flight_thread","thread":"main","recorded":25,"dropped":400,"wrapped":true}
//! {"record":"flight_thread","thread":"ThreadId(5)","recorded":12,"dropped":10,"wrapped":true}
//! {"seq":493,"t_us":88213,"thread":"main","kind":"sweep.job","job":"P-192/monte/sign", ...}
//! ...
//! ```
//!
//! Wrapping is never silent: each `flight_thread` line reports how many
//! events were evicted from that thread's ring (`dropped`, with
//! `wrapped` true once any eviction happened). [`validate_dump`] checks
//! the whole document — every consumer (tests, CI self-tests, triage
//! tooling) goes through it.

use crate::{json, EventSink, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events). Sized so a dump covers
/// the last few batches of a sweep without holding a long run's whole
/// event stream.
pub const DEFAULT_CAPACITY: usize = 256;

/// One thread's bounded event ring.
#[derive(Default)]
struct ThreadRing {
    /// The retained lines, oldest first.
    events: VecDeque<String>,
    /// Events evicted to respect the capacity bound.
    dropped: u64,
}

/// Shared recorder state: the per-thread rings (keyed by thread label,
/// ordered for deterministic dumps) and the global sequence counter.
#[derive(Default)]
struct FlightState {
    threads: BTreeMap<String, ThreadRing>,
    seq: u64,
    capacity: usize,
}

impl FlightState {
    fn dump_into(&self, reason: &str, out: &mut String) {
        let events: u64 = self.threads.values().map(|t| t.events.len() as u64).sum();
        let dropped: u64 = self.threads.values().map(|t| t.dropped).sum();
        let mut b = json::JsonBuf::new();
        b.begin_object();
        b.key("record").value_str("flight_dump");
        b.key("schema_version")
            .value_u64(crate::record::SCHEMA_VERSION);
        b.key("reason").value_str(reason);
        b.key("threads").value_u64(self.threads.len() as u64);
        b.key("events").value_u64(events);
        b.key("dropped").value_u64(dropped);
        b.end_object();
        out.push_str(&b.finish());
        out.push('\n');
        for (name, ring) in &self.threads {
            let mut b = json::JsonBuf::new();
            b.begin_object();
            b.key("record").value_str("flight_thread");
            b.key("thread").value_str(name);
            b.key("recorded").value_u64(ring.events.len() as u64);
            b.key("dropped").value_u64(ring.dropped);
            b.key("wrapped").value_bool(ring.dropped > 0);
            b.end_object();
            out.push_str(&b.finish());
            out.push('\n');
        }
        for ring in self.threads.values() {
            for line in &ring.events {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
}

/// The flight-recorder [`EventSink`]: bounded per-thread rings plus an
/// optional chained inner sink that still sees every event.
pub struct FlightRecorder {
    state: Arc<Mutex<FlightState>>,
    epoch: Instant,
    inner: Option<Box<dyn EventSink>>,
}

impl FlightRecorder {
    /// A recorder with the given per-thread capacity, optionally
    /// wrapping an inner sink (e.g. the `--trace` JSONL file sink).
    /// Returns the recorder and a [`FlightHandle`] for dumping.
    pub fn new(capacity: usize, inner: Option<Box<dyn EventSink>>) -> (Self, FlightHandle) {
        assert!(capacity > 0, "flight-recorder capacity must be positive");
        let state = Arc::new(Mutex::new(FlightState {
            capacity,
            ..Default::default()
        }));
        let handle = FlightHandle {
            state: state.clone(),
        };
        (
            FlightRecorder {
                state,
                epoch: Instant::now(),
                inner,
            },
            handle,
        )
    }
}

impl EventSink for FlightRecorder {
    fn event(&mut self, kind: &str, fields: &[(&str, Value)]) {
        let thread = crate::current_thread_label();
        let t_us = self.epoch.elapsed().as_micros() as u64;
        {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let seq = st.seq;
            st.seq += 1;
            let line = crate::event_line(seq, t_us, &thread, kind, fields);
            let capacity = st.capacity;
            let ring = st.threads.entry(thread).or_default();
            if ring.events.len() == capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(line);
        }
        if let Some(inner) = self.inner.as_mut() {
            inner.event(kind, fields);
        }
    }

    fn flush(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.flush();
        }
    }
}

/// A cloneable handle onto a recorder's rings, valid independently of
/// the sink's installation (the global registry holds one; tests can
/// hold their own).
#[derive(Clone)]
pub struct FlightHandle {
    state: Arc<Mutex<FlightState>>,
}

impl FlightHandle {
    /// Renders the current ring contents as a JSONL dump document.
    pub fn dump(&self, reason: &str) -> String {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut out = String::new();
        st.dump_into(reason, &mut out);
        out
    }

    /// Writes a dump document to `path` (truncating).
    pub fn dump_to(&self, path: &std::path::Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump(reason))
    }

    /// Total events currently retained across all threads.
    pub fn retained(&self) -> usize {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.threads.values().map(|t| t.events.len()).sum()
    }

    /// The retained event lines (oldest first per thread) whose `kind`
    /// field equals `kind` — parsed consumers (e.g. the merged trace
    /// export) filter the ring without re-implementing the dump format.
    pub fn lines_of_kind(&self, kind: &str) -> Vec<String> {
        let needle = format!("\"kind\":{}", json::escape(kind));
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.threads
            .values()
            .flat_map(|t| t.events.iter())
            .filter(|l| l.contains(&needle))
            .cloned()
            .collect()
    }
}

/// Registry of the installed recorder's handle plus the armed auto-dump
/// path, reachable from the panic hook and incident sites.
static REGISTRY: Mutex<Option<(FlightHandle, Option<std::path::PathBuf>)>> = Mutex::new(None);

/// One-shot latch so a panicking process (or a run with repeated cycle
/// overruns) writes exactly one post-mortem; later incidents keep the
/// first dump, which holds the events closest to the original fault.
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Builds a flight recorder (optionally chaining `inner`), installs it
/// as the process-global event sink, and registers its handle so
/// [`note_incident`] and the panic hook can reach it.
pub fn install(capacity: usize, inner: Option<Box<dyn EventSink>>) -> FlightHandle {
    let (recorder, handle) = FlightRecorder::new(capacity, inner);
    crate::set_sink(Box::new(recorder));
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let auto = reg.take().and_then(|(_, p)| p);
    *reg = Some((handle.clone(), auto));
    DUMPED.store(false, Ordering::SeqCst);
    handle
}

/// The installed recorder's handle, if one is registered.
pub fn handle() -> Option<FlightHandle> {
    REGISTRY
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(|(h, _)| h.clone())
}

/// Arms automatic dumping to `path` and installs a chained panic hook
/// (once per process): on panic, the ring is dumped to the armed path
/// before the previous hook runs. Also the destination for
/// [`note_incident`].
pub fn arm_auto_dump(path: std::path::PathBuf) {
    {
        let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        match reg.as_mut() {
            Some((_, auto)) => *auto = Some(path),
            None => *reg = Some((FlightHandle::default_detached(), Some(path))),
        }
    }
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_armed("panic");
            prev(info);
        }));
    });
}

impl FlightHandle {
    /// An empty, unregistered handle — placeholder when arming before
    /// install (its dump is a valid, empty document).
    fn default_detached() -> FlightHandle {
        FlightHandle {
            state: Arc::new(Mutex::new(FlightState {
                capacity: DEFAULT_CAPACITY,
                ..Default::default()
            })),
        }
    }
}

/// Records an incident (e.g. `"cycle_limit"`): dumps the ring to the
/// armed auto-dump path, at most once per process. No-op when no
/// recorder is installed or no path is armed.
pub fn note_incident(reason: &str) {
    dump_armed(reason);
}

fn dump_armed(reason: &str) {
    let target = {
        let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        match reg.as_ref() {
            Some((h, Some(p))) => Some((h.clone(), p.clone())),
            _ => None,
        }
    };
    if let Some((handle, path)) = target {
        if DUMPED.swap(true, Ordering::SeqCst) {
            return;
        }
        match handle.dump_to(&path, reason) {
            Ok(()) => eprintln!("flight recorder: dumped to {} ({reason})", path.display()),
            Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
        }
    }
}

/// Statistics of a validated dump document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DumpStats {
    /// Threads that contributed a ring.
    pub threads: u64,
    /// Event lines in the dump.
    pub events: u64,
    /// Events evicted before the dump (across all threads).
    pub dropped: u64,
    /// Whether any thread's ring wrapped.
    pub wrapped: bool,
}

/// Validates a flight-recorder dump document: a `flight_dump` header,
/// one `flight_thread` line per thread, then the event lines — each a
/// valid JSON object with the canonical keys, with counts consistent
/// with the header. Returns the document's statistics.
pub fn validate_dump(doc: &str) -> Result<DumpStats, String> {
    // The dump writer emits no blank lines, so one marks a damaged
    // dump; the shared walker would skip it.
    if let Some(i) = doc.lines().position(|l| l.trim().is_empty()) {
        return Err(match i {
            0 => "header is not valid JSON".into(),
            _ => format!("line {}: not valid JSON", i + 1),
        });
    }
    let mut lines = json::records(doc);
    let (_, _, header) = lines.next().ok_or("empty dump")?;
    let header = header.map_err(|_| "header is not valid JSON")?;
    if header.kind() != Some("flight_dump") {
        return Err("first line is not a flight_dump header".into());
    }
    let want = |k: &str| {
        header
            .get(k)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("header lacks {k}"))
    };
    let stats = DumpStats {
        threads: want("threads")?,
        events: want("events")?,
        dropped: want("dropped")?,
        wrapped: false,
    };
    let mut seen = DumpStats::default();
    for (n, _, v) in lines {
        let v = v?;
        if v.kind() == Some("flight_thread") {
            if seen.events > 0 {
                return Err(format!("line {n}: thread meta after event lines"));
            }
            for k in ["recorded", "dropped"] {
                if v.get(k).and_then(|x| x.as_u64()).is_none() {
                    return Err(format!("line {n}: flight_thread lacks {k}"));
                }
            }
            let wrapped = v
                .get("wrapped")
                .and_then(|x| x.as_bool())
                .ok_or_else(|| format!("line {n}: flight_thread lacks wrapped"))?;
            seen.threads += 1;
            seen.dropped += v.get("dropped").and_then(|x| x.as_u64()).unwrap();
            seen.wrapped |= wrapped;
        } else {
            for k in ["seq", "t_us"] {
                if v.get(k).and_then(|x| x.as_u64()).is_none() {
                    return Err(format!("line {n}: event lacks {k}"));
                }
            }
            for k in ["thread", "kind"] {
                if v.get(k).and_then(|x| x.as_str()).is_none() {
                    return Err(format!("line {n}: event lacks {k}"));
                }
            }
            seen.events += 1;
        }
    }
    if seen.threads != stats.threads {
        return Err(format!(
            "header claims {} threads, found {}",
            stats.threads, seen.threads
        ));
    }
    if seen.events != stats.events {
        return Err(format!(
            "header claims {} events, found {}",
            stats.events, seen.events
        ));
    }
    if seen.dropped != stats.dropped {
        return Err(format!(
            "header claims {} dropped, thread lines sum to {}",
            stats.dropped, seen.dropped
        ));
    }
    Ok(DumpStats {
        wrapped: seen.wrapped,
        ..stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(rec: &mut FlightRecorder, n: usize) {
        for i in 0..n {
            rec.event("test.tick", &[("i", Value::U64(i as u64))]);
        }
    }

    #[test]
    fn ring_bounds_and_dump_validates() {
        let (mut rec, handle) = FlightRecorder::new(8, None);
        fill(&mut rec, 20);
        rec.event("test.done", &[("ok", Value::Bool(true))]);
        assert_eq!(handle.retained(), 8, "ring keeps the last 8");

        let doc = handle.dump("unit_test");
        let stats = validate_dump(&doc).expect("dump validates");
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.events, 8);
        assert_eq!(stats.dropped, 13);
        assert!(stats.wrapped, "eviction must be surfaced");
        // The newest event survived; the oldest did not.
        assert!(doc.contains("test.done"));
        assert!(!doc.contains("\"i\":0,"));
    }

    #[test]
    fn unwrapped_dump_reports_no_drops() {
        let (mut rec, handle) = FlightRecorder::new(8, None);
        fill(&mut rec, 3);
        let stats = validate_dump(&handle.dump("x")).unwrap();
        assert_eq!((stats.events, stats.dropped), (3, 0));
        assert!(!stats.wrapped);
    }

    #[test]
    fn chained_inner_sink_sees_every_event() {
        let (inner, events) = crate::VecSink::new();
        let (mut rec, handle) = FlightRecorder::new(2, Some(Box::new(inner)));
        fill(&mut rec, 5);
        assert_eq!(handle.retained(), 2, "ring is bounded");
        assert_eq!(events.lock().unwrap().len(), 5, "inner sink is not bounded");
    }

    #[test]
    fn lines_of_kind_filters() {
        let (mut rec, handle) = FlightRecorder::new(16, None);
        rec.event("sys.sim", &[("entry", Value::Str("main_sign".into()))]);
        rec.event("sweep.job", &[]);
        rec.event("sys.sim", &[("entry", Value::Str("main_verify".into()))]);
        let sims = handle.lines_of_kind("sys.sim");
        assert_eq!(sims.len(), 2);
        assert!(sims[0].contains("main_sign"));
        assert!(handle.lines_of_kind("nope").is_empty());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_dump("").is_err());
        assert!(validate_dump("{\"record\":\"other\"}").is_err());
        let (mut rec, handle) = FlightRecorder::new(4, None);
        fill(&mut rec, 2);
        let good = handle.dump("x");
        // Doctor the header's event count.
        let bad = good.replacen("\"events\":2", "\"events\":3", 1);
        assert!(validate_dump(&bad).unwrap_err().contains("claims 3 events"));
        // Truncate an event line mid-object.
        let cut = &good[..good.len() - 5];
        assert!(validate_dump(cut).is_err());
        // A blank line is damage, not padding.
        let gap = good.replacen('\n', "\n\n", 1);
        assert_eq!(validate_dump(&gap), Err("line 2: not valid JSON".into()));
    }
}
