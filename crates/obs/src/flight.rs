//! Flight recorder: a bounded ring of the last N structured events per
//! thread, dumped as validated JSONL when something goes wrong — a
//! panic, a simulation that hits its cycle budget, or an explicit
//! request.
//!
//! The ring is one consumer of a [`Recorder`]
//! ([`RecorderBuilder::flight`](crate::RecorderBuilder::flight)): it
//! receives every event of that recorder at the same (lazy-field,
//! one-branch) cost as its other consumers, keeps only the most recent
//! lines per emitting thread, and shares each event's serialized line
//! with the `--trace` writer. [`Recorder::dump`] renders it;
//! [`note_incident`] and the panic hook write it to the recorder's dump
//! path, once per recorder.
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

use crate::{json, Recorder};
use std::collections::{BTreeMap, VecDeque};

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

/// The per-thread rings of one recorder, keyed by thread label and
/// ordered for deterministic dumps.
pub(crate) struct Rings {
    threads: BTreeMap<String, ThreadRing>,
    capacity: usize,
}

impl Rings {
    pub(crate) fn new(capacity: usize) -> Self {
        Rings {
            threads: BTreeMap::new(),
            capacity,
        }
    }

    /// Appends one serialized event line to `thread`'s ring, evicting
    /// its oldest line when full.
    pub(crate) fn push(&mut self, thread: String, line: String) {
        let ring = self.threads.entry(thread).or_default();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(line);
    }

    /// The retained lines (oldest first per thread) whose `kind` field
    /// equals `kind` — parsed consumers (e.g. the merged trace export)
    /// filter the ring without re-implementing the dump format.
    pub(crate) fn lines_of_kind(&self, kind: &str) -> Vec<String> {
        let needle = format!("\"kind\":{}", json::escape(kind));
        self.threads
            .values()
            .flat_map(|t| t.events.iter())
            .filter(|l| l.contains(&needle))
            .cloned()
            .collect()
    }

    /// Renders the rings as a dump document.
    pub(crate) fn dump(&self, reason: &str) -> String {
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
        let mut out = b.finish();
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
        out
    }
}

/// Records an incident (e.g. `"cycle_limit"`): writes the calling
/// thread's current recorder's flight ring to its dump path, at most
/// once per recorder. No-op without a ring or a dump path.
pub fn note_incident(reason: &str) {
    Recorder::current().note_incident(reason);
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
    use crate::Value;

    fn ring(capacity: usize) -> Recorder {
        Recorder::builder().flight(capacity, None).build()
    }

    fn fill(rec: &Recorder, n: usize) {
        for i in 0..n {
            rec.emit("test.tick", &[("i", Value::U64(i as u64))]);
        }
    }

    #[test]
    fn ring_bounds_and_dump_validates() {
        let rec = ring(8);
        fill(&rec, 20);
        rec.emit("test.done", &[("ok", Value::Bool(true))]);
        let doc = rec.dump("unit_test").unwrap();
        let stats = validate_dump(&doc).expect("dump validates");
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.events, 8, "ring keeps the last 8");
        assert_eq!(stats.dropped, 13);
        assert!(stats.wrapped, "eviction must be surfaced");
        // The newest event survived; the oldest did not.
        assert!(doc.contains("test.done"));
        assert!(!doc.contains("\"i\":0,"));
    }

    #[test]
    fn unwrapped_dump_reports_no_drops() {
        let rec = ring(8);
        fill(&rec, 3);
        let stats = validate_dump(&rec.dump("x").unwrap()).unwrap();
        assert_eq!((stats.events, stats.dropped), (3, 0));
        assert!(!stats.wrapped);
    }

    #[test]
    fn other_consumers_see_every_event() {
        let (sink, events) = crate::tests::VecSink::new();
        let rec = Recorder::builder()
            .flight(2, None)
            .sink(Box::new(sink))
            .build();
        fill(&rec, 5);
        assert_eq!(validate_dump(&rec.dump("x").unwrap()).unwrap().events, 2);
        assert_eq!(events.lock().unwrap().len(), 5, "a sink is not bounded");
    }

    #[test]
    fn lines_of_kind_filters() {
        let rec = ring(16);
        rec.emit("sys.sim", &[("entry", Value::Str("main_sign".into()))]);
        rec.emit("sweep.job", &[]);
        rec.emit("sys.sim", &[("entry", Value::Str("main_verify".into()))]);
        let sims = rec.lines_of_kind("sys.sim");
        assert_eq!(sims.len(), 2);
        assert!(sims[0].contains("main_sign"));
        assert!(rec.lines_of_kind("nope").is_empty());
        assert!(Recorder::default().dump("x").is_none(), "no ring, no dump");
    }

    #[test]
    fn an_incident_dumps_the_current_recorder_once() {
        let path = std::env::temp_dir().join(format!(
            "ule-obs-incident-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let rec = Recorder::builder().flight(4, Some(path.clone())).build();
        let _in = rec.enter();
        crate::obs_event!("test.first");
        note_incident("cycle_limit");
        crate::obs_event!("test.second");
        note_incident("cycle_limit");
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            validate_dump(&doc).unwrap().events,
            1,
            "the first dump stays"
        );
        assert!(doc.contains("\"reason\":\"cycle_limit\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_dump("").is_err());
        assert!(validate_dump("{\"record\":\"other\"}").is_err());
        let rec = ring(4);
        fill(&rec, 2);
        let good = rec.dump("x").unwrap();
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
