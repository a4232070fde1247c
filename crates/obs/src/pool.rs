//! The one scoped worker pool: the sweep engine's batch fan-out and the
//! serve engine's shard fan-out both run through [`map`].
//!
//! Workers pull item indices from one atomic counter, so the pool never
//! decides which item runs where, and results come back in submission
//! order whatever the width. A failed spawn (thread limit, resource
//! exhaustion, or [`ule_testkit::threads`]'s test shim) shrinks the pool
//! instead of panicking: the workers already spawned, or with none the
//! caller thread itself, drain the same queue, so every item still runs
//! exactly once. Every worker enters the caller's current [`Recorder`],
//! so its events, progress and panic dump reach the caller's run.

use crate::Recorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Applies `f` to every item on up to `width` scoped worker threads
/// named `{name}-N`, and returns the results in submission order.
///
/// A width of 1 (or a single item) runs inline on the caller thread.
/// Each spawned worker emits one `{name}.worker` event when the queue
/// is empty (`worker`, `jobs`, `busy_us`, `alive_us`): busy/alive ≈ 1
/// means the pool width was the bottleneck. A panic in `f` reaches the
/// caller with its own payload once every worker has stopped.
pub fn map<T, R, F>(items: &[T], width: usize, name: &str, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let width = width.min(items.len()).max(1);
    if width == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let rec = Recorder::current();
    let worker = |worker: usize| {
        let _rec = rec.enter();
        let spawned = Instant::now();
        let mut busy = Duration::ZERO;
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            let t0 = Instant::now();
            done.push((i, f(item)));
            busy += t0.elapsed();
        }
        crate::obs_event!(
            &format!("{name}.worker"),
            worker = worker,
            jobs = done.len(),
            busy_us = busy.as_micros() as u64,
            alive_us = spawned.elapsed().as_micros() as u64,
        );
        done
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let worker = &worker;
        let mut handles = Vec::with_capacity(width);
        for w in 0..width {
            let spawn = if ule_testkit::threads::spawn_blocked() {
                Err(std::io::Error::other("spawn blocked by test shim"))
            } else {
                std::thread::Builder::new()
                    .name(format!("{name}-{w}"))
                    .spawn_scoped(scope, move || worker(w))
            };
            match spawn {
                Ok(h) => handles.push(h),
                Err(err) => {
                    crate::obs_warn_once!(
                        "worker spawn failed; continuing with fewer workers",
                        pool = name,
                        requested = width,
                        spawned = handles.len(),
                        error = err.to_string(),
                    );
                    break;
                }
            }
        }
        if handles.is_empty() {
            return worker(0);
        }
        let mut done = Vec::with_capacity(items.len());
        for h in handles {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    // The workers drain the queue, so every index occurs exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::map;
    use crate::{flight, Recorder};

    #[test]
    fn a_panic_reaches_the_caller_with_its_payload() {
        let items = [1, 2, 3];
        let run = || {
            map(&items, 3, "test", |&i| {
                if i == 2 {
                    panic!("item two")
                } else {
                    i
                }
            })
        };
        let err = std::panic::catch_unwind(run).unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"item two"));
    }

    #[test]
    fn worker_events_reach_the_callers_recorder() {
        let rec = Recorder::builder().flight(64, None).build();
        let _in = rec.enter();
        let items: Vec<u64> = (0..8).collect();
        map(&items, 4, "test", |&i| {
            crate::obs_event!("test.item", i = i)
        });
        assert_eq!(rec.lines_of_kind("test.item").len(), 8);
        let workers = rec.lines_of_kind("test.worker");
        assert!(!workers.is_empty());
        assert!(workers.iter().all(|l| l.contains("\"thread\":\"test-")));
    }

    #[test]
    fn a_worker_panic_writes_the_callers_flight_dump() {
        let path =
            std::env::temp_dir().join(format!("ule-obs-pool-panic-{}.jsonl", std::process::id()));
        let rec = Recorder::builder().flight(64, Some(path.clone())).build();
        let _in = rec.enter();
        let items = [1, 2, 3];
        let run = || {
            map(&items, 3, "boom", |&i| {
                crate::obs_event!("test.before", i = i);
                if i == 2 {
                    panic!("item two")
                }
            })
        };
        assert!(std::panic::catch_unwind(run).is_err());
        let doc = std::fs::read_to_string(&path).expect("the panic wrote a dump");
        std::fs::remove_file(&path).unwrap();
        let stats = flight::validate_dump(&doc).expect("the dump validates");
        assert!(stats.events >= 1);
        assert!(doc.contains("\"reason\":\"panic\""));
        assert!(
            doc.contains("\"i\":2"),
            "the panicking item's event is kept"
        );
    }
}
