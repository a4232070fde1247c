//! The one scoped worker pool: the sweep engine's batch fan-out and the
//! serve engine's shard fan-out both run through [`map`].
//!
//! Workers pull item indices from one atomic counter, so the pool never
//! decides which item runs where, and results come back in submission
//! order whatever the width. A failed spawn (thread limit, resource
//! exhaustion, or [`ule_testkit::threads`]'s test shim) shrinks the pool
//! instead of panicking: the workers already spawned, or with none the
//! caller thread itself, drain the same queue, so every item still runs
//! exactly once.

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
    let worker = |worker: usize| {
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
}
