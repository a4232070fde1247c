//! Live harness telemetry: a recorder's progress reporter prints
//! periodic heartbeat lines to stderr while a long campaign (sweep
//! batch, exploration, verification) runs.
//!
//! Instrumented engines call the cheap hooks ([`add_total`], [`job`],
//! [`memo_hit`]), which reach the calling thread's current
//! [`Recorder`]; a background heartbeat thread renders one line every
//! ~2 s:
//!
//! ```text
//! repro all: 12/48 jobs, 3 memo hits | slowest in-flight P-521/baseline/sign_verify 14.2s | ETA 3m10s
//! ```
//!
//! The reporter is opt-in ([`RecorderBuilder::progress`], which the CLI
//! sets behind `--progress` or a TTY check) and every hook is a no-op
//! without one, so library code calls them unconditionally; a job's
//! label is built only when a reporter runs. [`Recorder::finish`] stops
//! the heartbeat and prints the final line. ETA extrapolates the
//! observed completion rate over the remaining job count.
//!
//! [`RecorderBuilder::progress`]: crate::RecorderBuilder::progress

use crate::{lock, Recorder, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Heartbeat cadence.
const TICK: Duration = Duration::from_millis(2000);

/// One recorder's progress state, shared with its heartbeat thread.
pub(crate) struct Progress {
    label: String,
    started: Instant,
    /// Known job count (grows via [`add_total`]); 0 until first add.
    total: AtomicU64,
    done: AtomicU64,
    memo_hits: AtomicU64,
    /// In-flight jobs: token -> (label, start).
    inflight: Mutex<BTreeMap<u64, (String, Instant)>>,
    next_token: AtomicU64,
    /// Heartbeat shutdown: flag + wakeup, and the thread to join.
    stop: Mutex<bool>,
    cv: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Whether stderr is a terminal — the CLI's autodetect default for
/// `--progress`.
pub fn stderr_is_tty() -> bool {
    use std::io::IsTerminal;
    std::io::stderr().is_terminal()
}

impl Progress {
    /// Starts a reporter and its heartbeat thread, which hands the
    /// fields of each `progress.heartbeat` event to `emit`.
    ///
    /// Progress is telemetry, never correctness: if the heartbeat thread
    /// cannot be spawned (thread limit, resource exhaustion), there is no
    /// reporter and the campaign runs without progress lines instead of
    /// panicking.
    pub(crate) fn start(
        label: String,
        emit: impl Fn(&[(&str, Value)]) + Send + 'static,
    ) -> Option<Arc<Progress>> {
        let state = Arc::new(Progress {
            label,
            started: Instant::now(),
            total: AtomicU64::new(0),
            done: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            inflight: Mutex::new(BTreeMap::new()),
            next_token: AtomicU64::new(1),
            stop: Mutex::new(false),
            cv: Condvar::new(),
            thread: Mutex::new(None),
        });
        let hb = state.clone();
        let spawned = if ule_testkit::threads::spawn_blocked() {
            Err(std::io::Error::other("spawn blocked by test shim"))
        } else {
            std::thread::Builder::new()
                .name("progress-heartbeat".into())
                .spawn(move || heartbeat(&hb, emit))
        };
        match spawned {
            Ok(thread) => {
                *lock(&state.thread) = Some(thread);
                Some(state)
            }
            Err(err) => {
                crate::obs_warn_once!(
                    "progress heartbeat thread could not be spawned; progress reporting disabled",
                    error = err.to_string(),
                );
                None
            }
        }
    }

    /// Stops the heartbeat; true iff it was still running.
    pub(crate) fn stop(&self) -> bool {
        let was_running = !std::mem::replace(&mut *lock(&self.stop), true);
        self.cv.notify_all();
        was_running
    }

    /// Stops and joins the heartbeat, and prints the final summary
    /// line, once.
    pub(crate) fn finish(&self) {
        if self.stop() {
            if let Some(thread) = lock(&self.thread).take() {
                let _ = thread.join();
            }
            eprintln!("{}", render(self, true));
        }
    }
}

/// The current recorder's reporter, if it runs one.
fn current() -> Option<Arc<Progress>> {
    Recorder::current().progress().cloned()
}

/// Adds `n` jobs to the known total (batches announce their size).
pub fn add_total(n: u64) {
    if let Some(s) = current() {
        s.total.fetch_add(n, Ordering::Relaxed);
    }
}

/// Records a memo hit (a job answered from cache).
pub fn memo_hit() {
    if let Some(s) = current() {
        s.memo_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Marks a job as in flight until the returned guard drops, which counts
/// it done. `label` runs only when a reporter is running.
pub fn job(label: impl FnOnce() -> String) -> Job {
    Job(current().map(|s| {
        let token = s.next_token.fetch_add(1, Ordering::Relaxed);
        lock(&s.inflight).insert(token, (label(), Instant::now()));
        (s, token)
    }))
}

/// An in-flight job of the current reporter; see [`job`].
#[must_use = "the job completes when the guard drops"]
pub struct Job(Option<(Arc<Progress>, u64)>);

impl Drop for Job {
    fn drop(&mut self) {
        let Some((s, token)) = self.0.take() else {
            return;
        };
        lock(&s.inflight).remove(&token);
        s.done.fetch_add(1, Ordering::Relaxed);
    }
}

fn heartbeat(state: &Progress, emit: impl Fn(&[(&str, Value)])) {
    loop {
        let stopped = {
            let guard = lock(&state.stop);
            let (guard, _) = state
                .cv
                .wait_timeout_while(guard, TICK, |stop| !*stop)
                .unwrap_or_else(|p| p.into_inner());
            *guard
        };
        if stopped {
            return;
        }
        eprintln!("{}", render(state, false));
        emit(&heartbeat_fields(state));
    }
}

fn fmt_duration(secs: u64) -> String {
    if secs >= 3600 {
        format!("{}h{:02}m", secs / 3600, (secs % 3600) / 60)
    } else if secs >= 60 {
        format!("{}m{:02}s", secs / 60, secs % 60)
    } else {
        format!("{secs}s")
    }
}

fn render(state: &Progress, final_line: bool) -> String {
    let done = state.done.load(Ordering::Relaxed);
    let total = state.total.load(Ordering::Relaxed);
    let memo = state.memo_hits.load(Ordering::Relaxed);
    let elapsed = state.started.elapsed();
    let mut line = if total > 0 {
        format!("{}: {done}/{total} jobs", state.label)
    } else {
        format!("{}: {done} jobs", state.label)
    };
    if memo > 0 {
        line.push_str(&format!(", {memo} memo hits"));
    }
    if final_line {
        line.push_str(&format!(" | done in {}", fmt_duration(elapsed.as_secs())));
        return line;
    }
    // Slowest in-flight job (the one most likely to be the holdup).
    // Elapsed is snapshotted exactly once per job under the lock: a
    // second `started.elapsed()` call could print a duration belonging
    // to a moment after the max was chosen (and the formatting below
    // stays outside the mutex).
    let slowest = {
        let inflight = lock(&state.inflight);
        inflight
            .values()
            .map(|(key, started)| (started.elapsed(), key.clone()))
            .max_by_key(|(elapsed, _)| *elapsed)
    };
    if let Some((elapsed, key)) = slowest {
        line.push_str(&format!(
            " | slowest in-flight {key} {:.1}s",
            elapsed.as_secs_f64()
        ));
    }
    // ETA: observed completion rate over the remaining count; omitted
    // entirely when there is no rate signal yet.
    if let Some(eta) = eta_seconds(total, done, memo, elapsed) {
        line.push_str(&format!(" | ETA {}", fmt_duration(eta)));
    }
    line
}

/// Extrapolates the remaining wall time from the observed completion
/// rate, or `None` when no honest estimate exists: the total is unknown
/// (0), nothing finished yet, everything already finished — or every
/// completion so far was a memo hit, whose ~0-cost walls would
/// extrapolate an "ETA 0s" for work that has not actually been timed.
fn eta_seconds(total: u64, done: u64, memo_hits: u64, elapsed: Duration) -> Option<u64> {
    if total == 0 || done == 0 || done >= total {
        return None;
    }
    let paid = done.saturating_sub(memo_hits);
    if paid == 0 {
        return None;
    }
    let per_job = elapsed.as_secs_f64() / paid as f64;
    Some((per_job * (total - done) as f64) as u64)
}

/// The fields of one `progress.heartbeat` telemetry event, mirroring
/// the stderr line; `eta_seconds` is JSON `null` while no estimate
/// exists.
fn heartbeat_fields(state: &Progress) -> [(&'static str, Value); 5] {
    let done = state.done.load(Ordering::Relaxed);
    let total = state.total.load(Ordering::Relaxed);
    let memo = state.memo_hits.load(Ordering::Relaxed);
    let eta = match eta_seconds(total, done, memo, state.started.elapsed()) {
        Some(secs) => Value::U64(secs),
        None => Value::Raw("null".into()),
    };
    [
        ("label", Value::Str(state.label.clone())),
        ("jobs_done", Value::U64(done)),
        ("jobs_total", Value::U64(total)),
        ("memo_hits", Value::U64(memo)),
        ("eta_seconds", eta),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line the recorder's reporter would print right now.
    fn snapshot(rec: &Recorder) -> String {
        render(rec.progress().expect("a reporter runs"), false)
    }

    #[test]
    fn lifecycle_counts_and_renders() {
        let rec = Recorder::builder().progress("unit").build();
        {
            let _in = Recorder::default().enter();
            let _ = job(|| unreachable!("no reporter, no label"));
        }
        let _in = rec.enter();
        add_total(4);
        memo_hit();
        let t1 = job(|| "P-192/baseline/sign".into());
        let t2 = job(|| "P-521/baseline/sign".into());
        drop(t1);
        // One completion, and it was the memo hit: no rate signal yet,
        // so the line must not hallucinate an ETA.
        let line = snapshot(&rec);
        assert!(line.starts_with("unit: 1/4 jobs"), "{line}");
        assert!(line.contains("1 memo hits"), "{line}");
        assert!(
            line.contains("slowest in-flight P-521/baseline/sign"),
            "{line}"
        );
        assert!(!line.contains("ETA"), "{line}");
        // A second, genuinely timed completion unlocks the estimate.
        drop(job(|| "P-256/baseline/sign".into()));
        let line = snapshot(&rec);
        assert!(line.starts_with("unit: 2/4 jobs"), "{line}");
        assert!(line.contains("ETA"), "{line}");
        drop(t2);
        let p = rec.progress().unwrap().clone();
        rec.finish().unwrap();
        assert!(!p.stop(), "finish stopped the heartbeat");
        assert!(lock(&p.thread).is_none(), "finish joined the heartbeat");
    }

    /// The ETA guard: no estimate without a total, without completions,
    /// after completion, or when every completion was a memo hit (whose
    /// ~0-cost walls would extrapolate a bogus "ETA 0s").
    #[test]
    fn eta_needs_a_rate_signal() {
        let minute = Duration::from_secs(60);
        assert_eq!(eta_seconds(0, 0, 0, minute), None, "unknown total");
        assert_eq!(eta_seconds(0, 3, 0, minute), None, "total never announced");
        assert_eq!(eta_seconds(8, 0, 0, minute), None, "nothing finished");
        assert_eq!(eta_seconds(8, 8, 0, minute), None, "already finished");
        assert_eq!(eta_seconds(8, 4, 4, minute), None, "memo hits only");
        // 60 s over 2 paid jobs -> 30 s/job -> 4 remaining -> 120 s.
        assert_eq!(eta_seconds(8, 4, 2, minute), Some(120));
    }

    /// A failed heartbeat spawn must leave the recorder without a
    /// reporter (hooks become no-ops) instead of panicking, and a later
    /// recorder must get one.
    #[test]
    fn blocked_heartbeat_spawn_disables_progress() {
        let blocked = {
            let _shim = ule_testkit::threads::fail_next_spawns(1);
            Recorder::builder().progress("blocked").build()
        };
        assert!(
            blocked.progress().is_none(),
            "no reporter without a heartbeat"
        );
        let _in = blocked.enter();
        let _ = job(|| unreachable!("hooks are no-ops"));
        blocked.finish().unwrap(); // must be a no-op, not a panic

        // The shim budget is spent; the next recorder reports.
        let recovered = Recorder::builder().progress("recovered").build();
        assert!(recovered.progress().is_some());
        recovered.finish().unwrap();
    }

    #[test]
    fn durations_format_humanely() {
        assert_eq!(fmt_duration(5), "5s");
        assert_eq!(fmt_duration(65), "1m05s");
        assert_eq!(fmt_duration(3700), "1h01m");
    }
}
