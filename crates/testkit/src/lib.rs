//! Zero-dependency test support for the workspace: a deterministic
//! PRNG for the property/differential tests and a thread-spawn failure
//! shim.
//!
//! The workspace builds in fully offline environments, so the test
//! suites cannot lean on external crates (`proptest`, `rand`,
//! `criterion`). What they actually need is small: reproducible random
//! operands, and a way to make thread spawns fail on demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A deterministic splitmix64 PRNG.
///
/// Splitmix64 passes BigCrush, needs four lines of code, and — unlike
/// an external dependency — produces the same stream on every platform
/// and toolchain, which keeps the differential tests reproducible from
/// a bare seed printed in a failure message.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Next 16-bit value.
    pub fn next_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// Next signed 16-bit value.
    pub fn next_i16(&mut self) -> i16 {
        self.next_u16() as i16
    }

    /// Next boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform value in `0..n` (`n > 0`). The modulo bias is below
    /// 2⁻³² for every `n` the tests use — irrelevant for fuzzing.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform `usize` in `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo) as u64) as usize
    }

    /// `len` random 32-bit limbs.
    pub fn vec_u32(&mut self, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.next_u32()).collect()
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next_u64() >> 56) as u8).collect()
    }
}

/// A thread-limit shim: lets tests make the next N thread spawns on the
/// *current* thread fail, so graceful-degradation paths (a sweep falling
/// back to fewer workers, a heartbeat spawn being skipped) are testable
/// without exhausting real OS limits.
///
/// Spawn sites consult [`threads::spawn_blocked`] immediately before
/// calling `std::thread::Builder::spawn*`; the budget is thread-local,
/// so parallel tests cannot poison each other (every instrumented spawn
/// site spawns from its caller's thread).
pub mod threads {
    use std::cell::Cell;

    thread_local! {
        /// `(pass_remaining, fail_remaining)`: let that many spawns
        /// through, then fail that many.
        static PLAN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// Resets the calling thread's spawn-failure plan on drop, so a
    /// panicking test cannot leak blocks into later tests on the same
    /// pooled test thread.
    pub struct SpawnFailGuard(());

    impl Drop for SpawnFailGuard {
        fn drop(&mut self) {
            PLAN.with(|p| p.set((0, 0)));
        }
    }

    /// Makes the next `n` [`spawn_blocked`] queries on this thread
    /// answer `true` (i.e. the next `n` instrumented spawns fail).
    #[must_use = "dropping the guard clears the budget immediately"]
    pub fn fail_next_spawns(n: u64) -> SpawnFailGuard {
        fail_spawns_after(0, n)
    }

    /// Lets `skip` instrumented spawns through, then fails the next
    /// `n` — models a thread limit hit partway through a fan-out.
    #[must_use = "dropping the guard clears the budget immediately"]
    pub fn fail_spawns_after(skip: u64, n: u64) -> SpawnFailGuard {
        PLAN.with(|p| p.set((skip, n)));
        SpawnFailGuard(())
    }

    /// Consumes one step of the spawn-failure plan; `true` means the
    /// caller must treat its spawn as failed. Always `false` outside
    /// tests (the plan is only ever set by [`fail_next_spawns`] /
    /// [`fail_spawns_after`]).
    pub fn spawn_blocked() -> bool {
        PLAN.with(|p| {
            let (skip, fail) = p.get();
            if skip > 0 {
                p.set((skip - 1, fail));
                false
            } else if fail > 0 {
                p.set((0, fail - 1));
                true
            } else {
                false
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a: Vec<u64> = {
            (0..8)
                .map({
                    let mut r = Rng::new(42);
                    move |_| r.next_u64()
                })
                .collect()
        };
        let b: Vec<u64> = {
            (0..8)
                .map({
                    let mut r = Rng::new(42);
                    move |_| r.next_u64()
                })
                .collect()
        };
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn spawn_shim_budget_is_thread_local_and_resets() {
        assert!(!threads::spawn_blocked(), "no budget by default");
        {
            let _g = threads::fail_next_spawns(2);
            assert!(threads::spawn_blocked());
            // Another thread is unaffected by this thread's budget.
            std::thread::scope(|s| {
                s.spawn(|| assert!(!threads::spawn_blocked()));
            });
            assert!(threads::spawn_blocked());
            assert!(!threads::spawn_blocked(), "budget exhausted");
        }
        let _g = threads::fail_next_spawns(5);
        drop(threads::fail_next_spawns(0));
        assert!(!threads::spawn_blocked(), "guard drop clears the budget");

        let _g = threads::fail_spawns_after(1, 1);
        assert!(!threads::spawn_blocked(), "first spawn passes");
        assert!(threads::spawn_blocked(), "second spawn fails");
        assert!(!threads::spawn_blocked(), "plan exhausted");
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let x = r.range(3, 9);
            assert!((3..9).contains(&x));
        }
    }
}
