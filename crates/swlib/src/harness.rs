//! Helpers for running suite entry points on the simulator — used by the
//! differential tests, the `ule-core` driver, and the benchmark harness.

use ule_isa::asm::Program;
use ule_pete::cpu::{ExecOptions, Machine, RunExit};

/// Default cycle budget for one entry (a 571-bit baseline verification is
/// the worst case in the study at ~250M cycles, §7.6).
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// Why [`run_entry`] could not complete an entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The entry label is not defined by the program image.
    NoEntry {
        /// The label that was requested.
        entry: String,
    },
    /// The entry ran but did not reach `break` within the cycle budget.
    CycleLimit {
        /// The label that was running.
        entry: String,
        /// The budget that was exhausted.
        max_cycles: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoEntry { entry } => write!(f, "no entry point {entry:?}"),
            RunError::CycleLimit { entry, max_cycles } => {
                write!(f, "{entry:?} exceeded {max_cycles} cycles")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs the program from the given entry label until `break`, returning
/// the elapsed cycle count, or an error on a missing label / exhausted
/// cycle budget. `opts.max_cycles` is the budget for *this entry*
/// (relative to the machine's current cycle count, so entries can be
/// chained on one machine); `opts.tier` selects the execution engine.
/// The fuzzing campaigns use this so one divergent or hung seed is
/// reported instead of aborting the whole run; directed tests use the
/// panicking [`run_entry_expect`] wrapper.
pub fn run_entry(
    m: &mut Machine,
    program: &Program,
    entry: &str,
    opts: ExecOptions,
) -> Result<u64, RunError> {
    let pc = program.symbol(entry).ok_or_else(|| RunError::NoEntry {
        entry: entry.to_string(),
    })?;
    m.set_pc(pc);
    let start = m.cycles();
    let abs = ExecOptions {
        max_cycles: start + opts.max_cycles,
        ..opts
    };
    match m.run_with(abs) {
        RunExit::Halted { .. } => Ok(m.cycles() - start),
        RunExit::CycleLimit => Err(RunError::CycleLimit {
            entry: entry.to_string(),
            max_cycles: opts.max_cycles,
        }),
    }
}

/// Runs the program from the given entry label until `break`, on the
/// automatically selected engine tier.
///
/// # Panics
///
/// Panics if the entry label does not exist or the cycle budget runs out
/// (both indicate suite bugs, not user errors).
pub fn run_entry_expect(m: &mut Machine, program: &Program, entry: &str, max_cycles: u64) -> u64 {
    match run_entry(m, program, entry, ExecOptions::new(max_cycles)) {
        Ok(cycles) => cycles,
        Err(e) => panic!("{e}"),
    }
}

/// Writes little-endian limbs into RAM at a named buffer.
///
/// # Panics
///
/// Panics if the buffer name is unknown.
pub fn write_buf(m: &mut Machine, program: &Program, name: &str, limbs: &[u32]) {
    let addr = program
        .ram_symbol(name)
        .unwrap_or_else(|| panic!("no RAM buffer {name:?}"));
    m.ram_mut().poke_words(addr, limbs);
}

/// Reads `n` limbs from a named RAM buffer.
///
/// # Panics
///
/// Panics if the buffer name is unknown.
pub fn read_buf(m: &Machine, program: &Program, name: &str, n: usize) -> Vec<u32> {
    let addr = program
        .ram_symbol(name)
        .unwrap_or_else(|| panic!("no RAM buffer {name:?}"));
    m.ram().peek_words(addr, n)
}
