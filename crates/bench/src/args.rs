//! The one argument cursor of the `repro` and `bench` command lines.
//!
//! Every flag value is read through [`Args::value`] (any `FromStr`
//! type: paths, curve/arch/workload names, …), [`Args::positive`]
//! (counts) or [`Args::value_with`] (a custom check). A missing or
//! malformed value exits with the usage status 2 and a message that
//! starts with the flag, so no subcommand repeats that handling.

use std::fmt::Display;
use std::str::FromStr;

/// Prints `msg` to stderr and exits with the usage-error status 2.
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A cursor over the remaining command-line arguments. Iterating
/// yields the next flag or operand; the `value*` methods consume the
/// flag's value.
pub struct Args {
    rest: std::env::Args,
}

impl Args {
    /// The process arguments after the program name.
    pub fn from_env() -> Self {
        let mut rest = std::env::args();
        rest.next();
        Args { rest }
    }

    /// The value of `flag`, parsed by its `FromStr`. Exits 2 with
    /// `{flag} expects a value` when it is missing, or with the parse
    /// error when it is malformed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let v = self
            .rest
            .next()
            .unwrap_or_else(|| usage_error(format!("{flag} expects a value")));
        v.parse()
            .unwrap_or_else(|e| usage_error(format!("{flag}: {e}")))
    }

    /// The value of `flag` as read by `parse`. Exits 2 with
    /// `{flag} expects {what}` when it is missing or `parse` rejects it.
    pub fn value_with<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> T {
        self.rest
            .next()
            .and_then(|v| parse(&v))
            .unwrap_or_else(|| usage_error(format!("{flag} expects {what}")))
    }

    /// The value of `flag` as a count greater than zero.
    pub fn positive<T: FromStr + PartialOrd + Default>(&mut self, flag: &str) -> T {
        self.value_with(flag, "a positive integer", |v| {
            v.parse().ok().filter(|n| *n > T::default())
        })
    }

    /// Exits 2 naming an option subcommand `cmd` does not know.
    pub fn unknown(cmd: &str, flag: &str) -> ! {
        usage_error(format!("unknown {cmd} option {flag:?}"))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }
}
