//! Argument parsing: positionals plus `--flag value` / `--switch`.

use std::collections::BTreeMap;
use std::str::FromStr;

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["--smoke"];

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Split `args` into positionals and flags. Every flag other than a
    /// known switch consumes the next argument as its value.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                out.positional.push(arg.clone());
            } else if SWITCHES.contains(&arg.as_str()) {
                out.flags.insert(arg.clone(), String::new());
            } else {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.flags.insert(arg.clone(), value.clone());
            }
        }
        Ok(out)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The raw value of `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// `flag` parsed as `T`, or `default` when absent.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        }
    }

    /// Reject flags outside `known` (typos should not silently run the
    /// default).
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(unknown) => Err(format!("unknown flag {unknown}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn splits_positionals_flags_and_switches() {
        let a = Args::parse(&args("rep live-hit --seed 7 --smoke")).unwrap();
        assert_eq!(a.positional, ["rep", "live-hit"]);
        assert_eq!(a.get("--seed", 0u64), Ok(7));
        assert_eq!(a.get("--reps", 5usize), Ok(5));
        assert!(a.has("--smoke"));
        assert!(a.only(&["--seed", "--smoke"]).is_ok());
        assert!(a.only(&["--seed"]).is_err());
    }

    #[test]
    fn a_flag_without_value_or_with_garbage_is_an_error() {
        assert!(Args::parse(&args("rep --seed")).is_err());
        let a = Args::parse(&args("--seed x")).unwrap();
        assert!(a.get("--seed", 0u64).is_err());
    }
}
