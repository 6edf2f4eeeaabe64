//! Command-line arguments shared by both binaries.

use crate::workloads::Workload;
use std::time::Duration;

/// Usage text.
pub const USAGE: &str =
    "usage: --workload <paper-read|wide-write|causal-write> --seed <n> --seconds <s>";

/// Parsed arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock measuring budget.
    pub budget: Duration,
}

/// Parses `--workload`, `--seed` and `--seconds` (each required, any
/// order).
///
/// # Errors
///
/// Describes the first missing, unknown or malformed argument.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut budget) = (None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let secs: f64 = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
                budget = Some(Duration::from_secs_f64(secs));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: budget.ok_or("--seconds is required")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_all_three_in_any_order() {
        let a = parse(strings(&[
            "--seconds",
            "2.5",
            "--workload",
            "wide-write",
            "--seed",
            "7",
        ]));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::WideWrite,
                seed: 7,
                budget: Duration::from_millis(2500),
            })
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--workload", "fifo", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "paper-read", "--seed", "-1", "--seconds", "1"],
            &[
                "--workload",
                "paper-read",
                "--seed",
                "1",
                "--seconds",
                "NaN",
            ],
            &["--workload", "paper-read", "--seed", "1"],
            &["--workload", "paper-read", "--seed", "1", "--seconds"],
            &["--trace", "1"],
        ] {
            assert!(parse(strings(bad)).is_err(), "{bad:?}");
        }
    }
}
