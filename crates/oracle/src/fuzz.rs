//! The seeded fuzz driver behind `neursc_cli fuzz`.
//!
//! Each case index is mixed with the run seed (SplitMix64) into an
//! independent case seed, generated, and run through every invariant.
//! Pipeline panics are contained per case with `catch_unwind` and reported
//! as violations of the pseudo-invariant `no_panic` — a panic on valid
//! input is as much a soundness bug as a wrong count.

use crate::case::format_case;
use crate::gen::{gen_case, mix_seed, Case};
use crate::invariants::{check_all, Invariant, Oracle, Violation};
use crate::minimize::{minimize_case, minimize_with};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Run seed; case `i` uses `mix_seed(seed, i)`.
    pub seed: u64,
    /// Delta-debug each violating case before reporting it.
    pub minimize: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 100,
            seed: 42,
            minimize: false,
        }
    }
}

/// One violating case, ready to file into the corpus.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Case index within the run.
    pub index: u64,
    /// The mixed per-case seed (replays via `gen_case`).
    pub case_seed: u64,
    /// First violation the case triggered.
    pub violation: Violation,
    /// The (possibly minimized) case in `.case` text form.
    pub case_text: String,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Cases the generator failed to build (a generator bug if nonzero).
    pub gen_failures: u64,
    /// All violations found, in case order.
    pub outcomes: Vec<FuzzOutcome>,
}

impl FuzzReport {
    /// True when the run found nothing wrong.
    pub fn clean(&self) -> bool {
        self.gen_failures == 0 && self.outcomes.is_empty()
    }
}

/// Extracts a displayable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every invariant on `case`, turning a panic anywhere in the
/// pipeline into a `no_panic` violation.
fn check_case(case: &Case, oracle: &Oracle) -> Vec<Violation> {
    match catch_unwind(AssertUnwindSafe(|| check_all(case, oracle))) {
        Ok(violations) => violations,
        Err(payload) => vec![Violation {
            invariant: "no_panic".to_string(),
            detail: format!("pipeline panicked: {}", panic_message(payload)),
        }],
    }
}

/// Shrinks a violating case: by the violated invariant when it is a real
/// one, by "still panics" when the violation is a contained panic.
fn shrink(case: &Case, violation: &Violation, oracle: &Oracle) -> Case {
    match Invariant::parse(&violation.invariant) {
        Some(inv) => minimize_case(case, inv, oracle),
        None => minimize_with(case, &|c| {
            catch_unwind(AssertUnwindSafe(|| check_all(c, oracle))).is_err()
        }),
    }
}

/// Runs the fuzz loop, invoking `on_case` after each case with the case
/// index and the number of violations so far (progress reporting).
pub fn run_fuzz_with(cfg: &FuzzConfig, on_case: &mut dyn FnMut(u64, usize)) -> FuzzReport {
    let oracle = Oracle::new();
    let mut report = FuzzReport::default();
    for i in 0..cfg.cases {
        let case_seed = mix_seed(cfg.seed, i);
        let case = match gen_case(case_seed) {
            Ok(c) => c,
            Err(_) => {
                report.gen_failures += 1;
                continue;
            }
        };
        report.cases_run += 1;
        for violation in check_case(&case, &oracle) {
            let reported = if cfg.minimize {
                shrink(&case, &violation, &oracle)
            } else {
                case.clone()
            };
            let inv = Invariant::parse(&violation.invariant);
            report.outcomes.push(FuzzOutcome {
                index: i,
                case_seed,
                violation: violation.clone(),
                case_text: format_case(&reported, inv),
            });
        }
        on_case(i, report.outcomes.len());
    }
    report
}

/// [`run_fuzz_with`] without progress reporting.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_with(cfg, &mut |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_is_deterministic() {
        let cfg = FuzzConfig {
            cases: 10,
            seed: 7,
            minimize: false,
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.case_seed, y.case_seed);
            assert_eq!(x.violation, y.violation);
            assert_eq!(x.case_text, y.case_text);
        }
    }

    #[test]
    fn progress_callback_fires_per_case() {
        let mut seen = 0u64;
        let cfg = FuzzConfig {
            cases: 5,
            seed: 1,
            minimize: false,
        };
        let r = run_fuzz_with(&cfg, &mut |_, _| seen += 1);
        assert_eq!(seen, r.cases_run + r.gen_failures - r.gen_failures);
        assert_eq!(seen, 5 - r.gen_failures);
    }

    #[test]
    fn panic_message_handles_both_payload_kinds() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(p), "static");
        let p: Box<dyn std::any::Any + Send> = Box::new("owned".to_string());
        assert_eq!(panic_message(p), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p), "non-string panic payload");
    }
}
