//! The pure parts of the harness: option parsing, the seeded arrival
//! schedule, the percentile rank rule, the latency budget arithmetic and
//! the one-line JSON run summary. Nothing here touches a socket or a
//! clock, so every rule the benchmark's numbers rest on is unit-tested.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// A traffic mix the benchmark can run. The README gives each one's
/// reason; later changes cite them by [`Workload::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop Poisson logins over the natural fingerprint pool.
    LoginPaced,
    /// Closed-loop pipelined flood over far more keys than the cache holds.
    FloodUnique,
    /// Closed-loop pipelined flood over a key set that fits in the cache.
    FloodRepeat,
    /// `LoginPaced` traffic while a second thread retrains and publishes.
    ModelChurn,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::LoginPaced,
        Workload::FloodUnique,
        Workload::FloodRepeat,
        Workload::ModelChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoginPaced => "login-paced",
            Workload::FloodUnique => "flood-unique",
            Workload::FloodRepeat => "flood-repeat",
            Workload::ModelChurn => "model-churn",
        }
    }

    /// Whether requests follow an arrival schedule (open loop) rather
    /// than a pipelined closed loop.
    pub fn is_open_loop(self) -> bool {
        matches!(self, Workload::LoginPaced | Workload::ModelChurn)
    }
}

/// Parsed command line: `--workload W --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parses the arguments after the program name. Every flag is required
/// once; anything else is an error naming the offending argument.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot_taken = |set: bool| {
            if set {
                Err(format!("{flag} given twice"))
            } else {
                Ok(())
            }
        };
        match flag.as_str() {
            "--workload" => {
                slot_taken(workload.is_some())?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                slot_taken(seed.is_some())?;
                seed = Some(parse_number(flag, value)?);
            }
            "--seconds" => {
                slot_taken(seconds.is_some())?;
                let s = parse_number(flag, value)?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                slot_taken(trace.is_some())?;
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn parse_number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} value {value:?}"))
}

/// Derives an independent sub-seed for one input stream (pool, arrival
/// schedule, sequence, ...) from the workload seed: splitmix64 over the
/// pair, so streams of one seed never share a ChaCha key.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Send times, in nanoseconds from the schedule's start, of a Poisson
/// arrival process at `rate_per_s` over `duration_ns`: exponential gaps
/// drawn from one seeded ChaCha stream, so a seed fixes every send time.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 16);
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() * mean_gap_ns;
        if at >= duration_ns as f64 {
            return out;
        }
        out.push(at as u64);
    }
}

/// One percentile read off a sorted sample by the nearest-rank rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// 1-based rank of `value` in the sorted sample: `ceil(p·n)`.
    pub rank: usize,
    /// Samples strictly above that rank: `n - rank`.
    pub beyond: usize,
}

/// The nearest-rank percentile `p` (in `(0, 1]`) of an ascending sample,
/// or `None` for an empty one. The value is always an observed sample,
/// never an interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        rank,
        beyond: n - rank,
    })
}

/// Fewest samples that must lie above a reported percentile for it to
/// count as measured rather than read off the last few outliers.
pub const MIN_BEYOND: usize = 10;

/// Median, 99th percentile and sample count of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    pub p99: f64,
    /// Samples above the p99 rank.
    pub p99_beyond: usize,
}

/// Summarises `values` (any order). Fails when the sample cannot support
/// its p99: fewer than [`MIN_BEYOND`] samples above it.
pub fn summarize(values: &[f64]) -> Result<Summary, String> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (Some(p50), Some(p99)) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99)) else {
        return Err("no latency samples".into());
    };
    if p99.beyond < MIN_BEYOND {
        return Err(format!(
            "only {} of {} samples lie beyond the p99; need at least {MIN_BEYOND}",
            p99.beyond,
            sorted.len()
        ));
    }
    Ok(Summary {
        samples: sorted.len(),
        p50: p50.value,
        p99: p99.value,
        p99_beyond: p99.beyond,
    })
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Share of `items` equal to an earlier item: how much of a sequence a
/// cache or memo keyed on the item could answer without bounds on size.
pub fn repeat_share<T: std::hash::Hash + Eq>(items: impl IntoIterator<Item = T>) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for item in items {
        total += 1;
        if !seen.insert(item) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}

/// The latency budget: a measured per-request total split into the sum
/// of the replayed stage times and the residual nothing replayed covers
/// (connection core, syscalls, loopback, wake-ups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    pub total: f64,
    pub stages: f64,
    pub residual: f64,
}

/// Splits `total` into `Σ stages + residual`. The residual is signed: a
/// negative one means the replayed stages cost more than the live total.
pub fn budget(total: f64, stages: &[f64]) -> Budget {
    let sum: f64 = stages.iter().sum();
    Budget {
        total,
        stages: sum,
        residual: total - sum,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The run summary the benchmark prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The summary as one JSON object. Values print with every digit
    /// (Rust's shortest round-trip form); a non-finite value is an error
    /// because JSON cannot carry it.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_every_flag_in_any_order() {
        let opts = parse_options(&args(&[
            "--trace",
            "1",
            "--seconds",
            "10",
            "--workload",
            "flood-repeat",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(
            opts,
            Options {
                workload: Workload::FloodRepeat,
                seed: 42,
                seconds: 10,
                trace: true,
            }
        );
    }

    #[test]
    fn options_reject_missing_unknown_and_repeated_flags() {
        let full = ["--workload", "login-paced", "--seed", "1", "--seconds", "5"];
        assert!(parse_options(&args(&full)).is_err(), "--trace missing");
        let mut bad = full.to_vec();
        bad.extend(["--trace", "2"]);
        assert!(parse_options(&args(&bad)).is_err());
        let mut unknown = full.to_vec();
        unknown.extend(["--trace", "0", "--rate", "5"]);
        assert!(parse_options(&args(&unknown)).is_err());
        let mut twice = full.to_vec();
        twice.extend(["--trace", "0", "--seed", "2"]);
        assert!(parse_options(&args(&twice)).is_err());
        assert!(parse_options(&args(&["--workload", "nope"])).is_err());
        assert!(parse_options(&args(&["--seconds"])).is_err());
    }

    #[test]
    fn schedule_is_a_function_of_its_seed() {
        let a = poisson_schedule(7, 10_000.0, 500_000_000);
        let b = poisson_schedule(7, 10_000.0, 500_000_000);
        let c = poisson_schedule(8, 10_000.0, 500_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "send times ascend");
        assert!(a.last().copied().unwrap() < 500_000_000);
    }

    #[test]
    fn schedule_holds_its_mean_rate() {
        // 10k/s over 2 s: 20 000 expected arrivals, sd ~141.
        let n = poisson_schedule(3, 10_000.0, 2_000_000_000).len() as f64;
        assert!((n - 20_000.0).abs() < 700.0, "{n} arrivals");
    }

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat_per_input() {
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&sorted, 0.5).unwrap();
        assert_eq!((p50.value, p50.rank, p50.beyond), (50.0, 50, 50));
        let p99 = percentile(&sorted, 0.99).unwrap();
        assert_eq!((p99.value, p99.rank, p99.beyond), (99.0, 99, 1));
        let p100 = percentile(&sorted, 1.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
        // ceil(0.5 · 3) = 2: the middle sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&sorted, 0.0), None);
    }

    #[test]
    fn summary_requires_ten_samples_beyond_the_p99() {
        // 999 samples: rank ceil(989.01) = 990, 9 beyond -> refused.
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(summarize(&short).is_err());
        // 1000 samples: rank 990, exactly 10 beyond -> accepted.
        let enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&enough).unwrap();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.p99_beyond, 10);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.p50, 499.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn repeat_share_counts_items_seen_before() {
        assert_eq!(repeat_share([1, 2, 1, 1, 3]), 0.4);
        assert_eq!(repeat_share(["a", "b"]), 0.0);
        assert_eq!(repeat_share(Vec::<u8>::new()), 0.0);
    }

    #[test]
    fn budget_residual_is_total_minus_the_stage_sum() {
        let b = budget(37.5, &[0.25, 1.5, 0.75]);
        assert_eq!(b.stages, 2.5);
        assert_eq!(b.residual, 35.0);
        assert_eq!(b.stages + b.residual, b.total);
        // Stages dearer than the total leave a negative residual.
        assert_eq!(budget(1.0, &[0.75, 0.5]).residual, -0.25);
        assert_eq!(budget(2.0, &[]).residual, 2.0);
    }

    #[test]
    fn report_renders_one_json_object_with_full_precision() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_us",
                    value: 37.123456789,
                    unit: "us",
                },
                Metric {
                    name: "setup_s",
                    value: 0.5,
                    unit: "s",
                },
            ],
        };
        assert_eq!(
            report.to_json().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 37.123456789, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let bad = Report {
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
            ..report
        };
        assert!(bad.to_json().is_err());
    }
}
