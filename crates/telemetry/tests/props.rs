//! Property tests for histogram correctness and exposition integrity.
//!
//! The histogram invariants pinned here are what every stage-latency
//! number in the proxy's dashboards rests on:
//!
//! - bucket boundaries are monotone and tile the `u64` line exactly;
//! - every recorded value lands in the bucket whose bounds contain it;
//! - quantile estimates are within one bucket width of the exact order
//!   statistic (and exact below 16, where buckets have width 1).

use fiat_telemetry::{Histogram, MetricRegistry};
use proptest::prelude::*;

/// Exact order statistic matching `Histogram::quantile`'s rank rule.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The width of the bucket a value falls into: 1 below 16, then one
/// sixteenth of the enclosing power of two.
fn bucket_width(v: u64) -> u64 {
    if v < 16 {
        1
    } else {
        1u64 << (63 - v.leading_zeros() - 4)
    }
}

proptest! {
    #[test]
    fn recorded_values_are_fully_accounted(values in prop::collection::vec(any::<u64>(), 1..200)) {
        let h = Histogram::new();
        let mut sum = 0u128;
        for &v in &values {
            h.record(v);
            sum += v as u128;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), sum as u64); // u64 wrap matches fetch_add semantics
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        // The cumulative bucket series ends at the total count and is
        // strictly monotone in both bound and count.
        let buckets = h.cumulative_buckets();
        prop_assert_eq!(buckets.last().unwrap().1, values.len() as u64);
        for w in buckets.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "bounds monotone");
            prop_assert!(w[0].1 < w[1].1, "cumulative counts monotone");
        }
    }

    #[test]
    fn recorded_value_lands_in_covering_bucket(v in any::<u64>()) {
        let h = Histogram::new();
        h.record(v);
        let buckets = h.cumulative_buckets();
        prop_assert_eq!(buckets.len(), 1);
        let (upper, count) = buckets[0];
        prop_assert_eq!(count, 1);
        // The inclusive upper bound covers the value and is within one
        // bucket width above it.
        prop_assert!(upper >= v);
        prop_assert!(upper - v < bucket_width(v).max(1));
    }

    #[test]
    fn quantiles_within_one_bucket_width(
        values in prop::collection::vec(0u64..1 << 48, 1..300),
        q in 0.0f64..=1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = h.quantile(q);
        let width = bucket_width(exact);
        prop_assert!(
            est.abs_diff(exact) <= width,
            "q={} exact={} est={} width={}",
            q, exact, est, width
        );
        // Estimates never escape the recorded range.
        prop_assert!(est >= h.min() && est <= h.max());
    }

    #[test]
    fn small_value_quantiles_are_exact(
        values in prop::collection::vec(0u64..16, 1..100),
        q in 0.0f64..=1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.quantile(q), exact_quantile(&sorted, q));
    }

    #[test]
    fn json_exposition_balanced_for_arbitrary_label_values(
        label in "[ -~]{0,24}",
        v in any::<u64>(),
    ) {
        let reg = MetricRegistry::new();
        reg.counter("c_total", &[("k", &label)]).add(v);
        reg.histogram("h_us", &[("k", &label)]).record(v);
        let json = reg.render_json();
        // Balanced structure outside string literals, honoring escapes.
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0);
        }
        prop_assert_eq!(depth, 0);
        prop_assert!(!in_str);
    }
}
