//! Property tests for histogram correctness and trace-ring semantics.

use proptest::prelude::*;
use wf_obs::metrics::{bucket_index, bucket_upper_bound};
use wf_obs::{Histogram, TraceRing};

/// Exact quantile from a sorted copy, matching the histogram's
/// rank-`⌈q·n⌉` definition.
fn oracle_quantile(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_value_lands_in_its_bucket(v in 0u64..(1 << 50)) {
        let i = bucket_index(v);
        prop_assert!(v <= bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantiles_bracket_the_oracle(
        values in proptest::collection::vec(0u64..(1 << 40), 1..400),
        qx in 0.01f64..1.0,
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        for q in [qx, 0.5, 0.99] {
            let oracle = oracle_quantile(&values, q);
            let estimate = snap.quantile(q);
            // Log2 buckets: the estimate is the bucket upper bound, so it
            // is ≥ the true value and < 2x it (exact for 0).
            prop_assert!(estimate >= oracle, "q={} est={} oracle={}", q, estimate, oracle);
            if oracle == 0 {
                prop_assert_eq!(estimate, 0);
            } else {
                prop_assert!(
                    estimate < oracle.saturating_mul(2),
                    "q={} est={} oracle={}", q, estimate, oracle
                );
            }
        }
    }

    #[test]
    fn trace_ring_keeps_newest(cap in 1usize..64, n in 0usize..200) {
        let ring = TraceRing::new(cap);
        for i in 0..n {
            ring.record("e", Some(i as u64), None, 0, String::new());
        }
        let events = ring.dump();
        prop_assert_eq!(events.len(), n.min(cap));
        prop_assert_eq!(ring.dropped(), n.saturating_sub(cap) as u64);
        // Retained events are exactly the suffix, in order.
        let first = n.saturating_sub(cap) as u64;
        for (offset, e) in events.iter().enumerate() {
            prop_assert_eq!(e.run_id, Some(first + offset as u64));
        }
    }
}

/// Concurrent recording loses nothing: counts and sums add up exactly.
#[test]
fn concurrent_recording_is_lossless() {
    use std::sync::Arc;
    let h = Arc::new(Histogram::new());
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = h.snapshot();
    assert_eq!(snap.count(), THREADS * PER_THREAD);
    let n = THREADS * PER_THREAD;
    assert_eq!(snap.sum, n * (n - 1) / 2);
}
