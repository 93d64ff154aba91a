//! Summary statistics: medians and the tail percentile rule, plus the
//! process and thread CPU clocks.

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// CPU time this process has used so far, summed over its threads, in
/// milliseconds (`CLOCK_PROCESS_CPUTIME_ID`). Time the host steals from
/// the process does not count, so it varies less than wall time on a
/// shared machine.
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in milliseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ms(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec (64-bit `time_t` and
    // `long` on the 64-bit Linux targets the benchmark runs on).
    if unsafe { clock_gettime(clock, &mut t) } != 0 {
        return 0.0;
    }
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 / 1e6
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at that percentile.
    pub value: f64,
    /// Which percentile it is, in percent.
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail percentile.
pub const BEYOND: usize = 10;

/// With `n` samples sorted ascending, the value of rank `n - BEYOND` (the
/// `(n - BEYOND) / n` percentile) has exactly `BEYOND` samples above it —
/// the highest rank that does. With `BEYOND` samples or fewer no
/// percentile qualifies; the maximum is reported as the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n <= BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - BEYOND;
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), BEYOND);

        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 100.0, 3));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven);
        assert_eq!(t.value, 1.0);
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn the_cpu_clocks_advance_with_work() {
        let (process, thread) = (process_cpu_ms(), thread_cpu_ms());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ms() > process, "{x}");
        assert!(thread_cpu_ms() > thread, "{x}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
