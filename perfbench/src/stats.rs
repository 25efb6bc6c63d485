//! Exact order statistics over client-side samples, and process memory.

/// Nearest-rank percentile of an ascending slice, reported only when at
/// least ten samples lie beyond it (`None` otherwise), so a tail figure
/// never rests on a handful of outliers.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// "n samples, p50 …, p90 …, p99 … us" for the printed report; a
/// percentile without ten samples beyond it prints as `-`.
pub fn summary(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    sort(&mut v);
    let q = |q| tail(&v, q).map_or("-".to_string(), |x| format!("{x:.1}"));
    format!(
        "{} samples, p50 {} p90 {} p99 {} us",
        v.len(),
        q(0.5),
        q(0.9),
        q(0.99)
    )
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// CPU time (user + system, all threads, exited ones included) a
/// process has used, in seconds. Time the hypervisor stole from the
/// guest is charged to no process. This process is read from its CPU
/// clock (nanoseconds); another (an island worker) from `/proc`, in
/// clock ticks of 1/100 s.
pub fn cpu_s(pid: Option<u32>) -> Option<f64> {
    let Some(p) = pid else {
        return process_cpu_clock_s();
    };
    let text = std::fs::read_to_string(format!("/proc/{p}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// This process's CPU clock; `/proc/self/stat` would round set-up
/// times to 10 ms, so that every run read the same.
fn process_cpu_clock_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, aligned `Timespec` laid out as
    // that struct (two 64-bit fields on 64-bit Linux), and keeps no
    // reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// Peak resident set (VmHWM) of a process in MiB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(tail(&v[..999], 0.99), None, "only 9 beyond p99");
        assert_eq!(tail(&v[..100], 0.90), Some(90.0));
        assert_eq!(tail(&v[..99], 0.90), None);
        assert_eq!(tail(&v[..20], 0.5), Some(10.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn summary_omits_unsupported_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summary(&v), "200 samples, p50 100.0 p90 180.0 p99 - us");
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn own_cpu_clock_counts_work_at_sub_tick_resolution() {
        let a = cpu_s(None).expect("cpu clock");
        let mut x = 1u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let b = cpu_s(None).expect("cpu clock");
        assert!(b > a && b - a < 0.01, "{a} → {b}");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }
}
