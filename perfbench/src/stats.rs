//! Small numeric helpers, the process resource clock and CPU affinity.

/// The `p`-quantile of `samples` by nearest rank (`p` in `(0, 1]`).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99/p95/p90 that leaves at least ten samples beyond it:
/// `(value, percentile, samples beyond)`. Falls back to p90 when even that
/// leaves fewer than ten.
pub fn tail(samples: &[f64]) -> (f64, u32, usize) {
    let n = samples.len();
    for pct in [99u32, 95, 90] {
        let rank = (f64::from(pct) / 100.0 * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        if beyond >= 10 || pct == 90 {
            return (quantile(samples, f64::from(pct) / 100.0), pct, beyond);
        }
    }
    (0.0, 90, 0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized and aligned `struct rusage` for
    // 64-bit Linux, and getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Words of the CPU mask passed to the affinity calls: 1024 CPUs.
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from then on,
/// to the highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes, a valid `cpu_set_t` of 1024
    // CPUs, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_MASK_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("sched_getaffinity: empty CPU mask")?;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes, a valid `cpu_set_t`, and pid
    // 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } < 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Peak resident memory of this process image in MiB (`VmHWM`). Unlike
/// getrusage's `ru_maxrss`, it does not carry over the peak of the process
/// this one was exec'd from — cargo's, under `cargo run`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), (990.0, 99, 10));
        let samples: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&samples), (475.0, 95, 25));
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&samples), (45.0, 90, 5));
    }

    #[test]
    fn median_by_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
