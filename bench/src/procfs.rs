//! What the kernel accounts to this process: CPU time, I/O syscalls, peak
//! resident memory. Linux `/proc` only; the benchmark runs nowhere else.

use std::fs;

/// `USER_HZ`: the unit of the CPU fields in `/proc/<pid>/stat`. Fixed at 100
/// on every Linux ABI regardless of the kernel's own tick rate.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("numeric utime/stime") as f64
    };
    (tick() + tick()) / TICKS_PER_S
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// `struct timespec` is two 64-bit words only on 64-bit Linux.
const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU nanoseconds the calling thread has consumed
/// (`CLOCK_THREAD_CPUTIME_ID`): time spent runnable but waiting, or asleep,
/// does not count.
pub fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live local laid out like `struct timespec` on 64-bit
    // Linux (asserted above); the call writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// `read`-family syscalls issued.
    pub syscr: u64,
    /// `write`-family syscalls issued.
    pub syscw: u64,
    /// Bytes passed to `write`-family syscalls (sockets and files).
    pub wchar: u64,
}

impl IoCounters {
    pub fn read() -> IoCounters {
        let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or(0)
        };
        IoCounters {
            syscr: field("syscr"),
            syscw: field("syscw"),
            wchar: field("wchar"),
        }
    }

    pub fn since(&self, earlier: &IoCounters) -> IoCounters {
        IoCounters {
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
            wchar: self.wchar - earlier.wchar,
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = text
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_move() {
        let c0 = cpu_seconds();
        let io0 = IoCounters::read();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let _ = fs::read_to_string("/proc/self/stat");
        let t0 = thread_cpu_ns();
        assert!(cpu_seconds() - c0 >= 0.03, "60 ms of spinning shows up");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            thread_cpu_ns() - t0 < 20_000_000,
            "sleeping is not CPU time"
        );
        assert!(t0 >= 30_000_000, "the spinning was this thread's");
        assert!(IoCounters::read().since(&io0).syscr >= 1);
        assert!(peak_rss_mib() > 0.5);
    }
}
