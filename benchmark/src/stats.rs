//! Window statistics and process CPU time.

/// Minimum, median and quartiles of a set of window readings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by linear interpolation between order statistics (the
    /// "inclusive" method). Panics on an empty set: every phase records
    /// at least one window.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no windows recorded");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        };
        Summary {
            n: v.len(),
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }
}

/// The windows of a phase that read the code rather than the host:
/// those within 5 % of the fastest, or the four fastest when fewer
/// come that close. The traced run draws its ledger from these, for
/// the reason the untraced run reports the fastest window (see
/// `Metric::fastest`); several, because a ledger row is a mean over
/// sampled symbols and one window samples few.
pub fn quiet_windows(window_ns: &[f64]) -> Vec<usize> {
    const WITHIN: f64 = 1.05;
    const AT_LEAST: usize = 4;
    let mut order: Vec<usize> = (0..window_ns.len()).collect();
    order.sort_by(|&a, &b| window_ns[a].total_cmp(&window_ns[b]));
    let Some(&fastest) = order.first() else {
        return order;
    };
    let close = order
        .iter()
        .take_while(|&&w| window_ns[w] <= window_ns[fastest] * WITHIN)
        .count();
    order.truncate(close.max(AT_LEAST));
    order.sort_unstable();
    order
}

/// The mean of `window_ns` over `windows`.
pub fn mean_over(window_ns: &[f64], windows: &[usize]) -> f64 {
    windows.iter().map(|&w| window_ns[w]).sum::<f64>() / windows.len().max(1) as f64
}

/// Process CPU time, user and system, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    pub user: f64,
    pub sys: f64,
}

impl CpuTime {
    /// Reads `utime` and `stime` of `/proc/self/stat` (all threads of
    /// the process). The unit is the kernel's `USER_HZ`, which Linux
    /// fixes at 100 on every architecture, so one tick is 10 ms: read it
    /// only across phases of seconds, for the user/system split that
    /// [`process_cpu_ns`] cannot give.
    pub fn now() -> CpuTime {
        const USER_HZ: f64 = 100.0;
        // Read into the stack: this runs inside timed phases whose heap
        // allocations are counted.
        let mut buf = [0u8; 1024];
        let mut file = std::fs::File::open("/proc/self/stat").expect("procfs is mounted");
        // procfs renders a stat file whole on the first read.
        let len = std::io::Read::read(&mut file, &mut buf).expect("stat is readable");
        let stat = std::str::from_utf8(&buf[..len]).expect("stat is text");
        // The command name (field 2) may contain spaces; fields are
        // counted after its closing parenthesis.
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let mut tick = || -> f64 {
            let field = fields.next().expect("stat has utime and stime");
            field.parse::<u64>().expect("tick count") as f64 / USER_HZ
        };
        let user = tick();
        let sys = tick();
        CpuTime { user, sys }
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Process CPU time, all threads, user and system, in nanoseconds:
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. `/proc/self/stat` counts
/// in 10 ms ticks, too coarse for a reading per window.
pub fn process_cpu_ns() -> u64 {
    // `struct timespec` on 64-bit Linux: two 64-bit signed fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const _: () = assert!(
        cfg!(all(target_os = "linux", target_pointer_width = "64")),
        "Timespec above is the 64-bit Linux layout"
    );
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std already
    // links; it writes one `struct timespec` through `tp`, and `ts` is
    // a live, exclusively borrowed value of exactly that layout (checked
    // for this target above). It keeps no pointer after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Moves the calling thread to the next CPU it is allowed on, once per
/// timed window, and gives it its original CPU set back when dropped.
///
/// On a shared KVM guest a thread that stays on one vCPU reads the same
/// neighbour for seconds on end: windows come in plateaus (here 4.9, 6.3
/// and 8.2 us per `mem_bulk` symbol) that outlast a run, so ten runs'
/// fastest windows spread 8-18 % of their median. Each move wakes a
/// vCPU that has been idle, which the host places afresh; consecutive
/// windows then read independent neighbours, every three seconds of a
/// run hold windows at the floor, and the same statistic spreads 1.4 %.
/// With one allowed CPU, or where the call is refused, nothing moves.
pub struct CpuRotation {
    original: CpuSet,
    allowed: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    pub fn start() -> CpuRotation {
        let mut original: CpuSet = [0; 16];
        // SAFETY: the C library's `sched_getaffinity` writes at most
        // `size` bytes through `mask`; `original` is exactly that large
        // and exclusively borrowed. Pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut original) };
        let allowed = if rc == 0 {
            (0..1024)
                .filter(|cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotation {
            original,
            allowed,
            next: 0,
        }
    }

    /// Call between two windows, never inside one.
    pub fn advance(&mut self) {
        if self.allowed.len() < 2 {
            return;
        }
        let cpu = self.allowed[self.next % self.allowed.len()];
        self.next += 1;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one);
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        // Threads spawned later (the server's shards) inherit this
        // thread's set, so it must not stay narrowed.
        if self.allowed.len() >= 2 {
            set_affinity(&self.original);
        }
    }
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: the C library's `sched_setaffinity` reads `size` bytes
    // through `mask`, which is a live value of exactly that size, and
    // keeps no pointer. A refusal (the result is ignored) leaves the
    // thread where it was, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_restores_the_cpu_set() {
        let read = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: as in `CpuRotation::start`.
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
            set
        };
        let before = read();
        let mut rotation = CpuRotation::start();
        for _ in 0..3 {
            rotation.advance();
            let now: u32 = read().iter().map(|w| w.count_ones()).sum();
            assert!(rotation.allowed.len() < 2 || now == 1);
        }
        drop(rotation);
        assert_eq!(read(), before);
    }

    #[test]
    fn quiet_windows_are_the_fastest_and_their_near_equals() {
        let mut ns = vec![200.0; 20];
        ns[3] = 100.0;
        ns[7] = 104.0;
        // Two are within 5 % of the fastest; two more fill the four.
        let quiet = quiet_windows(&ns);
        assert_eq!(quiet.len(), 4);
        assert!(quiet.contains(&3) && quiet.contains(&7));
        assert!(quiet.windows(2).all(|p| p[0] < p[1]));
        // All equal: all are quiet.
        assert_eq!(quiet_windows(&[5.0; 12]).len(), 12);
        assert_eq!(quiet_windows(&[5.0, 9.0]), [0, 1]);
        assert_eq!(mean_over(&ns, &[3, 7]), 102.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.q1, s.median, s.q3), (5, 1.0, 2.0, 3.0, 4.0));
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn cpu_time_is_monotone() {
        let a = CpuTime::now();
        let b = CpuTime::now();
        let d = b.since(a);
        assert!(d.user >= 0.0 && d.sys >= 0.0);
    }

    #[test]
    fn cpu_clock_counts_work() {
        // Only a lower bound: the clock is the whole process's, and
        // other tests run on other threads meanwhile.
        let start = process_cpu_ns();
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while t.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        assert!(process_cpu_ns() - start > 10_000_000);
    }
}
