//! What the benchmark reads from and asks of the host: core count, the
//! process's peak resident set, and which CPUs it runs on.

/// Hardware threads available to this process (1 if unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs a process may run on, as the kernel's bit mask (1024 CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CpuSet([u64; 16]);

// Rust's standard library links libc but has no affinity call of its own.
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: the mask is a live, correctly sized array; pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) == 0 }
}

/// Confines this thread, and every thread it starts afterwards, to the CPU
/// it is running on, and returns the set it was allowed before. On a few
/// cores of a shared host the measured path then never runs more threads at
/// once than it has cores, nothing migrates or wakes a thread on another
/// core, and [`nproc`] reads 1. `None` (and nothing changed) where the
/// kernel refuses.
pub fn pin() -> Option<CpuSet> {
    let mut before = CpuSet([0; 16]);
    // SAFETY: as in `set_affinity`; `sched_getcpu` takes no arguments.
    let cpu = unsafe {
        if sched_getaffinity(0, std::mem::size_of_val(&before.0), before.0.as_mut_ptr()) != 0 {
            return None;
        }
        usize::try_from(sched_getcpu()).ok()?
    };
    let mut one = CpuSet([0; 16]);
    *one.0.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    set_affinity(&one).then_some(before)
}

/// Gives this thread back the CPUs it had before [`pin`].
pub fn unpin(before: &CpuSet) {
    set_affinity(before);
}
