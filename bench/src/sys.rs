//! The few Linux facilities the harness needs beyond `std`: CPU
//! affinity, and readers for the `/proc` files that say what the
//! process and its threads cost.
//!
//! The repo builds offline against vendored stubs only, so there is no
//! `libc` crate; the two syscalls are declared against the C library
//! `std` already links, as `liveserve/src/sys.rs` does for epoll. This
//! is the only module of the benchmark that contains `unsafe`.
#![allow(unsafe_code)]

use std::fs;
use std::io;
use std::os::raw::{c_int, c_ulong};

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;
const WORD_BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// A CPU affinity mask of the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([c_ulong; MASK_WORDS]);

impl CpuSet {
    /// The mask the calling thread runs under now.
    pub fn current() -> io::Result<CpuSet> {
        let mut mask = [0 as c_ulong; MASK_WORDS];
        // SAFETY: `mask` is valid for the byte length passed, and the
        // kernel writes at most that many bytes.
        let ret = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(CpuSet(mask))
    }

    /// The lowest CPU in the set.
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * WORD_BITS + w.trailing_zeros() as usize)
    }

    /// How many CPUs the set holds.
    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set holding `cpu` alone.
    pub fn single(cpu: usize) -> CpuSet {
        let mut mask = [0 as c_ulong; MASK_WORDS];
        mask[cpu / WORD_BITS] = 1 << (cpu % WORD_BITS);
        CpuSet(mask)
    }

    /// Restrict the calling thread (and every thread it spawns from now
    /// on) to this set.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: the mask is valid for the byte length passed; the
        // kernel only reads it.
        let ret = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if ret < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Pin the calling thread to the first CPU it is allowed on. Threads
/// spawned afterwards inherit the mask, so calling this first thing in
/// `main` pins the whole process. Returns the mask that was in force
/// before (to undo the pin for the few unpinned layer measurements) and
/// the CPU chosen.
pub fn pin_to_first_cpu() -> io::Result<(CpuSet, usize)> {
    let before = CpuSet::current()?;
    let cpu = before
        .first()
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    CpuSet::single(cpu).apply()?;
    Ok((before, cpu))
}

/// A named line of `/proc/self/status`, trimmed (`VmHWM`,
/// `Cpus_allowed_list`, ...).
pub fn proc_status(key: &str) -> Option<String> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let v = proc_status("VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one thread has cost so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadCost {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    /// Time spent runnable but waiting for a CPU, microseconds.
    pub runq_us: f64,
    /// Voluntary + involuntary context switches.
    pub ctxsw: f64,
}

impl ThreadCost {
    fn add(&mut self, o: &ThreadCost) {
        self.cpu_us += o.cpu_us;
        self.runq_us += o.runq_us;
        self.ctxsw += o.ctxsw;
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ThreadCost) -> ThreadCost {
        ThreadCost {
            cpu_us: self.cpu_us - earlier.cpu_us,
            runq_us: self.runq_us - earlier.runq_us,
            ctxsw: self.ctxsw - earlier.ctxsw,
        }
    }
}

/// Cost of every live thread of this process, keyed by thread id.
///
/// `schedstat` gives on-CPU and run-queue nanoseconds; the context
/// switch counts come from the thread's `status`. A thread that exits
/// between the directory listing and the reads is skipped.
pub fn thread_costs() -> Vec<(u32, ThreadCost)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let base = entry.path();
        let Ok(sched) = fs::read_to_string(base.join("schedstat")) else {
            continue;
        };
        let mut fields = sched
            .split_whitespace()
            .map(|f| f.parse::<f64>().unwrap_or(0.0));
        let cpu_ns = fields.next().unwrap_or(0.0);
        let runq_ns = fields.next().unwrap_or(0.0);
        let ctxsw = fs::read_to_string(base.join("status"))
            .map(|s| {
                s.lines()
                    .filter(|l| l.contains("ctxt_switches"))
                    .filter_map(|l| l.split(':').nth(1)?.trim().parse::<f64>().ok())
                    .sum()
            })
            .unwrap_or(0.0);
        out.push((
            tid,
            ThreadCost {
                cpu_us: cpu_ns / 1e3,
                runq_us: runq_ns / 1e3,
                ctxsw,
            },
        ));
    }
    out.sort_by_key(|(tid, _)| *tid);
    out
}

/// Sum the cost of the threads whose id satisfies `pick`.
pub fn sum_costs(costs: &[(u32, ThreadCost)], pick: impl Fn(u32) -> bool) -> ThreadCost {
    let mut total = ThreadCost::default();
    for (tid, c) in costs {
        if pick(*tid) {
            total.add(c);
        }
    }
    total
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u32> {
    fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// The 1-minute load average.
pub fn loadavg1() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `(steal, total)` jiffies summed over all CPUs since boot, from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran another
/// guest while this one had work.
pub fn cpu_jiffies() -> Option<(f64, f64)> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let vals: Vec<f64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user/nice.
    let total: f64 = vals.iter().take(8).sum();
    Some((vals.get(7).copied().unwrap_or(0.0), total))
}

/// Steal time between two [`cpu_jiffies`] readings, percent of all
/// CPU time in between.
pub fn steal_pct(before: Option<(f64, f64)>, after: Option<(f64, f64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) / (t1 - t0),
        _ => 0.0,
    }
}

/// The CPU model string, for the hardware stanza.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The kernel release, for the hardware stanza.
pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}
