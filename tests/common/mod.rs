//! The `/proc` reader the memory tests share (Linux only). Each memory
//! test stays a binary of its own: `VmHWM` is per process, and a case
//! that ran after another in the same process would start from memory
//! the allocator kept, and under-measure.

/// `VmHWM` from `/proc/self/status`, in bytes.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .expect("the kernel reports VmHWM");
    let kib: u64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("VmHWM is a number of kB");
    kib * 1024
}

/// Reset the peak resident set to the current one and return it: the
/// start of a measurement.
pub fn reset_peak() -> u64 {
    // Writing 5 resets the peak to the current resident set.
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
    peak_rss_bytes()
}
