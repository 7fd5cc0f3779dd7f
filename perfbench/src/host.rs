//! Process and host facts: CPU time, memory, and the host and checkout
//! a result was measured on.

use std::path::Path;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User plus system CPU seconds this process has used, over all threads,
/// including threads that have exited; nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel defines for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Return the allocator's free memory to the kernel, then restart the peak
/// resident set size from the current one, so that the next
/// [`peak_rss_mb`] covers only what runs after this call and does not
/// depend on what earlier repetitions left cached in the allocator. Where
/// the kernel refuses the reset, the peak keeps covering the whole process.
pub fn reset_peak_rss() {
    // SAFETY: glibc's malloc_trim takes no pointers and may be called at
    // any time from any thread.
    unsafe { malloc_trim(0) };
    // Writing 5 to clear_refs resets VmHWM and nothing else (Linux 4.0+).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Usable CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The running kernel release.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit checked out at `root`, or "unknown" outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(&git.join(reference)) {
        return commit;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `MADV_POPULATE_READ` (Linux 5.14+).
const MADV_POPULATE_READ: i32 = 22;

extern "C" {
    fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
}

/// Fault in every page of the process's readable file-backed mappings (its
/// executable and shared libraries), so the file-backed share of resident
/// memory no longer depends on which code pages a run happened to touch
/// or on page-cache state. Call once at start-up, before any other thread
/// exists. Best effort: a mapping that cannot be populated is skipped.
pub fn populate_file_mappings() {
    let Ok(maps) = std::fs::read_to_string("/proc/self/maps") else {
        return;
    };
    for line in maps.lines() {
        // "start-end perms offset dev inode path"
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [range, perms, _, _, inode, path, ..] = fields[..] else {
            continue;
        };
        if inode == "0" || !path.starts_with('/') || !perms.starts_with('r') {
            continue;
        }
        let Some((start, end)) = range.split_once('-') else {
            continue;
        };
        let (Ok(start), Ok(end)) = (
            usize::from_str_radix(start, 16),
            usize::from_str_radix(end, 16),
        ) else {
            continue;
        };
        // SAFETY: the range is one of this process's own readable
        // mappings, read from /proc/self/maps while no other thread can
        // unmap it. MADV_POPULATE_READ only faults pages in: it changes no
        // contents or protections and reports a failure (such as a page
        // past the end of the file) as an error return, never a signal.
        let _ = unsafe {
            madvise(
                start as *mut std::ffi::c_void,
                end - start,
                MADV_POPULATE_READ,
            )
        };
    }
}
