//! Pinning threads to CPUs (Linux `sched_setaffinity`).
//!
//! A thread inherits the CPU set of the thread that starts it, so pinning
//! the main thread before it starts another pins every thread of the
//! process, the per-call workers of the program's parallel kernels
//! included.

/// Bytes in the kernel's CPU mask that the calls pass (1024 CPUs).
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    cpus_in(&mask)
}

/// Restrict the calling thread to `cpu`; false when the kernel refuses.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u8; MASK_BYTES];
    if cpu >= MASK_BYTES * 8 {
        return false;
    }
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) == 0 }
}

/// The CPUs set in a kernel CPU mask, ascending.
fn cpus_in(mask: &[u8]) -> Vec<usize> {
    (0..mask.len() * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_list_their_cpus() {
        let mut mask = [0u8; MASK_BYTES];
        mask[0] = 0b1000_0101;
        mask[1] = 0b0000_0010;
        assert_eq!(cpus_in(&mask), vec![0, 2, 7, 9]);
    }

    #[test]
    fn a_thread_pinned_to_an_allowed_cpu_runs_only_there() {
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        let last = *allowed.last().expect("non-empty");
        let seen = std::thread::spawn(move || {
            assert!(pin_current_thread(last));
            allowed_cpus()
        })
        .join()
        .expect("pinned thread");
        assert_eq!(seen, vec![last]);
    }
}
