//! Pin a rank thread to its own core.
//!
//! Every workload is two closed-loop ranks on a two-core host. Left to
//! the scheduler, both rank threads sometimes share one core for a whole
//! child: GUPS then runs ~40 % *faster* (no cache line ever moves between
//! cores) and the calibration kernel at half speed — a different
//! experiment, not noise around the same one. Rank `r` therefore pins
//! itself to the `r`-th CPU this process may run on.
//!
//! The workspace has no libc bindings, so this is a raw
//! `sched_{get,set}affinity` syscall, like the shm conduit's `mmap`.

/// Room for 1024 CPUs, the kernel's usual `CONFIG_NR_CPUS` ceiling.
const MASK_WORDS: usize = 16;

use std::sync::OnceLock;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(nr: isize, mask: *mut u64) -> isize {
    let ret: isize;
    // SAFETY: `sched_getaffinity` (204) writes and `sched_setaffinity`
    // (203) reads at most `MASK_WORDS * 8` bytes at `mask`, which both
    // callers below pass as a live `[u64; MASK_WORDS]`; pid 0 is the
    // calling thread. The kernel clobbers only rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") 0usize,
            in("rsi") MASK_WORDS * 8,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_nr: isize, _mask: *mut u64) -> isize {
    -1
}

/// CPUs the calling thread may run on now, ascending (empty if unknown).
fn current_cpus() -> Vec<usize> {
    const SYS_SCHED_GETAFFINITY: isize = 204;
    let mut mask = [0u64; MASK_WORDS];
    if affinity_syscall(SYS_SCHED_GETAFFINITY, mask.as_mut_ptr()) < 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The CPUs this process started with. New threads inherit the mask of
/// the thread that spawns them, so once a measuring thread has pinned
/// itself the *current* mask says nothing about the host any more;
/// [`remember_process_cpus`] captures it first.
static PROCESS_CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// Record the process's CPU set. Call first thing in `main`, before any
/// thread pins itself.
pub fn remember_process_cpus() {
    PROCESS_CPUS.get_or_init(current_cpus);
}

fn set_affinity(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    !cpus.is_empty() && affinity_syscall(SYS_SCHED_SETAFFINITY, mask.as_mut_ptr()) == 0
}

/// Pin the calling thread to the `slot`-th CPU of the process, when the
/// process has at least `slots` of them. Returns whether it is now
/// pinned; on a host with fewer cores (or another OS) threads stay
/// unpinned and the result is marked accordingly.
pub fn pin_to_slot(slot: usize, slots: usize) -> bool {
    let cpus = PROCESS_CPUS.get_or_init(current_cpus);
    cpus.len() >= slots && slot < slots && set_affinity(&cpus[slot..=slot])
}

/// Give the calling thread the whole process CPU set back.
pub fn unpin() {
    set_affinity(PROCESS_CPUS.get_or_init(current_cpus));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_thread_to_one_process_cpu() {
        // On its own thread, so the test runner's thread keeps its mask.
        std::thread::spawn(|| {
            remember_process_cpus();
            let all = PROCESS_CPUS.get().expect("just remembered").clone();
            if all.is_empty() {
                return; // not x86-64 Linux
            }
            assert!(!pin_to_slot(all.len(), all.len()), "slot out of range");
            assert!(!pin_to_slot(0, all.len() + 1), "more slots than cpus");
            let last = all.len() - 1;
            assert!(pin_to_slot(last, all.len()));
            assert_eq!(current_cpus(), vec![all[last]]);
            // A thread spawned from a pinned one inherits the narrow mask
            // yet can still reach any slot.
            let cpus = all.clone();
            std::thread::spawn(move || {
                assert!(pin_to_slot(0, cpus.len()));
                assert_eq!(current_cpus(), vec![cpus[0]]);
            })
            .join()
            .unwrap();
            unpin();
            assert_eq!(current_cpus(), all);
        })
        .join()
        .unwrap();
    }
}
