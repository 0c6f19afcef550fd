//! CPU time of the whole process, the clock of every end-to-end timing.
//!
//! The benchmark runs on a few cores of a shared host. Wall time there
//! includes the time a thread waits for a core another tenant holds, and
//! the tiled decide joins two threads on every call, so a period waits
//! for whichever tile was pushed off its core. CPU time counts only the
//! time the process's threads (the tile threads too, once joined) ran.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock is read through clock_gettime as 64-bit Linux lays it out");

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds consumed so far by every thread of this process, ended
/// threads included.
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; an unknown clock id
    // makes the call fail, not write out of bounds.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    /// Spins, and returns the CPU seconds the calling thread spent.
    fn spin() -> f64 {
        let start = clock_s(CLOCK_THREAD_CPUTIME_ID);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        clock_s(CLOCK_THREAD_CPUTIME_ID) - start
    }

    #[test]
    fn includes_joined_threads() {
        // Other tests run in this process at the same time, so the
        // process clock may advance by more, never by less.
        let start = process_s();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(spin);
            let b = s.spawn(spin);
            (a.join().unwrap(), b.join().unwrap())
        });
        let process = process_s() - start;
        assert!(a > 0.0 && b > 0.0);
        assert!(
            process >= a + b - 1e-6,
            "process {process} s < threads {a} + {b} s"
        );
    }
}
