//! CPU placement of the single-thread passes.
//!
//! On the shared 2-vCPU development host one vCPU can run about 1.4×
//! slower than the other for seconds to minutes at a time (a whole run
//! pinned to one CPU stays slow; the other stays fast). A thread the
//! scheduler leaves on the slow one makes every round of a run slow, and
//! no choice of the fastest round can undo that. So the rounds alternate
//! the CPU their single-thread passes run on; threads spawned while a
//! pin holds (the 1-shard fleet's worker) inherit it. Pinning is best
//! effort: where the calls fail, the passes run wherever the scheduler
//! puts them.

/// Affinity mask wide enough for 1024 CPUs.
type Mask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this process may run on.
pub struct Cpus {
    all: Mask,
    ids: Vec<usize>,
}

impl Cpus {
    /// The calling thread's current affinity.
    pub fn allowed() -> Self {
        let mut all: Mask = [0; 16];
        // SAFETY: `all` is a live buffer of exactly the size passed; pid 0
        // is the calling thread; the call writes at most that many bytes.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), all.as_mut_ptr()) };
        let ids = if ok == 0 {
            (0..1024)
                .filter(|&c| all[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { all, ids }
    }

    /// Pin the calling thread to the `i`-th allowed CPU (cyclically).
    pub fn pin(&self, i: usize) {
        if self.ids.is_empty() {
            return;
        }
        let c = self.ids[i % self.ids.len()];
        let mut mask: Mask = [0; 16];
        mask[c / 64] = 1 << (c % 64);
        set(&mask);
    }

    /// Let the calling thread run on every allowed CPU again.
    pub fn unpin(&self) {
        if !self.ids.is_empty() {
            set(&self.all);
        }
    }
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; pid 0 is the calling thread; the call only reads it. A
    // failure leaves the affinity as it was, which is acceptable here.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr());
    }
}
