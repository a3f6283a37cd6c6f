//! Process-local memory-placement hints for the simulator's large slabs.
//!
//! The randomly-probed structures the hot loop lives in — directory entry
//! tables, open-addressed maps, flat cache slabs — reach tens of megabytes,
//! so with 4 KB pages nearly every probe also misses the host's dTLB (and
//! x86 silently drops software prefetches that miss the dTLB, blunting the
//! batch drivers' lookahead). Backing those allocations with transparent
//! huge pages cuts the dTLB working set by 512× and restores the prefetch
//! path. [`advise_huge_pages`] asks the kernel for exactly that via
//! `madvise(MADV_HUGEPAGE)` — affecting only this process's own mappings.
//!
//! The hint is best-effort by design: the syscall's result is ignored, the
//! function is a no-op off Linux/x86-64, and a kernel with transparent huge
//! pages disabled simply leaves the allocation on 4 KB pages. Nothing about
//! correctness depends on it. The same holds for [`retain_freed_memory`],
//! which keeps the slabs of dropped simulators resident for the next ones.

/// Advises the kernel to back the given allocation with transparent huge
/// pages. `len` is in bytes; the range is shrunk inward to page alignment
/// (madvise requires an aligned start). Errors are deliberately ignored —
/// this is a placement hint, not a requirement — and allocations smaller
/// than one huge page are skipped outright.
pub fn advise_huge_pages<T>(ptr: *const T, len_bytes: usize) {
    /// Smallest allocation worth hinting: one 2 MB huge page.
    const HUGE_PAGE: usize = 2 * 1024 * 1024;
    if len_bytes < HUGE_PAGE || ptr.is_null() {
        return;
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const PAGE: usize = 4096;
        const SYS_MADVISE: usize = 28;
        const MADV_HUGEPAGE: usize = 14;
        let start = ptr as usize;
        let aligned_start = (start + PAGE - 1) & !(PAGE - 1);
        let aligned_end = (start + len_bytes) & !(PAGE - 1);
        if aligned_end <= aligned_start {
            return;
        }
        // SAFETY: madvise(MADV_HUGEPAGE) never alters memory contents or
        // validity; it only sets a VMA flag on pages this process already
        // owns. The asm block clobbers exactly what the Linux x86-64
        // syscall ABI clobbers (rax return, rcx/r11 scratch).
        unsafe {
            let mut _ret: isize;
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MADVISE as isize => _ret,
                in("rdi") aligned_start,
                in("rsi") aligned_end - aligned_start,
                in("rdx") MADV_HUGEPAGE,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, preserves_flags)
            );
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = (ptr, len_bytes);
    }
}

/// Keeps memory the simulator frees resident for reuse, once per process.
///
/// Simulators are built and dropped by the hundred in one process (one per
/// design per fused group), each allocating megabytes of slabs. Left to its
/// defaults, glibc's allocator serves blocks above a small, self-adjusting
/// size threshold with fresh `mmap`s, gives every thread its own arena,
/// and hands a freed arena top or an emptied arena heap back to the kernel
/// — lazily, on some later large `free`. Whatever runs after a group of
/// simulators is dropped (the next group, or the next sweep's trace
/// materialization) then pays for that release and first-touches the same
/// memory again through page faults: several thousand per repetition of a
/// 288-scenario sweep. This serves blocks up to 32 MiB (the largest
/// threshold glibc's own adjustment reaches) from one shared heap that
/// keeps what is freed, so freed slabs are recycled instead of unmapped and
/// faulted back in. The process's resident size therefore stays at its
/// high-water mark instead of shrinking between sweeps; the simulator's
/// hot loops do not allocate, so the single arena costs no contention
/// there.
///
/// Best-effort like [`advise_huge_pages`]: a no-op off glibc, and the
/// return values are ignored. It changes only where this process's memory
/// comes from, never its contents.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_MMAP_THRESHOLD: i32 = -3;
            const M_ARENA_MAX: i32 = -8;
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // SAFETY: mallopt only sets glibc allocator parameters, from
            // any thread at any time; every value is in its documented
            // range (the mmap threshold may be at most 32 MiB on 64-bit
            // targets, the trim threshold any non-negative int).
            unsafe {
                mallopt(M_ARENA_MAX, 1);
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, i32::MAX);
            }
        });
    }
}

/// A vector of `len` copies of `value` whose allocation is hinted for huge
/// pages before the fill first-touches it (hinting after a zeroing
/// allocation such as `vec![0; n]` is too late when the allocator serves
/// it from memory it already holds).
pub fn filled_hinted<T: Clone>(len: usize, value: T) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    advise_huge_pages(v.as_ptr(), len * std::mem::size_of::<T>());
    v.resize(len, value);
    v
}

/// Copies `src` into a fresh allocation that is hinted for huge pages
/// *before* the copy first-touches it: the `Clone` of the simulator's large
/// slabs, so a cloned structure probes at the same dTLB cost as one built
/// from scratch (a derived `Clone` would fault the copy in on 4 KB pages).
pub fn clone_hinted<T: Clone>(src: &[T]) -> Vec<T> {
    let mut v = Vec::with_capacity(src.len());
    advise_huge_pages(v.as_ptr(), std::mem::size_of_val(src));
    v.extend_from_slice(src);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinting_never_disturbs_contents() {
        // Large enough to clear the huge-page threshold.
        let v = vec![0xA5u8; 4 * 1024 * 1024];
        advise_huge_pages(v.as_ptr(), v.len());
        assert!(v.iter().all(|&b| b == 0xA5));
        let w = filled_hinted(3 << 20, 0x5Au8);
        assert!(w.len() == 3 << 20 && w.iter().all(|&b| b == 0x5A));
        // Small, empty, and null-ish inputs are no-ops.
        advise_huge_pages([0u8; 16].as_ptr(), 16);
        advise_huge_pages(Vec::<u64>::new().as_ptr(), 0);
        advise_huge_pages(std::ptr::null::<u8>(), usize::MAX);
    }

    #[test]
    fn retaining_freed_memory_is_idempotent() {
        retain_freed_memory();
        retain_freed_memory();
        let v = vec![7u64; 1 << 20];
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn hinted_clones_copy_every_element() {
        let big: Vec<u64> = (0..600_000).collect();
        assert_eq!(clone_hinted(&big), big);
        assert_eq!(clone_hinted(&[Some(1u8), None]), [Some(1u8), None]);
        assert!(clone_hinted::<u64>(&[]).is_empty());
    }
}
