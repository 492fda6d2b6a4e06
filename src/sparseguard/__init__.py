"""Dynamic sparse training co-optimized against simulated membership attacks.

Train a classifier under a hard sparsity budget while an in-the-loop
membership-inference attacker scores every candidate topology; the candidate
with the best accuracy-to-attackability ratio survives each round.

Importing the package leaves the host process's allocator alone;
`pin_heap()` is the opt-in that the `sparseguard` command applies.
"""

import ctypes

__version__ = "0.1.0"

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_heap() -> None:
    """Keep allocations of up to 32 MiB, glibc's largest mmap threshold on
    64-bit platforms, on this process's heap, and give freed heap memory
    back to the system only above 256 MiB. By default glibc maps each block
    above its mmap threshold (128 KB to start) afresh and unmaps it on
    free, so the attacker's per-step arrays page-fault on every step. The
    setting is process-wide and lasts for the process's life; call it once,
    before the work starts. A no-op where the C library has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)
