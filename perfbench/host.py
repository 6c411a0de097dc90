"""Host metadata and per-process peak memory for benchmark results."""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent

#: Thread-pool settings every run pins to one thread (see ``pin_process``).
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = PINNED_THREAD_VARS + ("NUMEXPR_NUM_THREADS", "REPRO_DTYPE")

#: The CPUs this process may use, read before :func:`pin_process` narrows them.
USABLE_CPUS = sorted(os.sched_getaffinity(0))


def pin_process() -> None:
    """One BLAS thread and one CPU, set before numpy loads; the server
    subprocess inherits both.

    On a 2-core host a second OpenBLAS thread gives no speed-up at these
    matrix sizes, but it spins on the other core and makes run times jitter
    whenever another process wants that core.  Measured on aergia-noniid,
    six runs of one config: 3.2-4.3 s with two threads, 3.5-3.8 s with one.

    One CPU because the host is a shared virtual machine: with both of its
    CPUs busy, the hypervisor took 15-25% of the time back as steal, and
    serve-checkin's latency, which waits on GIL hand-offs, rose up to 4x
    in such phases; with one CPU busy, steal stayed at 3-5%.
    """
    for name in PINNED_THREAD_VARS:
        os.environ[name] = "1"
    os.sched_setaffinity(0, {USABLE_CPUS[-1]})


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM from /proc) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux >= 4.0).

    Garbage from earlier repetitions is collected and the C heap trimmed
    first, so each repetition's peak is its own: without the trim a
    continent-churn repetition read about 340 MiB higher after another one.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: nothing to trim
    Path("/proc/self/clear_refs").write_text("5")


def host_metadata() -> Dict[str, object]:
    """Cores, numpy/BLAS, thread settings, dtype, Python and source revision."""
    import numpy as np

    from repro.nn.dtype import compute_dtype

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "cores": len(USABLE_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": {
            key: blas[key] for key in ("name", "version", "openblas configuration") if key in blas
        },
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "dtype": compute_dtype().name,
        "python": platform.python_version(),
        "revision": revision,
    }
