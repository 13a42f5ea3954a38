"""Host fingerprint and proportional memory footprint."""

from __future__ import annotations

import multiprocessing as mp
import os
import platform
from typing import Iterable, Optional

#: thread-count variables pinned to 1 before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread per process: the crowd workers are the
    parallelism, and a threaded BLAS under them would oversubscribe."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pss_kb(pid: int) -> Optional[int]:
    """``Pss`` of one process from ``/proc/<pid>/smaps_rollup`` (kB);
    None when the process is gone or the file is unavailable."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def footprint_mb(pids: Iterable[int]) -> float:
    """Summed Pss of ``pids`` in MB; a page shared by k of them counts
    1/k in each, so a shared slab counts once in the sum."""
    total = 0
    for pid in pids:
        total += pss_kb(pid) or 0
    return total / 1024.0


def process_family() -> list:
    """This process plus its live multiprocessing children (the crowd
    processes while a pool is up)."""
    return [os.getpid()] + [p.pid for p in mp.active_children()]


def _llc_bytes() -> Optional[int]:
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    try:
        with open(path) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _blas() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(seed: int) -> dict:
    """What a result depends on besides the code: cores, BLAS and its
    thread settings, library versions, kernel backend and seed."""
    import numpy as np
    from repro.backend import get_backend
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": get_backend().name,
        "llc_bytes": _llc_bytes(),
        "powercap": os.path.isdir("/sys/class/powercap"),
        "seed": seed,
    }
