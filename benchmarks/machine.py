"""Machine description recorded next to every result."""

import ctypes
import os
import platform
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def _size_bytes(text):
    text = text.strip()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def _caches():
    """Unified/data cache size per level for one core, in bytes."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction":
            sizes[level] = size
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    """Versions, BLAS, cores and cache sizes; numpy must be importable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": caches.get(2),
        "llc_bytes": caches[max(caches)] if caches else None,
    }
