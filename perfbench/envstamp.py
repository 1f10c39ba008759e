"""Environment stamp printed with every run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

# The benchmark fixes the BLAS thread count itself so both sides of a
# comparison run with the same value, whatever the caller's environment.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS


def _cgroup_quota() -> str:
    try:
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
    except OSError:
        return "none"
    return "none" if text[0] == "max" else f"{int(text[0]) / int(text[1]):g}"


def _blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS reports, read through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line and line.split()[-1].startswith("/")
    })
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip()


def stamp(root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = os.cpu_count() or 1
    return {
        "cpus_affinity": affinity,
        "cpu_quota": _cgroup_quota(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "argv": sys.argv[1:],
    }
