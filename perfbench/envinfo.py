"""What a result was measured on: code, machine, libraries and thread counts."""

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def _commit(root):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest(root):
    """sha256 over src/: identifies the code where the checkout has no git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_libraries():
    """Each OpenBLAS loaded in this process, with its build and thread count.

    numpy and scipy each bundle their own, so both are listed.
    """
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
        config = _call(lib, ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                             "openblas_get_config64_", "openblas_get_config"),
                       ctypes.c_char_p)
        found.append({"library": Path(path).name, "threads": threads,
                      "config": config.decode() if config else None})
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root, cli_threads):
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_threads": cli_threads,
    }
