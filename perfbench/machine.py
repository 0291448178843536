"""The machine record printed next to every result."""

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import rlra
import scipy


def git_commit(root):
    """HEAD's commit id, or None outside a git checkout."""
    if not (Path(root) / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(root):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rlra_backend": rlra.BACKEND,
        "commit": git_commit(root),
    }
