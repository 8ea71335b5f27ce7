"""Helpers shared by the benchmark workloads.

Statistics (median, the tail rule), the host fingerprint, set-up timing
in fresh interpreters, digests, and the per-run output directory.
Everything here is stdlib + numpy; the ``repro`` package is imported by
the workload modules only after ``run.py`` has put the checkout's
``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run records, span logs and scratch stores (inside the checkout).
OUT_DIR = ROOT / ".perfbench-out"

#: The seed whose digests ``expected.json`` pins where inputs depend on it.
DEFAULT_SEED = 0

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


# -- statistics ---------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""

    value: float
    percentile: float
    samples: int

    def describe(self, unit: str) -> str:
        return f"{self.value:.4f} {unit} (p{self.percentile:.1f} of {self.samples} samples)"


def tail(values) -> Tail:
    """The (TAIL_BEYOND + 1)-th largest sample and its percentile.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies; the
    maximum is returned and labelled p100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return Tail(s[-1], 100.0, n)
    k = n - TAIL_BEYOND - 1
    return Tail(s[k], 100.0 * (k + 1) / n, n)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- digests ------------------------------------------------------------------------


def sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_arrays(arrays: dict) -> str:
    """Digest of ``{int id: int array}``: ids in order, int64 little-endian."""
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key], dtype="<i8")
        h.update(f"{key}:{len(arr)};".encode("ascii"))
        h.update(arr.tobytes())
    return h.hexdigest()


def level_counts(sim) -> dict:
    """Exact per-level counters plus disk traffic of one simulation."""
    doc = {
        level: {
            "accesses": st.accesses,
            "hits": st.hits,
            "misses": st.misses,
            "writebacks": st.writebacks,
        }
        for level, st in sim.level_stats.items()
    }
    doc["disk"] = {"reads": int(sim.disk_reads), "writes": int(sim.disk_writes)}
    return doc


def sum_counts(docs) -> dict:
    """Add up ``level_counts``-shaped documents, counter by counter."""
    totals: dict = {}
    for doc in docs:
        for level, counters in doc.items():
            into = totals.setdefault(level, {})
            for k, v in counters.items():
                into[k] = into.get(k, 0) + v
    return totals


def flow_problems(cell: str, counts: dict, requests: int) -> list[str]:
    """Read-only flow conservation through the three levels to disk.

    L1 sees every request, each level below exactly the misses above
    it, the disks exactly the L3 misses (no writes, no prefetch).
    """
    checks = [
        ("L1 accesses", counts["L1"]["accesses"], requests),
        ("L2 accesses", counts["L2"]["accesses"], counts["L1"]["misses"]),
        ("L3 accesses", counts["L3"]["accesses"], counts["L2"]["misses"]),
        ("disk reads", counts["disk"]["reads"], counts["L3"]["misses"]),
    ]
    out = [f"{cell}: {what} {got} != {want}" for what, got, want in checks if got != want]
    for level in ("L1", "L2", "L3"):
        c = counts[level]
        if c["hits"] + c["misses"] != c["accesses"]:
            out.append(f"{cell}: {level} hits + misses != accesses")
    return out


def load_expected() -> dict:
    path = HERE / "expected.json"
    return json.loads(path.read_text()) if path.exists() else {}


def save_expected(doc: dict) -> None:
    path = HERE / "expected.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# -- host fingerprint ---------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, asked through ctypes."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def host_fingerprint() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": env or "unset (library default)",
    }


# -- set-up timing ------------------------------------------------------------------


def time_setups(module: str, repeats: int = SETUP_REPEATS) -> tuple[list, list]:
    """Time ``module.setup()`` in ``repeats`` fresh interpreters.

    Each sample runs from process spawn until the child reports ready:
    interpreter start, imports, and the workload's own set-up.  Returns
    the samples' CPU times (the child's, every thread, as it reports
    them when ready) and their wall-clock times.  The child then tears
    down and exits; it is always reaped before the next sample starts.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        f"import {module} as m\n"
        "state = m.setup()\n"
        "print('ready', repr(time.process_time()), flush=True)\n"
        "m.teardown(state)\n"
    )
    cpu, wall = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        word, _, child_cpu = line.decode().partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up of {module} failed in a fresh interpreter "
                f"(exit {proc.returncode})"
            )
        cpu.append(float(child_cpu))
        wall.append(elapsed)
    return cpu, wall


# -- one measured pass --------------------------------------------------------------


@dataclass
class PassResult:
    """One pass of a workload: timing, operation latencies, checks.

    ``cpu_s`` and ``op_cpu_ms`` are CPU time of the whole process (every
    thread: clients, server, executor) over the pass and over each
    operation; operations run one at a time, so an operation's CPU time
    is its own.  ``wall_s`` and ``op_ms`` are the same spans in host
    wall-clock time.
    """

    wall_s: float
    cpu_s: float
    op_ms: list[float]
    op_cpu_ms: list[float]
    attempted: int
    failed: int = 0
    #: Workload-specific facts (digests, report figures, per-op detail).
    info: dict = field(default_factory=dict)
    #: Human-readable correctness failures (digest mismatches, errors).
    problems: list[str] = field(default_factory=list)


# -- logged errors ------------------------------------------------------------------


class ErrorLog(logging.StreamHandler):
    """Counts error records, exceptions logged at any level, thread crashes.

    Installed on the root logger for the whole run; every record it
    counts is still written to stderr, so nothing the program reports
    is hidden.
    """

    def __init__(self):
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.count = 0
        self._count_lock = threading.Lock()
        self._excepthook = None

    def _bump(self) -> None:
        with self._count_lock:
            self.count += 1

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno >= logging.ERROR or record.exc_info:
            self._bump()
        super().emit(record)

    def _thread_crash(self, args) -> None:
        self._bump()
        self._excepthook(args)

    def install(self) -> "ErrorLog":
        logging.getLogger().addHandler(self)
        self._excepthook = threading.excepthook
        threading.excepthook = self._thread_crash
        return self

    def remove(self) -> None:
        logging.getLogger().removeHandler(self)
        threading.excepthook = self._excepthook
