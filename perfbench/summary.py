"""Small helpers shared by the benchmark: operation tally, order
statistics, metric-name validation and the environment fingerprint."""

from __future__ import annotations

import contextlib
import math
import os
import platform
import re
import statistics
import sys
import traceback
from pathlib import Path

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def valid_metric_name(name: str) -> bool:
    """Letters, digits, '_', '.' and '-'; starts with a letter or digit; at
    most 64 characters."""
    return (bool(METRIC_NAME.fullmatch(name)) and name[0].isalnum()
            and len(name) <= 64)


class Operation:
    def __init__(self, label: str):
        self.label = label
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


class Tally:
    """Counts operations attempted and failed.

    ``with tally.operation(label) as op:`` runs one operation. An exception
    raised inside the block, or any ``op.check`` that is false, marks the
    operation failed; the exception is reported on stderr and swallowed so
    the remaining operations still run.
    """

    def __init__(self, err=sys.stderr):
        self.attempted = 0
        self.failed = 0
        self.err = err

    @contextlib.contextmanager
    def operation(self, label: str):
        op = Operation(label)
        self.attempted += 1
        try:
            yield op
        except Exception as exc:
            traceback.print_exc(file=self.err)
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
        except BaseException:
            self.failed += 1
            raise
        if op.problems:
            self.failed += 1
            for problem in op.problems:
                print(f"FAILED {label}: {problem}", file=self.err)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """The highest percentile in TAIL_LADDER that leaves at least ten
    samples beyond it, as (percentile, nearest-rank value); None when
    there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without running git, or
    'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path, numpy) -> dict:
    """numpy, BLAS, thread settings, CPUs, Python and the code's git sha."""
    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = deps.get("blas", {})
    except (TypeError, AttributeError):
        pass
    threads = {var: os.environ.get(var, "default")
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": platform.python_version(),
        "git_sha": git_sha(root),
    }
