"""The results fingerprint: the sha256 of every file that a small fixed
workload of ``quatcnn`` commands writes, against a table of digests.

A trained model's bits depend on the OpenBLAS kernel family, on the
BLAS thread count and on numpy's SIMD dispatch level (``_bce`` runs
``np.exp`` and ``np.log1p`` in float64, whose last bits differ between
AVX2 and AVX-512 loops). So the workload runs in one interpreter with
all three pinned: Haswell kernels, one thread, and no dispatch above
X86_V3 (AVX2 and FMA). Those run on any x86-64 CPU with AVX2 and FMA;
the test is skipped, with its reason, anywhere else and for a numpy
version the table lacks.

A change that moves any digest bumps ``RESULTS_VERSION`` and adds the
new table under its key; ``python tests/test_fingerprint.py DIR`` runs
the workload under the pins and prints the digests as JSON. Run it with
``src`` on ``PYTHONPATH`` and the settings of ``PINS`` in the
environment.
"""

import contextlib
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quatcnn

PINS = {
    "OPENBLAS_CORETYPE": "Haswell",
    "OPENBLAS_NUM_THREADS": "1",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# the files each command writes that the fingerprint covers
TRAIN_FILES = ("model.bin", "metrics.csv", "result.json")
SWEEP_FILES = ("plan.json", "runs.csv", "stats.csv")

# (RESULTS_VERSION, numpy major.minor) -> file -> sha256
KEY = (quatcnn.RESULTS_VERSION, ".".join(np.__version__.split(".")[:2]))
DIGESTS = {
    (6, "2.4"): {
        "sweep-24/plan.json":
            "01ffc19ef107c0d008973a21f9aebb21f535f5be0c2957e33e26bb1d9ae0790d",
        "sweep-24/runs.csv":
            "7a1dfc13e88e328ff0141be01c3afa5283b07ce66227b77b707a33abdaa9281e",
        "sweep-24/stats.csv":
            "b658729cfd94e5b6c063cb415bfaa267da5bd9aaf9b15161b7214eea74f2ff27",
        "train-qvcnn-hsv-100/metrics.csv":
            "fda67740f30ed9367eadad8679dbad623c571e72822a89cbe98660083f282b4f",
        "train-qvcnn-hsv-100/model.bin":
            "d008f3ecd6265576708dd2176f46585cc2148458ec0ee0c342d350f14801e400",
        "train-qvcnn-hsv-100/result.json":
            "372f54fcfcbe3b67c81f7c1b0d8a2762f6448b13d1307929bbb425059845eafc",
        "train-qvcnn-hsv-24/metrics.csv":
            "7e249fab40d88c53eb0593c0f32d16ebd0a5e51c513e9c949326671095b73ec9",
        "train-qvcnn-hsv-24/model.bin":
            "904c4233de19fafc96ec662d9ad57c1efddd7a8827ae430300993370cd15bfb8",
        "train-qvcnn-hsv-24/result.json":
            "f22817591aa18f3a3a80e6b7d08a65ee648036e9a954d720c89b19c17418cf9f",
        "train-qvcnn-rgb-24/metrics.csv":
            "1cd6924945545acdcfd9a5d80cf5c18dda6bb9cb12ce54ca9820a1561ecd2a36",
        "train-qvcnn-rgb-24/model.bin":
            "701d38dfe4d017b8ee5dbb39071f93e4e5cc0c091773be126cd1f56a2fea7fd3",
        "train-qvcnn-rgb-24/result.json":
            "5f08915b387addba474f7c9b36c63e0ee6601b09bdf61337794e7aa90989631b",
        "train-rvcnn-hsv-24/metrics.csv":
            "3ae8902dc63b1008b8d930fc7af8f6a8a0f0daa608cb378a07d0d7ad13905e97",
        "train-rvcnn-hsv-24/model.bin":
            "ee7ad95e1a5c8e8b98971218f62018b5c6462c208c36a70340a334df2b0a4db1",
        "train-rvcnn-hsv-24/result.json":
            "754cdb77b27adb93e024426b61e7c157e994e3b6a0a471792d842cd24ded3352",
        "train-rvcnn-rgb-24/metrics.csv":
            "41487646ae37e44166d59a894db2d1cc5f202311ce06ed09d4b3a2c3968a9537",
        "train-rvcnn-rgb-24/model.bin":
            "c672b857fa11d15f7edf0f602ef2a66812ddd726cc8c45a1a7af3694ef0a2b73",
        "train-rvcnn-rgb-24/result.json":
            "29d4ce38149ba7ed4a34d461439a94b4fc12c09ab03521686afce9706dcdad35",
    },
    (7, "2.4"): {
        "sweep-24/plan.json":
            "cff3dcf3690f8b9b9af64418b54e36830b6e7ac7cbb2478555e3c9e243b2a5b7",
        "sweep-24/runs.csv":
            "7a1dfc13e88e328ff0141be01c3afa5283b07ce66227b77b707a33abdaa9281e",
        "sweep-24/stats.csv":
            "b658729cfd94e5b6c063cb415bfaa267da5bd9aaf9b15161b7214eea74f2ff27",
        "train-qvcnn-hsv-100/metrics.csv":
            "fda67740f30ed9367eadad8679dbad623c571e72822a89cbe98660083f282b4f",
        "train-qvcnn-hsv-100/model.bin":
            "d008f3ecd6265576708dd2176f46585cc2148458ec0ee0c342d350f14801e400",
        "train-qvcnn-hsv-100/result.json":
            "372f54fcfcbe3b67c81f7c1b0d8a2762f6448b13d1307929bbb425059845eafc",
        "train-qvcnn-hsv-24/metrics.csv":
            "7e249fab40d88c53eb0593c0f32d16ebd0a5e51c513e9c949326671095b73ec9",
        "train-qvcnn-hsv-24/model.bin":
            "904c4233de19fafc96ec662d9ad57c1efddd7a8827ae430300993370cd15bfb8",
        "train-qvcnn-hsv-24/result.json":
            "f22817591aa18f3a3a80e6b7d08a65ee648036e9a954d720c89b19c17418cf9f",
        "train-qvcnn-rgb-24/metrics.csv":
            "8246f1f3ba41db4355c050c7e7f3f31121024a5ee99d9e64a78d6d21773847d8",
        "train-qvcnn-rgb-24/model.bin":
            "b95e15aa2fe2edc0e36ad1255d42f42d2144b41f1ed4d3cbf4ac37fcc3936cfe",
        "train-qvcnn-rgb-24/result.json":
            "5f08915b387addba474f7c9b36c63e0ee6601b09bdf61337794e7aa90989631b",
        "train-rvcnn-hsv-24/metrics.csv":
            "3ae8902dc63b1008b8d930fc7af8f6a8a0f0daa608cb378a07d0d7ad13905e97",
        "train-rvcnn-hsv-24/model.bin":
            "ee7ad95e1a5c8e8b98971218f62018b5c6462c208c36a70340a334df2b0a4db1",
        "train-rvcnn-hsv-24/result.json":
            "754cdb77b27adb93e024426b61e7c157e994e3b6a0a471792d842cd24ded3352",
        "train-rvcnn-rgb-24/metrics.csv":
            "41487646ae37e44166d59a894db2d1cc5f202311ce06ed09d4b3a2c3968a9537",
        "train-rvcnn-rgb-24/model.bin":
            "c672b857fa11d15f7edf0f602ef2a66812ddd726cc8c45a1a7af3694ef0a2b73",
        "train-rvcnn-rgb-24/result.json":
            "29d4ce38149ba7ed4a34d461439a94b4fc12c09ab03521686afce9706dcdad35",
    },
}


def run_workload(root: Path) -> dict[str, str]:
    """Write two synthetic datasets under ``root``, train the four configs
    at 24x24 and qvcnn-hsv at 100x100 for two epochs each, run a 4-config
    sweep at 24x24, and return the sha256 of each written file, keyed by
    its path under ``root``."""
    from quatcnn import cli, layers

    def run(*argv):
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the digests
            if cli.main([str(arg) for arg in argv]) != 0:
                raise RuntimeError(f"quatcnn {argv[0]} failed")

    for n, size in ((16, 24), (8, 100)):
        run("synth-data", "--n", n, "--size", size, "--out", root / f"data-{size}")
    cases = [(name, 24) for name in layers.CONFIG_NAMES] + [("qvcnn-hsv", 100)]
    files = []
    for name, size in cases:
        out = root / f"train-{name}-{size}"
        run("train", "--config", name, "--data", root / f"data-{size}", "--input-size", size,
            "--epochs", 2, "--seed", 7, "--test-fraction", 0.5, "--out", out)
        files += [out / file for file in TRAIN_FILES]
    out = root / "sweep-24"
    run("sweep", "--data", root / "data-24", "--input-size", 24, "--fractions", 0.5,
        "--runs", 1, "--epochs", 2, "--out", out)
    files += [out / file for file in SWEEP_FILES]
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


def _skip_reason() -> str | None:
    """Why the pinned workload cannot run here, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the pinned kernels need x86-64, this is {platform.machine()}"
    if KEY not in DIGESTS:
        return f"no digests for (RESULTS_VERSION, numpy) = {KEY}"
    from numpy._core._multiarray_umath import __cpu_features__ as features  # numpy >= 2
    missing = [name for name in ("AVX2", "FMA3") if not features.get(name)]
    if missing:
        return f"Haswell kernels and X86_V3 dispatch need AVX2 and FMA; this CPU lacks {missing}"
    return None


def test_results_match_the_fingerprint(tmp_path):
    reason = _skip_reason()
    if reason:
        pytest.skip(reason)
    src = str(Path(quatcnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path, **PINS))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    want = DIGESTS[KEY]
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (f"files whose sha256 moved under {PINS}: {moved}; a change that moves "
                       f"results bumps RESULTS_VERSION and records the new digests")


if __name__ == "__main__":
    print(json.dumps(run_workload(Path(sys.argv[1])), indent=1, sort_keys=True))
