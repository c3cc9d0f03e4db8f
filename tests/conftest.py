"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# numpy's AVX-512 dispatch targets; NPY_DISABLE_CPU_FEATURES turns them off.
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.fixture
def run_without_avx512():
    """Run Python code in a child process with numpy's AVX-512 dispatch off,
    where np.exp and np.log take their AVX2 or baseline loops, and return the
    finished process. Skips on a machine without that dispatch."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not all(umath.__cpu_features__.get(f) for f in AVX512_FEATURES):
        pytest.skip("this machine does not run numpy's AVX-512 dispatch")
    src = Path(sys.modules["edgemarket"].__file__).resolve().parents[1]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_FEATURES),
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    preamble = (
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        "assert not __cpu_features__['X86_V4']\n"
    )

    def run(code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", preamble + code, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    return run
