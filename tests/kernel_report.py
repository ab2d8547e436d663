"""Run the tier-1 suite once per OpenBLAS kernel and print the failing tests.

The goldens and the bit-identity tests hold on the BLAS kernel they were
captured with, so a change that keeps every byte on one kernel may still
move bits on another.  This report runs the suite in a subprocess per
kernel in :data:`KERNELS`, with ``OPENBLAS_CORETYPE`` set for that
process, and prints the kernel that OpenBLAS reports it picked, the
suite's summary line and the id of every failing or erroring test::

    python tests/kernel_report.py

The file is not named ``test_*.py``, so the suite itself never collects
it.  A kernel that the CPU cannot run is not emulated: OpenBLAS falls back to
another, and the reported kernel then differs from the requested one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The kernel the goldens hold on, and the AVX2 kernel of x86 machines without AVX-512.
KERNELS = ("SkylakeX", "Haswell")
# The kernel OpenBLAS picked, read through the symbol of the OpenBLAS that
# numpy bundles; "unknown" where numpy links another BLAS.
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    get.argtypes, get.restype = [], ctypes.c_char_p
    print(get().decode())
except (IndexError, OSError, AttributeError):
    print("unknown")
"""


def run(kernel: str) -> tuple[str, str, list[str]]:
    """The reported kernel, pytest's summary line and the failing ids of one run."""
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    core = subprocess.run([sys.executable, "-c", CORENAME], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    lines = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True).stdout.splitlines()
    failing = [ln.split(" ", 1)[1].split(" - ", 1)[0] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    return core, lines[-1] if lines else "(no output)", failing


def main() -> int:
    for kernel in KERNELS:
        core, summary, failing = run(kernel)
        print(f"{kernel} (OpenBLAS reports {core}): {summary}")
        for test_id in failing:
            print(f"  {test_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
