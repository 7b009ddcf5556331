"""The stack-against-loop checks of ``test_stacks.py`` under a second BLAS kernel.

numpy's bundled OpenBLAS picks its kernel for the CPU it runs on, and an
x86-64 CPU without AVX-512 runs the Haswell kernel, which can round a
many-column solve differently from a one-column one.  The checks run in a
child process with ``OPENBLAS_CORETYPE=Haswell`` set in the child's
environment only, so that kernel is tested on any machine whose numpy can
select it; elsewhere the test is skipped with a reason that names the BLAS.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

KERNEL = "Haswell"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Prints the kernel numpy's bundled OpenBLAS runs, or nothing if its library
# or the OpenBLAS function that names the kernel is not found.
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "lib*openblas*"))
for lib in libs[:1]:
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        get = getattr(ctypes.CDLL(lib), name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            print(get().decode())
            break
"""


def test_stacks_equal_single_calls_under_a_second_blas_kernel():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    described = f"{blas.get('name')} {blas.get('version')}"
    if "openblas" not in str(blas.get("name")) or "DYNAMIC_ARCH" not in str(
            blas.get("openblas configuration")):
        pytest.skip(f"numpy's BLAS, {described}, cannot select core types")
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL)
    probe = subprocess.run([sys.executable, "-c", CORENAME], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    if probe.stdout.strip() != KERNEL:
        pytest.skip(f"numpy's BLAS, {described}, runs {probe.stdout.strip() or 'an unnamed'}"
                    f" kernel when {KERNEL} is asked for")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join("tests", "test_stacks.py")],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
