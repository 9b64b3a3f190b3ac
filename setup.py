"""Build script: compiles the bitset forcing kernel, a plain C extension
(src/forceps/_core/_ckernel.c), when a C compiler is available.

    python setup.py build_ext --inplace   # for a src/ checkout

The package works without the extension (a pure Python twin is selected at
import time, and nothing is built then), so the extension is optional: a
failed build is reported and only costs speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("forceps._core._ckernel", ["src/forceps/_core/_ckernel.c"], optional=True)],
)
