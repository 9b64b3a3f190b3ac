"""Build script: compiles the bitset forcing kernel, a plain C extension
(src/forceps/_core/_ckernel.c), when a C compiler is available.

    python setup.py build_ext --inplace   # for a src/ checkout

The package works without the extension (a pure Python twin is selected at
import time, and nothing is built then), so a failed build only costs speed.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing: fall back to pure Python
            print(f"warning: skipping C kernel build ({exc})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name} ({exc})")


setup(
    ext_modules=[Extension("forceps._core._ckernel", ["src/forceps/_core/_ckernel.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
