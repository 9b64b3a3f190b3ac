"""Kernel backend selection.

The compiled extension ``_ckernel`` is plain C (``_ckernel.c``) that
setuptools compiles; a ``src/`` checkout gets it with
``python setup.py build_ext --inplace``.  Nothing is built at import time:
when the extension is absent, or FORCEPS_PURE_PYTHON is set to a value other
than empty or ``0``, the pure Python twin is used.  The C twin has the seven
functions the workloads time, with identical results; ``closure_mask`` and
``is_fort_mask`` exist only in Python.  A graph enters as its adjacency
tuple alone, whose length is the vertex count, and a hitting-set instance as
its masks alone.  A stale compiled extension,
whose ``KERNEL_VERSION`` differs from the Python twin's, raises ImportError
at import instead of returning other counts.
"""

import os

from . import _pykernel

if os.environ.get("FORCEPS_PURE_PYTHON", "") not in ("", "0"):
    kernel = _pykernel
else:
    try:
        from . import _ckernel as kernel  # type: ignore[attr-defined]
    except ImportError:
        kernel = _pykernel
    if getattr(kernel, "KERNEL_VERSION", None) != _pykernel.KERNEL_VERSION:
        raise ImportError(
            f"the compiled kernel {kernel.__file__} is stale: its KERNEL_VERSION is "
            f"{getattr(kernel, 'KERNEL_VERSION', None)}, the sources' is "
            f"{_pykernel.KERNEL_VERSION}; rebuild it with `python setup.py build_ext --inplace`"
        )

BACKEND = kernel.BACKEND
components = kernel.components
realizable_forcers = kernel.realizable_forcers
first_failing_leaks = kernel.first_failing_leaks
search_min_superset = kernel.search_min_superset
deletion_values = kernel.deletion_values
minimal_fort_masks = kernel.minimal_fort_masks
min_hitting_set = kernel.min_hitting_set
# Only untimed callers (forcing-set and fort checks) use these: one implementation.
closure_mask = _pykernel.closure_mask
is_fort_mask = _pykernel.is_fort_mask
