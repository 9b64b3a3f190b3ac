"""Kernel backend selection.

The compiled extension ``_ckernel`` is plain C (``_ckernel.c``) that
setuptools compiles; a ``src/`` checkout gets it with
``python setup.py build_ext --inplace``.  Nothing is built at import time:
when the extension is absent, or FORCEPS_PURE_PYTHON is set to a value other
than empty or ``0``, the pure Python twin is used.  Both expose identical
functions with identical results.
"""

import os

if os.environ.get("FORCEPS_PURE_PYTHON", "") not in ("", "0"):
    from . import _pykernel as kernel
else:
    try:
        from . import _ckernel as kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _pykernel as kernel

BACKEND = kernel.BACKEND
components = kernel.components
closure_mask = kernel.closure_mask
first_failing_leaks = kernel.first_failing_leaks
search_min_superset = kernel.search_min_superset
is_fort_mask = kernel.is_fort_mask
minimal_fort_masks = kernel.minimal_fort_masks
