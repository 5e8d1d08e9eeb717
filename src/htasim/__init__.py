"""Design and analysis toolkit for a polarization-routed bidirectional
multibeam hybrid transmitarray.

The package covers the full pipeline: folded-optics system layout, Jones
polarization routing, parametric unit-cell phase models, bifocal
compensation-phase synthesis, a cosine-q feed model, and a discrete
far-field superposition engine with beam metrics.  See the `cli` module
for the command-line front end.
"""

import importlib
import os
import sys

__version__ = "0.1.0"

# The far-field engine splits its work over worker threads, which pays
# only beside a one-thread BLAS: two thread pools on the same cores are
# slower than one.  OpenBLAS reads its pool size once, when numpy loads.
# If numpy is not loaded yet and the user set no size, load it here with
# one thread and restore the environment after, so that child processes
# see the user's.  Otherwise the pool is what the user or an earlier
# numpy import chose, and the engine splits only if that is one thread.
if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
    #: whether the BLAS pool is one thread, so the far-field engine splits
    SERIAL_BLAS = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    SERIAL_BLAS = True
