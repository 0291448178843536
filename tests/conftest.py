"""Pin BLAS to one thread before NumPy loads.

The library's factors depend on the BLAS thread count, so the bitwise tests
hold on one thread; one thread is also the faster run on small matrices.
A thread count already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
