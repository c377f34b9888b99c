"""One BLAS thread for the tests and for the `python -m agg.cli` children
they start, which inherit the environment. These matrices are too small for
a second thread to help a process that runs alone, and when two processes
run side by side the extra threads slow both. OpenBLAS reads the setting
when numpy loads, so it is set here, before any test module imports numpy;
a value already in the environment wins."""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
