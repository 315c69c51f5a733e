"""gbstates benchmark: workloads, reference checks, tracing and the runner (run.py)."""

WORKLOADS = ("large-m-scan", "verified-solve", "small-m-mix")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
