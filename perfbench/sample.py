"""One benchmark sample in a fresh interpreter; run by run.py.

Importing `chebident.cli` is the first thing this process does, as in every
CLI invocation, and the monotonic clock read right after it ends the
set-up interval that run.py started before spawning the process.  Every
process-wide cache (family rows, triangle rows, `lru_cache`) starts cold.
"""

import time

import chebident.cli  # noqa: F401

setup_done = time.monotonic()

import workloads  # noqa: E402

workloads.main(setup_done)
