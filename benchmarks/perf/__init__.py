"""The repository's one performance harness (see README.md beside this file).

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one named workload against the real engine or the job service,
checks its outputs, and prints every metric ``BENCHMARK.json`` names.
Nothing here is imported by ``repro``; every layer is timed from outside.
"""
