"""Script entry point: ``python3 benchmarks/perf/run.py --workload NAME ...``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
