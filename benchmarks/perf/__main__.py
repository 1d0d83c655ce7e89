"""``python -m benchmarks.perf`` (from the repository root)."""

import sys

from .cli import main

sys.exit(main())
