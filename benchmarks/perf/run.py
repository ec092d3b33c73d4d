"""Script entry point: ``python3 benchmarks/perf/run.py ...``.

``BENCHMARK.json`` names this file so the driver needs no ``PYTHONPATH``;
it puts the checkout on ``sys.path`` and hands over to the command line in
``cli.py`` (which ``python -m benchmarks.perf`` reaches directly).
"""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    from benchmarks.perf.cli import main

    sys.exit(main())
