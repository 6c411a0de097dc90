"""Host ``repro serve`` for the serve-checkin workload, optionally traced.

Run from the repository root::

    python3 perfbench/serve_host.py --results-dir DIR [--trace-out FILE]

Equivalent to ``python -m repro serve --host 127.0.0.1 --port 0 --workers 2``.
With ``--trace-out`` the layer spans of :mod:`spans` are recorded for the
server's whole life and written to FILE as JSON after the server drains.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer  # noqa: E402  (the script directory is on sys.path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    from repro.cli import main as repro_main

    tracer = Tracer() if args.trace_out else None
    if tracer is not None:
        tracer.install()
    try:
        code = repro_main(
            ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
             "--results-dir", args.results_dir]
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
            Path(args.trace_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
