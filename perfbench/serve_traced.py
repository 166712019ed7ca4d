"""Start ``repro.serve`` with the layer timers of :mod:`tracer` installed.

Usage: ``python perfbench/serve_traced.py LAYER_DIR [repro.serve args]``.
The server and its forked pool workers each rewrite their running
totals to ``LAYER_DIR/layers-<pid>.json`` after every outermost timed
call, so the reader can take the difference between two points in time.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    state = tracer.install(export_dir=sys.argv[1])
    state.on = True
    from repro.serve.__main__ import main as serve_main

    return serve_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
