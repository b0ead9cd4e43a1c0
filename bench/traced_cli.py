"""Run one pqliouville CLI call with the benchmark's tracing wrappers installed.

Usage: python3 bench/traced_cli.py SPANS_FILE CLI_ARG...

Behaves like `python -m pqliouville.cli CLI_ARG...` (same exit code) and
writes the recorded spans to SPANS_FILE, one JSON list per line.
"""

import sys

import pqliouville.cli
from tracing import Tracer, install

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    try:
        code = pqliouville.cli.main(sys.argv[2:])
    finally:
        tracer.restore()
        tracer.dump(sys.argv[1])
    sys.exit(code)
