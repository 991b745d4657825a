"""Run one `nt` invocation under the span recorder.

Usage: python cli_child.py SPANS_JSON [nt arguments...]

Behaves like ``python -m nablatc.cli`` (same exit codes, same tracebacks)
and writes the recorded spans to SPANS_JSON when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402

import nablatc.cli  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        sys.exit(nablatc.cli.main(sys.argv[2:]))
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])
