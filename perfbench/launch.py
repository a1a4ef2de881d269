"""Traced stand-in for `python -m urntest.cli`.

Usage: python perfbench/launch.py SPANS_FILE OP_ID [urntest arguments...]

Installs the benchmark's span wrappers, runs urntest.cli.main on the
arguments, writes the spans to SPANS_FILE as JSON and exits with main's
status, so stdout and the exit code match an untraced run.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, op_id, *argv = sys.argv[1:]
    import urntest.cli

    tracer = Tracer()
    tracer.op = int(op_id)
    tracer.install()
    try:
        return urntest.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
