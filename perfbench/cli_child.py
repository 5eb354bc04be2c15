"""Run one ``dissipon`` command with the benchmark's tracer installed.

    python3 perfbench/cli_child.py SPANS_JSON ARG...

ARG... are the dissipon CLI arguments.  The spans recorded while the command
runs are written to SPANS_JSON; the exit code is the command's.  Spans of
sweep worker processes are not collected.
"""

import json
import sys
from dataclasses import asdict

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import dissipon.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = dissipon.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump([asdict(s) for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
