#!/usr/bin/env python3
"""Run one ``textaudit`` command with spans and counters installed.

Usage: ``python3 auditbench/traced_audit.py <trace out> audit --config ... --out ...``

The arguments after the trace path go to ``textaudit.cli.main`` unchanged.
The spans and counters are kept in memory and written to ``<trace out>`` as
JSON when the command returns; the exit code is the command's.
"""

import sys
from pathlib import Path

from spans import Tracer, instrument


def main(argv: list[str]) -> int:
    tracer = Tracer()
    instrument(tracer)
    from textaudit import cli

    code = cli.main(argv[2:])
    tracer.dump(Path(argv[1]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
