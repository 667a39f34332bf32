#!/usr/bin/env python3
"""Counting wrapper around the test stub model, for the subprocess adapter.

Usage: ``python3 auditbench/stub_subprocess.py <log path>``

Speaks the same line protocol as ``tests/stub_model.py`` (one JSON text per
stdin line, one ``%.6f`` probability per stdout line) and scores with its
``keyword_probability``. On exit it appends one JSON line
``{"calls": 1, "texts": n, "busy_s": t}`` to the log, where ``busy_s`` is
the time spent reading, scoring and writing, without interpreter start.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stub_model import keyword_probability  # noqa: E402


def main(log_path: str) -> int:
    start = time.perf_counter()
    texts = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        sys.stdout.write(f"{keyword_probability(json.loads(line)):.6f}\n")
        texts += 1
    sys.stdout.flush()
    busy = time.perf_counter() - start
    record = json.dumps({"calls": 1, "texts": texts, "busy_s": busy}) + "\n"
    fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, record.encode("utf-8"))
    finally:
        os.close(fd)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: stub_subprocess.py <log path>")
    sys.exit(main(sys.argv[1]))
