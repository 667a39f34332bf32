#!/usr/bin/env python3
"""Deterministic keyword scorer standing in for the classifier under audit.

Run as a script it speaks the subprocess line protocol: one JSON-encoded
text per stdin line, one decimal probability per stdout line, EOF
terminates. Stdin is read as UTF-8, as the protocol says, whatever the
locale. Import ``keyword_probability`` for in-process tests.
"""

import json
import re
import sys

BASE = 0.08
CLIP_LO = 0.01
CLIP_HI = 0.99

WEIGHTS = {
    "filthy": 0.5,
    "scum": 0.5,
    "disgusting": 0.5,
    "terrible": 0.45,
    "awful": 0.45,
    "trash": 0.35,
    "hate": 0.35,
    "sick": 0.3,
    "ruin": 0.3,
    "creep": 0.3,
    "hag": 0.25,
    "invaders": 0.25,
    "liars": 0.25,
    "vanish": 0.2,
    "fool": 0.2,
    "muslim": 0.12,
    "gay": 0.1,
    "queer": 0.1,
    "women": 0.05,
    "white": 0.04,
    "black": 0.04,
    "christian": 0.02,
    "men": -0.05,
}


def keyword_probability(text: str) -> float:
    tokens = set(re.findall(r"[a-z0-9']+", text.lower()))
    score = BASE + sum(WEIGHTS[t] for t in sorted(tokens & WEIGHTS.keys()))
    return min(CLIP_HI, max(CLIP_LO, score))


def main() -> int:
    sys.stdin.reconfigure(encoding="utf-8")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        text = json.loads(line)
        sys.stdout.write(f"{keyword_probability(text):.6f}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
