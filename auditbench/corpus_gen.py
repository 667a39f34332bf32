"""Seeded synthetic corpus for the ``corpus_scale`` workload.

Every comment joins two fixture comments with a connector and adds an
opener, a place and an ending drawn from small built-in word lists. Texts
are distinct, so a cache or memo keyed on whole texts cannot shortcut the
per-comment work the way a replicated fixture would. The label is that of
the first fixture comment, so both label partitions are populated. The
predictions file holds ``keyword_probability`` for every comment, written at
full precision.
"""

from __future__ import annotations

import csv
import random
import re
import sys
import unicodedata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stub_model import keyword_probability  # noqa: E402

OPENERS = (
    "", "", "", "Honestly, ", "Apparently ", "Frankly, ", "Today ", "Again, ",
    "As usual, ", "Lol ", "Seriously, ", "To be fair, ",
)
CONNECTORS = (
    " and ", ", but ", "; also, ", " because ", ", while ", " although ",
    ", so ", " and yet ",
)
PLACES = (
    "", "", " in the city", " at work", " online", " downtown", " last night",
    " on the bus", " at school", " this week", " near the station",
    " after the game", " in our street", " at the market",
)
ENDINGS = ("", ".", "!", "?", "...", " :)")

_WORD = re.compile(r"[\w']+")


def read_fixture(path: Path) -> list[tuple[str, int]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return [(row["text"], int(row["label"])) for row in csv.DictReader(handle)]


def _lower_first(text: str) -> str:
    return text if text.startswith("I ") else text[:1].lower() + text[1:]


def generate(fixture: list[tuple[str, int]], n: int, seed: int) -> list[tuple[str, str, int]]:
    """``n`` rows ``(id, text, label)`` with distinct texts, fixed by ``seed``."""
    rng = random.Random(seed)
    rows: list[tuple[str, str, int]] = []
    seen: set[str] = set()
    while len(rows) < n:
        first, label = rng.choice(fixture)
        second, _ = rng.choice(fixture)
        opener = rng.choice(OPENERS)
        if opener:
            first = _lower_first(first)
        text = (
            opener + first + rng.choice(CONNECTORS) + _lower_first(second)
            + rng.choice(PLACES) + rng.choice(ENDINGS)
        )
        key = unicodedata.normalize("NFC", text)
        if key in seen:
            continue
        seen.add(key)
        rows.append((f"c{len(rows) + 1:06d}", text, label))
    return rows


def write_workload(fixture_csv: Path, out_dir: Path, n: int, seed: int) -> dict:
    """Write ``comments.csv`` and ``predictions.csv``; return the workload properties."""
    rows = generate(read_fixture(fixture_csv), n, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "comments.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "text", "label"])
        writer.writerows(rows)
    with (out_dir / "predictions.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "p_hateful"])
        writer.writerows((cid, repr(keyword_probability(text))) for cid, text, _ in rows)
    distinct = len({unicodedata.normalize("NFC", text) for _, text, _ in rows})
    return {
        "n_comments": n,
        "duplicate_text_share": 1.0 - distinct / n,
        "mean_words_per_comment": sum(len(_WORD.findall(text)) for _, text, _ in rows) / n,
        "hateful_share": sum(label for _, _, label in rows) / n,
    }
