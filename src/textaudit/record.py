"""Records: immutable ``NamedTuple``s whose fields are their published keys.

Records are serialized only through :func:`plain`, which each result type
binds as ``to_dict``: ``json.dumps`` of a record gives a list. ``_replace``
and ``_make`` bypass :func:`checked`, so the package never calls them.
Every CSV side file is written by :func:`csv_text`.
"""

from __future__ import annotations

import copy
import csv
import io


def plain(value):
    """``value`` as JSON-ready data: records as dicts, other tuples as lists."""
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {k: plain(v) for k, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def csv_text(header, rows) -> str:
    """``header`` then ``rows`` as CSV: each record ends in a line feed, a field is quoted where it must be.

    No field may hold a lone ``"\\r"``: the writer leaves it unquoted under
    the line-feed terminator, so a reader would split its row there. None
    can: the lexicon loaders reject a name holding any line break, terms
    are cleaned to single spaces, and tokens hold no whitespace.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def checked(cls):
    """Decorator: every new ``cls`` record gets its own copy of each dict default, then ``_check`` runs."""
    new, check = cls.__new__, getattr(cls, "_check", lambda record: None)
    shared = {i: d for i, d in enumerate(map(cls._field_defaults.get, cls._fields)) if isinstance(d, dict)}

    def __new__(klass, *args, **kwargs):
        record = new(klass, *args, **kwargs)
        if shared:
            record = new(klass, *(copy.deepcopy(v) if v is shared.get(i) else v for i, v in enumerate(record)))
        check(record)
        return record

    cls.__new__ = __new__
    return cls
