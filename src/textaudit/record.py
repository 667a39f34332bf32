"""Dict forms of result dataclasses, derived from their fields.

A result's fields are its published keys, so its dict form is just its
fields, in order: every result mixes in :class:`Record`.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass


def plain(value):
    """``value`` as JSON-ready data: dataclasses as dicts, tuples as lists."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


class Record:
    """Mixin: ``to_dict`` maps every dataclass field name to its plain value."""

    def to_dict(self) -> dict:
        return plain(self)
