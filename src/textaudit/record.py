"""Dict forms of result dataclasses, derived from their fields.

A result whose dict form is just its fields, in order, mixes in
:class:`Record`; a result that reshapes its data keeps its own ``to_dict``.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass


def plain(value):
    """``value`` as JSON-ready data: dataclasses as dicts, tuples as lists."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
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
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}
