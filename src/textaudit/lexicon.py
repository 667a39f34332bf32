"""Word resources: subgroup term lists, swap pairs, gazetteer, counterfactual templates.

Each loader returns a plain value and is the one place its file is checked:
the lexicon is an :class:`AttributeLexicon`, the gazetteer a ``dict`` of term
to ``(attribute, subgroup)``, the identity terms and the neutral words
tuples of terms, and the templates a tuple of ``(pattern, label)`` pairs.
Nothing modifies a resource after load, so all are safe to share across
threads. File formats: lexicon is JSON ``{attribute: {subgroup: [terms]}}``,
the gazetteer is JSON ``{term: [attribute, subgroup]}``, templates are a
JSON list of ``{pattern, label}``, and word lists are one term per line with
``#`` comments. Built-in defaults ship with the package.
"""

import warnings
from pathlib import Path
from typing import NamedTuple

from .errors import LexiconError, numbered_lines, read_json, read_text

IDENTITY_SLOT = "[Identity]"

# The built-in file of each word resource, keyed by the resource's name: its
# config key, and the suffix of its ``load_<name>`` and ``default_<name>``.
BUILTIN_FILES = {
    "lexicon": "default_lexicon.json",
    "gazetteer": "default_gazetteer.json",
    "identity_terms": "default_identity_terms.txt",
    "neutral_words": "default_neutral_words.txt",
    "templates": "default_templates.json",
}


def builtin_file(name: str) -> Path:
    """The packaged built-in file of word resource ``name``."""
    return Path(__file__).parent / "data" / BUILTIN_FILES[name]


def _clean_term(raw: str) -> str:
    """A term as the file loaders store it: lowercase, words joined by one space.

    Every loader stores each term in this form. Terms match token by token,
    so any other whitespace would leave a one-token term unmatchable and let
    a multi-token term match under another name.
    """
    return " ".join(raw.split()).lower()


def _name(value: str, error: str) -> str:
    """``value``, an attribute or subgroup name, if it is one non-empty line, else ``error``.

    Names are cells of the CSV side files and of the report's tables, where
    a line break would split a row.
    """
    if value.splitlines() != [value]:
        raise LexiconError(f"{error} {value!r}")
    return value


class AttributeLexicon(NamedTuple):
    """Protected attribute -> subgroup -> ordered term list.

    Term lists keep their file order and duplicates: swap-pair alignment is
    positional. :func:`load_lexicon` gives every attribute at least two
    subgroups, each with at least one term in :func:`_clean_term` form.
    """

    attributes: dict[str, dict[str, tuple[str, ...]]]

    def subgroups(self, attribute: str) -> list[str]:
        if attribute not in self.attributes:
            raise LexiconError(f"unknown attribute {attribute!r}")
        return list(self.attributes[attribute])

    def terms(self, attribute: str, subgroup: str) -> tuple[str, ...]:
        subgroups = self.attributes.get(attribute)
        if subgroups is None:
            raise LexiconError(f"unknown attribute {attribute!r}")
        if subgroup not in subgroups:
            raise LexiconError(f"unknown subgroup {attribute}.{subgroup}")
        return subgroups[subgroup]

    def abbreviations(self) -> frozenset[str]:
        """Words of the terms that end in a period; the tokenizer keeps them intact."""
        return frozenset(
            word
            for subgroups in self.attributes.values()
            for terms in subgroups.values()
            for term in terms
            for word in term.split()
            if word.endswith(".")
        )


def _lexicon_from_obj(obj) -> AttributeLexicon:
    if not isinstance(obj, dict):
        raise LexiconError("lexicon must be a JSON object {attribute: {subgroup: [terms]}}")
    attributes: dict[str, dict[str, tuple[str, ...]]] = {}
    for attribute, subgroups in obj.items():
        _name(attribute, "invalid attribute name")
        if not isinstance(subgroups, dict):
            raise LexiconError(f"attribute {attribute!r} must map to an object of subgroups")
        parsed: dict[str, tuple[str, ...]] = {}
        for subgroup, terms in subgroups.items():
            _name(subgroup, f"attribute {attribute!r}: invalid subgroup name")
            if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
                raise LexiconError(f"subgroup {attribute}.{subgroup} must be a list of strings")
            if not terms:
                raise LexiconError(f"subgroup {attribute}.{subgroup} has no terms")
            parsed[subgroup] = tuple(map(_clean_term, terms))
            if "" in parsed[subgroup]:
                raise LexiconError(f"subgroup {attribute}.{subgroup}: invalid term ''")
        if len(parsed) < 2:
            raise LexiconError(
                f"attribute {attribute!r} needs at least 2 subgroups, has {len(parsed)}"
            )
        attributes[attribute] = parsed
    return AttributeLexicon(attributes=attributes)


def load_lexicon(path: str | Path) -> AttributeLexicon:
    return _lexicon_from_obj(read_json(path, LexiconError))


def default_lexicon() -> AttributeLexicon:
    return _lexicon_from_obj(read_json(builtin_file("lexicon"), LexiconError))


class SwapTable(NamedTuple):
    """Bidirectional aligned term pairs for one attribute: the partner of each term.

    No term is in two pairs, so ``partner`` is its own inverse:
    :func:`aligned_swap_pairs` drops any pair that would reuse a term.
    """

    attribute: str
    pairs: tuple[tuple[str, str], ...]

    def partner(self, term: str) -> str | None:
        return next((b if term == a else a for a, b in self.pairs if term in (a, b)), None)


def aligned_swap_pairs(
    lexicon: AttributeLexicon, attribute: str, sub_a: str, sub_b: str
) -> SwapTable:
    """Pair up two subgroups' term lists by position.

    Requires equally long lists. A term already claimed by an earlier pair
    collapses to that first pairing; the dropped pair is reported with a
    warning.
    """
    terms_a = lexicon.terms(attribute, sub_a)
    terms_b = lexicon.terms(attribute, sub_b)
    if len(terms_a) != len(terms_b):
        raise LexiconError(
            f"cannot align {attribute}.{sub_a} with {attribute}.{sub_b}: "
            f"list lengths differ ({len(terms_a)} vs {len(terms_b)})"
        )
    pairs: list[tuple[str, str]] = []
    used: set[str] = set()
    for a, b in zip(terms_a, terms_b):
        if a in used or b in used:
            warnings.warn(
                f"swap pair ({a!r}, {b!r}) dropped: term already paired", stacklevel=2
            )
            continue
        pairs.append((a, b))
        used.add(a)
        used.add(b)
    return SwapTable(attribute=attribute, pairs=tuple(pairs))


def _word_list(text: str, name: str) -> tuple[str, ...]:
    words = (_clean_term(line.split("#", 1)[0]) for _, line in numbered_lines(text))
    found = tuple(word for word in words if word)
    if not found:
        raise LexiconError(f"{name} list is empty")
    return found


def _neutral_words(text: str) -> tuple[str, ...]:
    # Duplicates stay: the embedding profile averages over every listed word.
    return _word_list(text, "neutral word")


def _identity_terms(text: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(_word_list(text, "identity term")))


def load_neutral_words(path: str | Path) -> tuple[str, ...]:
    return _neutral_words(read_text(path, LexiconError))


def default_neutral_words() -> tuple[str, ...]:
    return _neutral_words(read_text(builtin_file("neutral_words"), LexiconError))


def load_identity_terms(path: str | Path) -> tuple[str, ...]:
    return _identity_terms(read_text(path, LexiconError))


def default_identity_terms() -> tuple[str, ...]:
    return _identity_terms(read_text(builtin_file("identity_terms"), LexiconError))


def _gazetteer_from_obj(obj) -> dict[str, tuple[str, str]]:
    """Term -> (attribute, subgroup): the deterministic stand-in for NER.

    Covers nationality/religion/political group (NORP) mentions.
    """
    if not isinstance(obj, dict):
        raise LexiconError("gazetteer must be a JSON object {term: [attribute, subgroup]}")
    entries: dict[str, tuple[str, str]] = {}
    for term, target in obj.items():
        if (
            not isinstance(target, list)
            or len(target) != 2
            or not all(isinstance(name, str) for name in target)
        ):
            raise LexiconError(
                f"gazetteer entry {term!r} must map to two strings [attribute, subgroup], got {target!r}"
            )
        cleaned = _clean_term(term)
        if not cleaned:
            raise LexiconError("invalid gazetteer term ''")
        entries[cleaned] = (
            _name(target[0], f"gazetteer entry {term!r}: invalid attribute name"),
            _name(target[1], f"gazetteer entry {term!r}: invalid subgroup name"),
        )
    return entries


def load_gazetteer(path: str | Path) -> dict[str, tuple[str, str]]:
    return _gazetteer_from_obj(read_json(path, LexiconError))


def default_gazetteer() -> dict[str, tuple[str, str]]:
    return _gazetteer_from_obj(read_json(builtin_file("gazetteer"), LexiconError))


def _templates_from_obj(obj) -> tuple[tuple[str, int], ...]:
    """Counterfactual sentence templates, each with one identity slot and a label."""
    if not isinstance(obj, list):
        raise LexiconError("template file must be a JSON list of {pattern, label}")
    if not obj:
        raise LexiconError("template set is empty")
    templates: list[tuple[str, int]] = []
    for item in obj:
        if not isinstance(item, dict) or "pattern" not in item or "label" not in item:
            raise LexiconError(f"template entry must have pattern and label: {item!r}")
        pattern, label = item["pattern"], item["label"]
        if not isinstance(pattern, str):
            raise LexiconError(f"template pattern must be a string: {item!r}")
        if type(label) is not int:  # not a bool, a float or a string
            raise LexiconError(f"template label must be the JSON integer 0 or 1: {item!r}")
        if pattern.count(IDENTITY_SLOT) != 1:
            raise LexiconError(f"template must contain {IDENTITY_SLOT} exactly once: {pattern!r}")
        if label not in (0, 1):
            raise LexiconError(f"template label must be 0 or 1: {pattern!r}")
        templates.append((pattern, label))
    return tuple(templates)


def load_templates(path: str | Path) -> tuple[tuple[str, int], ...]:
    return _templates_from_obj(read_json(path, LexiconError))


def default_templates() -> tuple[tuple[str, int], ...]:
    return _templates_from_obj(read_json(builtin_file("templates"), LexiconError))
