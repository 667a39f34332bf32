"""Embedding-bias metrics: neutral-word similarity profiles and their pairwise gaps.

For each subgroup, the profile holds the cosine similarity between every
neutral word and the subgroup's term set, averaged over the terms. Pairwise
MAE/RMSE of those profiles, and their means over all subgroup pairs
(AMAE/ARMSE), quantify how unevenly neutral words associate across
subgroups. Out-of-vocabulary and multi-token terms are skipped and
reported, never imputed.
"""

import math
import warnings
from array import array
from operator import mul
from pathlib import Path
from typing import NamedTuple

from .errors import EmbeddingError, read_text
from .lexicon import AttributeLexicon
from .record import csv_text, plain


def load_embeddings(path: str | Path) -> dict[str, array]:
    """Parse a "term v1 ... vd" per line embedding file (no header) into term -> vector.

    Each vector is an ``array("d")``: 8 bytes per component, as a file of
    GloVe size needs. The dimension is inferred from the first line and must
    stay constant. Duplicate terms keep their first vector with a warning.
    """
    text = read_text(path, EmbeddingError, "embeddings")
    vectors: dict[str, array] = {}
    dimension: int | None = None
    duplicates = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise EmbeddingError("expected a term followed by numbers", line_no)
        term = parts[0].lower()
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise EmbeddingError(f"unparseable number: {exc}", line_no) from exc
        if any(math.isnan(v) or math.isinf(v) for v in values):
            raise EmbeddingError("vector contains NaN or Inf", line_no)
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise EmbeddingError(
                f"dimension mismatch: expected {dimension}, got {len(values)}", line_no
            )
        if term in vectors:
            duplicates += 1
            continue
        vectors[term] = array("d", values)
    if not vectors:
        raise EmbeddingError(f"embedding file {path} is empty")
    if duplicates:
        warnings.warn(f"{duplicates} duplicate embedding term(s) ignored (first kept)", stacklevel=2)
    return vectors


def _neutral_basis(neutrals: list[str], table: dict[str, array]) -> list[tuple[str, float]]:
    """The neutral words that have an embedding, in order, each with its norm."""
    basis = [(w, math.hypot(*table[w])) for w in neutrals if w in table]
    if not basis:
        raise EmbeddingError("no neutral word has an embedding")
    zero = [w for w, n in basis if n == 0.0]
    if zero:
        raise EmbeddingError(f"zero-norm embedding for neutral word(s): {zero}")
    return basis


def _profile(
    terms: list[str], basis: list[tuple[str, float]], table: dict[str, array]
) -> tuple[float, ...]:
    """Entry j = mean over ``terms``, as listed, of cos(neutral word j of ``basis``, term)."""
    norms = [math.hypot(*table[t]) for t in terms]
    if 0.0 in norms:
        bad = [t for t, n in zip(terms, norms) if n == 0.0]
        raise EmbeddingError(f"zero-norm embedding for term(s): {bad}")
    # The mean of cos(n, t) over terms t is n/|n| . mean(t/|t|): one dot
    # product per neutral word instead of one per (word, term) pair.
    units = [[v / n for v in table[t]] for t, n in zip(terms, norms)]
    centroid = [sum(column) / len(units) for column in zip(*units)]
    return tuple(sum(map(mul, table[w], centroid)) / n for w, n in basis)


class PairGap(NamedTuple):
    """MAE and RMSE between the profiles of two subgroups, ``subgroup_a < subgroup_b``."""

    subgroup_a: str
    subgroup_b: str
    mae: float
    rmse: float


class EmbeddingBiasResult(NamedTuple):
    """Pairwise and aggregate neutral-word association gaps for one attribute."""

    attribute: str
    pairwise: tuple[PairGap, ...]  # in sorted pair order
    amae: float
    armse: float
    skipped_terms: tuple[str, ...]

    to_dict = plain


def embedding_bias(
    neutrals: tuple[str, ...],
    lexicon: AttributeLexicon,
    attribute: str,
    table: dict[str, array],
) -> EmbeddingBiasResult:
    """MAE/RMSE between subgroup similarity profiles plus their AMAE/ARMSE means.

    Every profile is taken over one basis: the neutral words that have an
    embedding. Neutral words that collide with a subgroup term of the
    attribute are excluded with a warning (they cannot be neutral for this
    attribute). A subgroup term enters its profile if it is one token in
    the table; the others are skipped and reported.
    """
    subgroups = lexicon.attributes.get(attribute)
    if not subgroups:
        raise EmbeddingError(f"unknown attribute {attribute!r}")
    attribute_terms = {term for terms in subgroups.values() for term in terms}
    clashing = [w for w in neutrals if w in attribute_terms]
    if clashing:
        warnings.warn(
            f"{len(clashing)} neutral word(s) overlap {attribute} subgroup terms and were excluded: "
            f"{clashing[:10]}",
            stacklevel=2,
        )
    if len(clashing) == len(neutrals):
        raise EmbeddingError("no usable neutral words after removing subgroup-term overlaps")
    basis = _neutral_basis([w for w in neutrals if w not in attribute_terms], table)

    skipped: list[str] = []
    profiles: dict[str, tuple[float, ...]] = {}
    for subgroup in sorted(subgroups):
        terms = subgroups[subgroup]
        usable = [t for t in terms if " " not in t and t in table]
        skipped += [t for t in dict.fromkeys(terms) if t not in usable]
        if usable:
            profiles[subgroup] = _profile(usable, basis, table)
    if len(profiles) < 2:
        raise EmbeddingError(
            f"attribute {attribute!r}: need at least 2 subgroups with in-vocabulary terms, "
            f"got {len(profiles)}"
        )

    names = list(profiles)  # sorted, as filled
    pairwise: list[PairGap] = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = [xa - xb for xa, xb in zip(profiles[a], profiles[b])]
            mae = sum(map(abs, diff)) / len(diff)
            rmse = math.sqrt(sum(d * d for d in diff) / len(diff))
            pairwise.append(PairGap(subgroup_a=a, subgroup_b=b, mae=mae, rmse=rmse))
    return EmbeddingBiasResult(
        attribute=attribute,
        pairwise=tuple(pairwise),
        amae=sum(p.mae for p in pairwise) / len(pairwise),
        armse=sum(p.rmse for p in pairwise) / len(pairwise),
        skipped_terms=tuple(skipped),
    )


def embedding_bias_csv(results: list[EmbeddingBiasResult]) -> str:
    """Flat CSV of pairwise and aggregate values, one attribute per block."""
    rows = []
    for result in results:
        rows += [
            (result.attribute, p.subgroup_a, p.subgroup_b, f"{p.mae:.6g}", f"{p.rmse:.6g}")
            for p in result.pairwise
        ]
        rows.append((result.attribute, "ALL", "ALL", f"{result.amae:.6g}", f"{result.armse:.6g}"))
    return csv_text(("attribute", "subgroup_a", "subgroup_b", "mae", "rmse"), rows)
