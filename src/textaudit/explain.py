"""Perturbation-based interpretability for black-box text classifiers.

Local explanations fit an L2-regularized weighted linear surrogate to the
model's behaviour on token-deletion perturbations of one comment. Global
importances aggregate per-token occlusion effects or sampled Shapley values
across a corpus. Features are a comment's unique tokens with all
occurrences tied; a masked-out token is deleted from the text (no
placeholder), because the audited model consumes raw text and placeholder
tokens would be artifacts of the auditor.

All randomness flows from one recorded seed; per-comment streams are seeded
by (seed, comment id) so parallel execution cannot change results.

Each explanation is split into a plan and a finish: ``plan_local_explain``
and ``plan_global_importance`` list every perturbed text without calling the
model, and the plan's ``finish`` turns those texts' probabilities into the
result. ``local_explain`` and ``global_importance`` run the two back to
back; an audit scores the texts of every plan together first.
"""

import hashlib
import math
import random
from itertools import compress
from operator import mul
from typing import NamedTuple

from .corpus import Comment, LabeledCorpus, TokenSpan, splice, tokenize
from .errors import ExplainError
from .modeliface import Adapter, PredictionCache, ScoringPlan, predict_batch
from .record import csv_text, plain

EXACT_SHAPLEY_MAX_TOKENS = 12

DEFAULT_KERNEL_WIDTH = 0.75
DEFAULT_L2_LAMBDA = 1e-3


def _comment_rng(rng_seed: int, comment_id: str) -> random.Random:
    digest = hashlib.sha256(f"{rng_seed}:{comment_id}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _unique_tokens(text: str) -> tuple[list[str], list[tuple[int, TokenSpan]]]:
    """Unique tokens in first-appearance order; each span, in text order, with its token's index."""
    index: dict[str, int] = {}
    spans = [(index.setdefault(span.token, len(index)), span) for span in tokenize(text)]
    return list(index), spans


def _realize_mask(text: str, spans: list[tuple[int, TokenSpan]], bits: int) -> str:
    """``text`` with every occurrence of each token whose bit in ``bits`` is 0 deleted."""
    doomed = [(span, "") for j, span in spans if not bits >> j & 1]
    if not doomed:
        return text
    return " ".join(splice(text, doomed).split())


class LocalExplanation(NamedTuple):
    """Linear surrogate weights for one prediction; positive pushes toward hateful."""

    comment_id: str
    token_weights: tuple[tuple[str, float], ...]
    intercept: float
    surrogate_fit_r2: float
    n_samples: int
    kernel_width: float
    l2_lambda: float
    rng_seed: int

    to_dict = plain


def _mask_weights(masks: range | list[int], k: int, kernel_width: float) -> list[float]:
    # Cosine distance between each binary mask and the all-ones mask is
    # 1 - sqrt(kept fraction); the empty mask gets the maximum distance 1.
    weights = []
    for mask in masks:
        kept = mask.bit_count()
        distance = 1.0 - math.sqrt(kept / k) if kept else 1.0
        weights.append(math.exp(-(distance**2) / (kernel_width**2)))
    return weights


def _ridge_coefficients(
    masks: range | list[int], k: int, weights: list[float], y: list[float], l2_lambda: float
) -> list[float]:
    """Weighted ridge fit of y on each mask's k bits plus an intercept, which comes last.

    The intercept is not penalized. Raises ``ZeroDivisionError`` when the
    normal equations are exactly singular.
    """
    size = k + 1
    # The kernel gives every mask with the same number of kept tokens the same
    # weight, so a comment has few distinct weights however many masks it has.
    # For each weight, column i is one integer whose bit r says whether that
    # weight's r-th mask keeps column i (the intercept, bit k, is always kept),
    # so the masks of that weight keeping both i and j number the popcount of
    # the two columns' AND. A Gram entry is then a sum over weights, not masks.
    groups: dict[float, list[int]] = {}
    for mask, w in zip(masks, weights):
        groups.setdefault(w, []).append(mask | 1 << k)
    columns = [
        [sum(1 << r for r, mask in enumerate(rows) if mask >> i & 1) for i in range(size)]
        for rows in groups.values()
    ]
    gram = [[0.0] * size for _ in range(size)]  # upper triangle only; _solve reads no more
    for i in range(size):
        gram[i][i:] = [
            sum(w * (cols[i] & cols[j]).bit_count() for w, cols in zip(groups, columns))
            for j in range(i, size)
        ]
    for j in range(k):
        gram[j][j] += l2_lambda
    weighted_y = list(map(mul, weights, y))
    rhs = [sum(compress(weighted_y, (mask >> i & 1 for mask in masks))) for i in range(k)]
    rhs.append(sum(weighted_y))
    return _solve(gram, rhs)


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """x with a x = b for a symmetric positive semidefinite a, by LDLᵀ elimination.

    Reads only the upper triangle of a. A Gram matrix plus a ridge needs no
    pivoting, and an exactly zero pivot means it is singular: that raises
    ``ZeroDivisionError``.
    """
    n = len(b)
    lower: list[list[float]] = [[] for _ in range(n)]  # row i holds L[i][p] for p < i
    scaled: list[list[float]] = [[] for _ in range(n)]  # row i holds L[i][p] * d[p]
    d: list[float] = []
    for j in range(n):
        row = a[j]
        pivot = row[j] - sum(map(mul, lower[j], scaled[j]))
        if pivot == 0.0:
            raise ZeroDivisionError("singular matrix")
        d.append(pivot)
        scaled_j = scaled[j]
        for i in range(j + 1, n):
            lower_i = lower[i]
            entry = row[i] - sum(map(mul, lower_i, scaled_j))
            scaled[i].append(entry)
            lower_i.append(entry / pivot)
    z: list[float] = []
    for i in range(n):
        z.append(b[i] - sum(map(mul, lower[i], z)))
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = z[i] / d[i] - sum(lower[r][i] * x[r] for r in range(i + 1, n))
    return x


def plan_local_explain(
    comment: Comment,
    n_samples: int | None = None,
    kernel_width: float = DEFAULT_KERNEL_WIDTH,
    l2_lambda: float = DEFAULT_L2_LAMBDA,
    rng_seed: int = 0,
) -> ScoringPlan:
    """The perturbed texts :func:`local_explain` scores, and the surrogate fit."""
    tokens, spans = _unique_tokens(comment.text)
    k = len(tokens)
    if k == 0:
        raise ExplainError(f"comment {comment.id!r} has no tokens")
    if n_samples is None:
        n_samples = max(512, 8 * k)
    if n_samples < k + 1:
        raise ExplainError(
            f"n_samples must be at least unique tokens + 1 ({k + 1}), got {n_samples}"
        )

    # Bit j of a mask keeps token j.
    if k <= 20 and 2**k <= n_samples:
        masks: range | list[int] = range(2**k)
    else:
        rng = _comment_rng(rng_seed, comment.id)
        masks = [(1 << k) - 1]
        masks += [sum(rng.getrandbits(1) << j for j in range(k)) for _ in range(n_samples - 1)]

    texts = [_realize_mask(comment.text, spans, mask) for mask in masks]

    def finish(y: list[float]) -> LocalExplanation:
        w = _mask_weights(masks, k, kernel_width)
        try:
            beta = _ridge_coefficients(masks, k, w, y, l2_lambda)
        except ZeroDivisionError as exc:
            raise ExplainError(f"degenerate design matrix for comment {comment.id!r}") from exc

        intercept = beta[k]
        fitted = [
            intercept + sum(compress(beta, (mask >> j & 1 for j in range(k)))) for mask in masks
        ]
        ss_res = sum(wi * (yi - fi) ** 2 for wi, yi, fi in zip(w, y, fitted))
        y_bar = sum(wi * yi for wi, yi in zip(w, y)) / sum(w)
        ss_tot = sum(wi * (yi - y_bar) ** 2 for wi, yi in zip(w, y))
        # A constant response is fitted by the unpenalized intercept: what ss_res holds is rounding.
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-30 else 1.0

        return LocalExplanation(
            comment_id=comment.id,
            token_weights=tuple(zip(tokens, beta[:k])),
            intercept=intercept,
            surrogate_fit_r2=r2,
            n_samples=len(masks),
            kernel_width=kernel_width,
            l2_lambda=l2_lambda,
            rng_seed=rng_seed,
        )

    return ScoringPlan(texts, finish)


def local_explain(
    comment: Comment,
    adapter: Adapter,
    n_samples: int | None = None,
    kernel_width: float = DEFAULT_KERNEL_WIDTH,
    l2_lambda: float = DEFAULT_L2_LAMBDA,
    rng_seed: int = 0,
    cache: PredictionCache | None = None,
) -> LocalExplanation:
    """Fit a weighted ridge surrogate of the model around one comment.

    Masks keep each unique token with probability 0.5 (the all-ones mask is
    always included); when 2^k masks fit within ``n_samples`` the full mask
    space is enumerated instead, which makes the fit exact for linear
    models. Sample weights decay with cosine distance from the unperturbed
    mask. The intercept is not penalized.
    """
    plan = plan_local_explain(comment, n_samples, kernel_width, l2_lambda, rng_seed)
    return plan.run(adapter, cache)


class ImportanceRow(NamedTuple):
    token: str
    mean_effect: float
    mean_abs_effect: float
    support: int


class GlobalImportance(NamedTuple):
    """Corpus-level token effects, sorted by mean |effect| descending."""

    rows: tuple[ImportanceRow, ...]
    method: str
    rng_seed: int

    to_dict = plain

    def to_csv(self) -> str:
        return csv_text(
            ("token", "mean_effect", "mean_abs_effect", "support"),
            (
                (r.token, f"{r.mean_effect:.6g}", f"{r.mean_abs_effect:.6g}", r.support)
                for r in self.rows
            ),
        )


def _capped_tokens(text: str, max_tokens: int) -> tuple[list[str], list[tuple[int, TokenSpan]]]:
    tokens, spans = _unique_tokens(text)
    if max_tokens and len(tokens) > max_tokens:
        tokens = tokens[:max_tokens]  # first-appearance order keeps this deterministic
        spans = [(j, span) for j, span in spans if j < max_tokens]
    return tokens, spans


def _plan_occlusion(
    corpus: LabeledCorpus, max_tokens_per_comment: int
) -> ScoringPlan:
    full_texts: list[str] = []
    deletion_texts: list[str] = []
    token_lists: list[list[str]] = []
    for comment in corpus:
        tokens, spans = _capped_tokens(comment.text, max_tokens_per_comment)
        full_texts.append(comment.text)
        every = (1 << len(tokens)) - 1
        deletion_texts.extend(
            _realize_mask(comment.text, spans, every ^ 1 << t) for t in range(len(tokens))
        )
        token_lists.append(tokens)

    def finish(probs: list[float]) -> dict[str, list[float]]:
        deletion_probs = iter(probs[len(full_texts) :])
        effects: dict[str, list[float]] = {}
        for tokens, p_full in zip(token_lists, probs):
            for token in tokens:
                effects.setdefault(token, []).append(p_full - next(deletion_probs))
        return effects

    return ScoringPlan(full_texts + deletion_texts, finish)


def _plan_sampled_shapley(
    corpus: LabeledCorpus, m_permutations: int, max_tokens_per_comment: int, rng_seed: int
) -> ScoringPlan:
    if m_permutations < 1:
        raise ExplainError(f"m_permutations must be positive, got {m_permutations}")
    # Draw every order up front (they never depend on model outputs) and
    # realize each comment's distinct prefix coalitions once.
    texts: list[str] = []
    plans: list[tuple[list[str], list[list[int]], dict[int, int]]] = []
    for comment in corpus:
        tokens, spans = _capped_tokens(comment.text, max_tokens_per_comment)
        k = len(tokens)
        if k == 0:
            continue
        rng = _comment_rng(rng_seed, comment.id)
        orders = [rng.sample(range(k), k) for _ in range(m_permutations)]
        # coalition bitset -> index into texts: the empty coalition, then
        # every prefix of every order, in draw order
        slot_of = {0: len(texts)}
        texts.append(_realize_mask(comment.text, spans, 0))
        for order in orders:
            bits = 0
            for j in order:
                bits |= 1 << j
                if bits not in slot_of:
                    slot_of[bits] = len(texts)
                    texts.append(_realize_mask(comment.text, spans, bits))
        plans.append((tokens, orders, slot_of))

    def finish(values: list[float]) -> dict[str, list[float]]:
        # Replay the orders, accumulating marginals in draw order.
        effects: dict[str, list[float]] = {}
        for tokens, orders, slot_of in plans:
            marginals = [0.0] * len(tokens)
            for order in orders:
                previous = values[slot_of[0]]
                bits = 0
                for j in order:
                    bits |= 1 << j
                    current = values[slot_of[bits]]
                    marginals[j] += current - previous
                    previous = current
            for token, total in zip(tokens, marginals):
                effects.setdefault(token, []).append(total / m_permutations)
        return effects

    return ScoringPlan(texts, finish)


def plan_global_importance(
    corpus: LabeledCorpus,
    method: str = "occlusion",
    m_permutations: int = 200,
    max_tokens_per_comment: int = 12,
    rng_seed: int = 0,
) -> ScoringPlan:
    """The perturbed texts :func:`global_importance` scores, and the aggregation."""
    if method not in ("occlusion", "sampled_shapley"):
        raise ExplainError(f"unknown importance method {method!r}")
    if len(corpus) == 0:
        raise ExplainError("corpus is empty")
    if method == "occlusion":
        effects_plan = _plan_occlusion(corpus, max_tokens_per_comment)
    else:
        effects_plan = _plan_sampled_shapley(
            corpus, m_permutations, max_tokens_per_comment, rng_seed
        )

    def finish(probs: list[float]) -> GlobalImportance:
        return _importance_from_effects(effects_plan.finish(probs), method, rng_seed)

    return ScoringPlan(effects_plan.texts, finish)


def _importance_from_effects(
    effects: dict[str, list[float]], method: str, rng_seed: int
) -> GlobalImportance:
    """One row per token: mean and mean |effect| over its effects, and their count."""
    rows = [
        ImportanceRow(
            token=token,
            mean_effect=sum(values) / len(values),
            mean_abs_effect=sum(abs(v) for v in values) / len(values),
            support=len(values),
        )
        for token, values in effects.items()
    ]
    rows.sort(key=lambda r: (-r.mean_abs_effect, r.token))
    return GlobalImportance(rows=tuple(rows), method=method, rng_seed=rng_seed)


def global_importance(
    corpus: LabeledCorpus,
    adapter: Adapter,
    method: str = "occlusion",
    m_permutations: int = 200,
    max_tokens_per_comment: int = 12,
    rng_seed: int = 0,
    cache: PredictionCache | None = None,
) -> GlobalImportance:
    """Aggregate per-token effects over every comment containing the token.

    occlusion: effect = p(full text) - p(text with all occurrences of the
    token deleted). sampled_shapley: the token's marginal contribution
    averaged over random insertion orders, coalitions realized by deleting
    the complement. Support counts the comments where the token was an
    explained feature (comments beyond ``max_tokens_per_comment`` unique
    tokens only expose their first ones).

    Both methods plan every perturbed text first and score them all in one
    batched :func:`predict_batch` call, about ``ceil(distinct texts /
    batch_size)`` adapter calls. Shapley orders are drawn up front from the
    same per-comment RNG streams, so the values do not depend on batching.
    """
    plan = plan_global_importance(
        corpus, method, m_permutations, max_tokens_per_comment, rng_seed
    )
    return plan.run(adapter, cache)


def exact_shapley(
    comment: Comment, adapter: Adapter, cache: PredictionCache | None = None
) -> list[tuple[str, float]]:
    """Exact Shapley values by full coalition enumeration (<= 12 unique tokens).

    The value of a coalition is the model's probability on the text with the
    complement deleted. Serves as the oracle for the sampled estimator.
    """
    tokens, spans = _unique_tokens(comment.text)
    k = len(tokens)
    if k == 0:
        raise ExplainError(f"comment {comment.id!r} has no tokens")
    if k > EXACT_SHAPLEY_MAX_TOKENS:
        raise ExplainError(
            f"exact Shapley enumeration is limited to {EXACT_SHAPLEY_MAX_TOKENS} unique tokens, "
            f"comment {comment.id!r} has {k}"
        )
    texts = [_realize_mask(comment.text, spans, bits) for bits in range(2**k)]
    values = predict_batch(texts, adapter, cache)

    size_weight = [
        math.factorial(s) * math.factorial(k - 1 - s) / math.factorial(k) for s in range(k)
    ]
    shapley = [0.0] * k
    for bits in range(2**k):
        size = bits.bit_count()
        for j in range(k):
            if bits & (1 << j):
                continue
            shapley[j] += size_weight[size] * (values[bits | (1 << j)] - values[bits])
    return list(zip(tokens, shapley))
