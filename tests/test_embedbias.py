import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textaudit.embedbias import (
    _neutral_basis,
    _profile,
    embedding_bias,
    embedding_bias_csv,
    load_embeddings,
)
from textaudit.errors import EmbeddingError
from textaudit.lexicon import _lexicon_from_obj


def table_of(**vectors):
    return {k: array("d", v) for k, v in vectors.items()}


def profile_of(neutrals, terms, table):
    return _profile(terms, _neutral_basis(neutrals, table), table)


def test_load_embeddings_basic(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 0\nb 0 1\n")
    table = load_embeddings(path)
    assert {len(vector) for vector in table.values()} == {2}
    assert len(table) == 2
    assert list(table.get("a")) == [1.0, 0.0]


def test_load_embeddings_ignores_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"\xef\xbb\xbfa 1 0\nb 0 1\n")
    table = load_embeddings(path)
    assert "a" in table
    assert table.get("a") == array("d", [1.0, 0.0])


def test_load_embeddings_dimension_error_reports_line(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 0 0\nb 0 1\n")
    with pytest.raises(EmbeddingError, match="line 2"):
        load_embeddings(path)


def test_load_embeddings_duplicate_keeps_first(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 0\na 0 1\n")
    with pytest.warns(UserWarning, match="1 duplicate"):
        table = load_embeddings(path)
    assert list(table.get("a")) == [1.0, 0.0]


def test_load_embeddings_empty_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("\n")
    with pytest.raises(EmbeddingError, match="empty"):
        load_embeddings(path)


def test_load_embeddings_bad_number(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("a 1 zebra\n")
    with pytest.raises(EmbeddingError, match="line 1"):
        load_embeddings(path)


def test_cosine_closed_form():
    table = table_of(n=[1, 1], t=[1, 0])
    assert profile_of(["n"], ["t"], table) == pytest.approx((1 / math.sqrt(2),), abs=1e-9)


def test_cosine_zero_norm_rejected():
    neutrals = ["n"]
    with pytest.raises(EmbeddingError, match=r"zero-norm embedding for term\(s\): \['z'\]"):
        profile_of(neutrals, ["z", "t"], table_of(n=[1, 0], t=[1, 0], z=[0, 0]))
    with pytest.raises(EmbeddingError, match=r"zero-norm embedding for neutral word\(s\): \['n'\]"):
        _neutral_basis(neutrals, table_of(n=[0, 0], t=[1, 0]))


def test_profile_identical_vector():
    table = table_of(n=[0.3, 0.4], t=[0.3, 0.4])
    assert profile_of(["n"], ["t"], table) == pytest.approx((1.0,), abs=1e-12)


def test_profile_hand_average():
    # cos(n, t1) = 1, cos(n, t2) = 0 -> mean 0.5
    table = table_of(n=[1, 0], t1=[2, 0], t2=[0, 5])
    assert profile_of(["n"], ["t1", "t2"], table)[0] == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(1, 12),
    n_terms=st.integers(1, 6),
    n_neutrals=st.integers(1, 6),
)
def test_profile_equals_brute_force_mean_of_cosines(seed, dimension, n_terms, n_neutrals):
    rng = np.random.default_rng(seed)
    terms = [f"t{i}" for i in range(n_terms)]
    neutrals = [f"n{i}" for i in range(n_neutrals)]
    vectors = {name: rng.normal(size=dimension) for name in terms + neutrals}
    profile = profile_of(neutrals, terms, table_of(**vectors))

    def cosine(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    expected = [
        sum(cosine(vectors[n], vectors[t]) for t in terms) / n_terms for n in neutrals
    ]
    assert profile == pytest.approx(expected, rel=0, abs=1e-12)


def test_profile_oov_neutral_dropped():
    table = table_of(n1=[1, 0], t=[1, 0])
    assert [word for word, _ in _neutral_basis(["n1", "missing"], table)] == ["n1"]


def _unit(*components):
    v = np.asarray(components, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_embedding_bias_hand_case():
    # Profiles x_a = (0.5, 0.1), x_b = (0.3, 0.5): diffs (0.2, -0.4)
    table = table_of(
        n1=[1, 0, 0],
        n2=[0, 1, 0],
        ta=list(_unit(0.5, 0.1, math.sqrt(1 - 0.5**2 - 0.1**2))),
        tb=list(_unit(0.3, 0.5, math.sqrt(1 - 0.3**2 - 0.5**2))),
    )
    lexicon = _lexicon_from_obj({"attr": {"a": ["ta"], "b": ["tb"]}})
    result = embedding_bias(("n1", "n2"), lexicon, "attr", table)
    assert result.amae == pytest.approx(0.3, abs=1e-9)
    assert result.armse == pytest.approx(math.sqrt(0.1), abs=1e-9)
    (gap,) = result.pairwise
    assert (gap.subgroup_a, gap.subgroup_b) == ("a", "b")
    assert gap.mae == pytest.approx(0.3, abs=1e-9)
    assert gap.rmse == pytest.approx(math.sqrt(0.1), abs=1e-9)


def test_embedding_bias_identical_term_sets_zero():
    table = table_of(n1=[1, 0], n2=[0.4, 0.6], t1=[0.2, 0.9], t2=[0.8, 0.1])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1", "t2"], "b": ["t1", "t2"]}})
    result = embedding_bias(("n1", "n2"), lexicon, "attr", table)
    assert result.amae == 0.0
    assert result.armse == 0.0


def test_embedding_bias_two_subgroups_amae_equals_mae():
    rng = np.random.default_rng(5)
    names = [f"t{i}" for i in range(6)] + ["n1", "n2", "n3"]
    table = table_of(**{name: rng.normal(size=4) for name in names})
    lexicon = _lexicon_from_obj({"attr": {"a": ["t0", "t1", "t2"], "b": ["t3", "t4", "t5"]}})
    result = embedding_bias(("n1", "n2", "n3"), lexicon, "attr", table)
    (gap,) = result.pairwise
    assert (gap.subgroup_a, gap.subgroup_b) == ("a", "b")
    assert result.amae == gap.mae
    assert result.armse == gap.rmse
    assert gap.rmse >= gap.mae


def test_embedding_bias_multi_token_and_oov_skipped():
    table = table_of(n=[1, 0], t1=[0.5, 0.5], t2=[0.1, 0.9])
    lexicon = _lexicon_from_obj(
        {"attr": {"a": ["t1", "old man"], "b": ["t2", "ghost"]}}
    )
    result = embedding_bias(("n",), lexicon, "attr", table)
    assert set(result.skipped_terms) == {"old man", "ghost"}


def test_embedding_bias_fewer_than_two_subgroups():
    table = table_of(n=[1, 0], t1=[0.5, 0.5])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1"], "b": ["ghost"]}})
    with pytest.raises(EmbeddingError, match="at least 2 subgroups"):
        embedding_bias(("n",), lexicon, "attr", table)


def test_embedding_bias_zero_vector_term_fails_instead_of_dropping_subgroup():
    # Three subgroups: dropping "c" would still leave a pair to average over.
    table = table_of(n=[1, 0], t1=[0.5, 0.5], t2=[0.1, 0.9], t3=[0, 0])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1"], "b": ["t2"], "c": ["t3"]}})
    with pytest.raises(EmbeddingError, match=r"zero-norm embedding for term\(s\): \['t3'\]"):
        embedding_bias(("n",), lexicon, "attr", table)


def test_embedding_bias_no_neutral_embedding_keeps_its_message():
    table = table_of(t1=[0.5, 0.5], t2=[0.1, 0.9])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1"], "b": ["t2"]}})
    with pytest.raises(EmbeddingError, match="no neutral word has an embedding"):
        embedding_bias(("ghost",), lexicon, "attr", table)


def test_embedding_bias_neutral_overlap_excluded():
    table = table_of(n=[1, 0], t1=[0.5, 0.5], t2=[0.1, 0.9])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1"], "b": ["t2"]}})
    with pytest.warns(UserWarning, match="overlap"):
        result = embedding_bias(("n", "t1"), lexicon, "attr", table)
    assert result.amae >= 0.0


def test_embedding_bias_scale_invariance():
    rng = np.random.default_rng(11)
    names = [f"t{i}" for i in range(4)] + ["n1", "n2"]
    base = {name: rng.normal(size=3) for name in names}
    lexicon = _lexicon_from_obj({"attr": {"a": ["t0", "t1"], "b": ["t2", "t3"]}})
    neutrals = ("n1", "n2")
    r1 = embedding_bias(neutrals, lexicon, "attr", table_of(**base))
    scaled = {k: 17.5 * v for k, v in base.items()}
    r2 = embedding_bias(neutrals, lexicon, "attr", table_of(**scaled))
    assert r1.amae == pytest.approx(r2.amae, abs=1e-9)
    assert r1.armse == pytest.approx(r2.armse, abs=1e-9)


def test_embedding_bias_subgroup_permutation_invariant():
    rng = np.random.default_rng(23)
    names = [f"t{i}" for i in range(6)] + ["n1", "n2"]
    vectors = {name: rng.normal(size=3) for name in names}
    neutrals = ("n1", "n2")
    lex_fwd = _lexicon_from_obj(
        {"attr": {"a": ["t0", "t1"], "b": ["t2", "t3"], "c": ["t4", "t5"]}}
    )
    lex_rev = _lexicon_from_obj(
        {"attr": {"c": ["t4", "t5"], "b": ["t2", "t3"], "a": ["t0", "t1"]}}
    )
    r1 = embedding_bias(neutrals, lex_fwd, "attr", table_of(**vectors))
    r2 = embedding_bias(neutrals, lex_rev, "attr", table_of(**vectors))
    assert r1.amae == pytest.approx(r2.amae, abs=1e-12)
    assert r1.armse == pytest.approx(r2.armse, abs=1e-12)
    assert len(r1.pairwise) == 3


def test_csv_emission():
    table = table_of(n=[1, 0], t1=[0.5, 0.5], t2=[0.1, 0.9])
    lexicon = _lexicon_from_obj({"attr": {"a": ["t1"], "b": ["t2"]}})
    result = embedding_bias(("n",), lexicon, "attr", table)
    text = embedding_bias_csv([result])
    assert text.splitlines()[0] == "attribute,subgroup_a,subgroup_b,mae,rmse"
    assert "attr,ALL,ALL," in text


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dimension=st.integers(1, 12),
    n_subgroups=st.integers(2, 4),
    data=st.data(),
)
def test_embedding_bias_equals_brute_force_loop(seed, dimension, n_subgroups, data):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(8)]  # each in the table
    pool = words + ["ghost", "void", "old man", "w0 w1"]  # out of vocabulary, multi-token
    subgroups = {
        f"s{i}": data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        for i in range(n_subgroups)
    }
    # Neutral words that are terms of a subgroup clash and are left out.
    neutrals = tuple(data.draw(st.lists(st.sampled_from(words + ["n0", "n1", "gone"]), max_size=6)))
    vectors = {name: rng.normal(size=dimension) for name in words + ["n0", "n1"]}
    lexicon = _lexicon_from_obj({"attr": subgroups})

    listed = {term for terms in subgroups.values() for term in terms}
    basis = [w for w in neutrals if w not in listed and w in vectors]
    skipped, profiles = [], {}
    for name in sorted(subgroups):
        usable = [t for t in subgroups[name] if " " not in t and t in vectors]
        skipped += [t for t in dict.fromkeys(subgroups[name]) if t not in usable]
        if usable:
            profiles[name] = np.array([
                np.mean([
                    vectors[w] @ vectors[t] / (np.linalg.norm(vectors[w]) * np.linalg.norm(vectors[t]))
                    for t in usable
                ])
                for w in basis
            ])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if not basis or len(profiles) < 2:
            with pytest.raises(EmbeddingError):
                embedding_bias(neutrals, lexicon, "attr", table_of(**vectors))
            return
        result = embedding_bias(neutrals, lexicon, "attr", table_of(**vectors))

    names = sorted(profiles)
    expected = [
        (a, b, np.mean(np.abs(profiles[a] - profiles[b])),
         np.sqrt(np.mean((profiles[a] - profiles[b]) ** 2)))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    assert [(p.subgroup_a, p.subgroup_b) for p in result.pairwise] == [e[:2] for e in expected]
    for gap, (_, _, mae, rmse) in zip(result.pairwise, expected):
        assert gap.mae == pytest.approx(mae, rel=0, abs=1e-12)
        assert gap.rmse == pytest.approx(rmse, rel=0, abs=1e-12)
    assert result.amae == pytest.approx(np.mean([e[2] for e in expected]), rel=0, abs=1e-12)
    assert result.armse == pytest.approx(np.mean([e[3] for e in expected]), rel=0, abs=1e-12)
    assert result.skipped_terms == tuple(skipped)
