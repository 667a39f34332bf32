import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textaudit.embedbias import (
    embedding_bias,
    embedding_bias_csv,
    load_embeddings,
    subgroup_similarity_profile,
)
from textaudit.errors import EmbeddingError
from textaudit.lexicon import _lexicon_from_obj


def table_of(**vectors):
    return {k: array("d", v) for k, v in vectors.items()}


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
    profile = subgroup_similarity_profile(("n",), ["t"], table, "s")
    assert profile.x == pytest.approx((1 / math.sqrt(2),), abs=1e-9)


def test_cosine_zero_norm_rejected():
    neutrals = ("n",)
    with pytest.raises(EmbeddingError, match=r"zero-norm embedding for term\(s\): \['z'\]"):
        subgroup_similarity_profile(neutrals, ["z", "t"], table_of(n=[1, 0], t=[1, 0], z=[0, 0]))
    with pytest.raises(EmbeddingError, match=r"zero-norm embedding for neutral word\(s\): \['n'\]"):
        subgroup_similarity_profile(neutrals, ["t"], table_of(n=[0, 0], t=[1, 0]))


def test_profile_identical_vector():
    table = table_of(n=[0.3, 0.4], t=[0.3, 0.4])
    profile = subgroup_similarity_profile(("n",), ["t"], table, "s")
    assert profile.x == pytest.approx((1.0,), abs=1e-12)


def test_profile_hand_average():
    # cos(n, t1) = 1, cos(n, t2) = 0 -> mean 0.5
    table = table_of(n=[1, 0], t1=[2, 0], t2=[0, 5])
    profile = subgroup_similarity_profile(("n",), ["t1", "t2"], table, "s")
    assert profile.x[0] == pytest.approx(0.5, abs=1e-12)


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
    profile = subgroup_similarity_profile(tuple(neutrals), terms, table_of(**vectors), "s")

    def cosine(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    expected = [
        sum(cosine(vectors[n], vectors[t]) for t in terms) / n_terms for n in neutrals
    ]
    assert profile.x == pytest.approx(expected, rel=0, abs=1e-12)


def test_profile_all_oov_error():
    table = table_of(n=[1, 0])
    with pytest.raises(EmbeddingError, match="no in-vocabulary subgroup terms"):
        subgroup_similarity_profile(("n",), ["ghost", "void"], table, "s")


def test_profile_oov_neutral_dropped():
    table = table_of(n1=[1, 0], t=[1, 0])
    profile = subgroup_similarity_profile(("n1", "missing"), ["t"], table, "s")
    assert profile.covered_neutral_terms == ("n1",)


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
