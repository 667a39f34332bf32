import csv
import importlib
import io
import os
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT

import textaudit
from textaudit.databias import FrequencyRow, frequency_table_csv
from textaudit.embedbias import EmbeddingBiasResult, PairGap, embedding_bias_csv
from textaudit.explain import GlobalImportance, ImportanceRow
from textaudit.record import plain
from textaudit.report import AuditConfig


def _record_classes():
    """Every NamedTuple class defined in a textaudit module, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(textaudit.__path__):
        module = importlib.import_module(f"textaudit.{info.name}")
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and value.__module__ == module.__name__
            ):
                found[f"{info.name}.{value.__name__}"] = value
    return found


RECORDS = _record_classes()


def test_every_module_is_walked():
    assert {"corpus.Comment", "corpus.TokenSpan", "report.AuditConfig", "modeliface.ScoringPlan"} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS.values(), ids=RECORDS.keys())
def test_record_is_immutable_and_plain_gives_a_dict(cls):
    # _make skips the class's own checks, which these values would fail
    record = cls._make(f"v{i}" for i in range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    expected = {name: f"v{i}" for i, name in enumerate(cls._fields)}
    if cls is not AuditConfig:  # its to_dict is the config echo, keyed by JSON path
        assert getattr(cls, "to_dict", plain) is plain
    if getattr(cls, "to_dict", None) is plain:
        assert list(record.to_dict()) == list(cls._fields)
        assert record.to_dict() == expected
    outer = cls._make([record, *record[1:]])
    assert plain(outer)[cls._fields[0]] == expected
    assert plain((record, [record])) == [expected, [expected]]


def test_only_records_that_code_or_config_builds_check_themselves():
    # a record built from a loaded file or a model's answer is checked by its reader, naming the line
    assert {name for name, cls in RECORDS.items() if hasattr(cls, "_check")} == {
        "modeliface.AdapterConfig",
        "report.AuditConfig",
        "report.ExplanationSpec",
        "report.SwapSpec",
    }


MUTABLE_DEFAULTS = {
    (AuditConfig, "counterfactual_fills"): lambda: AuditConfig(),
}


def test_mutable_defaults_are_the_listed_ones():
    mutable = {
        (cls, name)
        for cls in RECORDS.values()
        for name, default in cls._field_defaults.items()
        if isinstance(default, (dict, list, set))
    }
    assert mutable == set(MUTABLE_DEFAULTS)


@pytest.mark.parametrize(
    "key", MUTABLE_DEFAULTS, ids=[f"{cls.__name__}.{name}" for cls, name in MUTABLE_DEFAULTS]
)
def test_no_two_records_share_a_mutable_default(key):
    cls, name = key
    make = MUTABLE_DEFAULTS[key]
    first, second = getattr(make(), name), getattr(make(), name)
    assert first == second == cls._field_defaults[name]
    assert first is not second and first is not cls._field_defaults[name]
    for inner in first:  # counterfactual_fills nests a dict of lists per attribute
        assert first[inner] is not second[inner]
    if name == "counterfactual_fills":
        first["gender"]["male"].append("guy")
        assert getattr(make(), name)["gender"]["male"] == ["man"]


def test_cli_import_builds_no_dataclass():
    """No record is built by exec'ing generated methods: dataclasses and inspect stay unloaded.

    Nor is importlib.resources loaded: from Python 3.12 on it imports inspect.
    """
    code = (
        "import sys, textaudit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _frequency_csv(names):
    rows = [FrequencyRow(name, 50.0, 25.0, 100 / 3, 1, 1, 2) for name in names]
    expected = [["Term", "Hateful %", "Not-hateful %", "Overall %"]]
    expected += [[name, "50.0000", "25.0000", "33.3333"] for name in names]
    return frequency_table_csv(rows), expected


def _embedding_bias_csv(names):
    attribute, *subgroups = names
    pairwise = tuple(PairGap(a, b, 0.125, 1 / 3) for a, b in zip(subgroups, subgroups[1:]))
    result = EmbeddingBiasResult(attribute, pairwise, 0.125, 1 / 3, ())
    expected = [["attribute", "subgroup_a", "subgroup_b", "mae", "rmse"]]
    expected += [[attribute, gap.subgroup_a, gap.subgroup_b, "0.125", "0.333333"] for gap in pairwise]
    expected.append([attribute, "ALL", "ALL", "0.125", "0.333333"])
    return embedding_bias_csv([result]), expected


def _global_importance_csv(names):
    rows = tuple(ImportanceRow(name, -0.5, 0.5, 2) for name in names)
    expected = [["token", "mean_effect", "mean_abs_effect", "support"]]
    expected += [[name, "-0.5", "0.5", "2"] for name in names]
    return GlobalImportance(rows, "occlusion", 0).to_csv(), expected


# A name as a lexicon, word list or corpus may give it. Left out: "\r", which
# csv.writer leaves unquoted when the line terminator is "\n", and NUL, which
# csv.reader refuses before Python 3.11.
NAMES = st.lists(
    st.text(
        st.sampled_from(',"\n')
        | st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
        max_size=6,
    ),
    min_size=3,
    max_size=5,
)


@pytest.mark.parametrize("write", [_frequency_csv, _embedding_bias_csv, _global_importance_csv])
@settings(max_examples=200, deadline=None)
@given(names=NAMES)
def test_csv_side_file_reads_back_to_its_fields(write, names):
    text, expected = write(names)
    assert text.endswith("\n")
    assert list(csv.reader(io.StringIO(text, newline=""))) == expected
