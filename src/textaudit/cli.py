"""Command line entry point.

`textaudit audit --config audit.json --out results/` runs the full audit;
every assessment is also its own subcommand so an assessor can iterate on
one axis at a time. Flags override the matching config fields. Exit codes:
0 success, 1 configuration error, 2 at least one section failed.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import ConfigError
from .modeliface import ADAPTER_KINDS
from .report import AuditConfig, read_json, run_audit, set_path

# Each subcommand's sections and help text; audit runs the config's sections.
COMMANDS = {
    "audit": (None, "run the config's sections (by default every assessment)"),
    "perf": (["performance"], "technical performance report"),
    "data-bias": (["data_bias"], "identity-term and subgroup-reference frequency tables"),
    "embed-bias": (["embedding_bias"], "embedding-bias AMAE/ARMSE"),
    "class-bias": (
        ["subgroup_stats", "fairness_metrics"],
        "subgroup probability statistics and fairness metrics",
    ),
    "swap": (["swap_favor"], "swapped-identity favor analysis"),
    "counterfactual": (["counterfactual"], "counterfactual templates and CB score"),
    "explain-local": (["explanations"], "local surrogate explanations"),
    "explain-global": (["explanations"], "global token importance"),
    "emissions": (["emissions"], "training emissions estimate"),
}


def _names(text: str) -> list[str] | None:
    """A comma-separated list; an empty value leaves the config's list as it is."""
    return [name.strip() for name in text.split(",") if name.strip()] if text else None


# (flag, dotted config key it overrides, argparse options)
_FLAGS = (
    ("--out", "output_dir", {"help": "output directory for report.json/report.md/CSVs"}),
    ("--dataset", "dataset.path", {"help": "labeled comments file"}),
    ("--dataset-format", "dataset.format", {"choices": ["csv", "jsonl"]}),
    ("--lexicon", "lexicon", {"help": "attribute lexicon JSON (default: built-in)"}),
    ("--gazetteer", "gazetteer", {"help": "gazetteer JSON (default: built-in)"}),
    ("--neutral-words", "neutral_words", {"help": "neutral word list (default: built-in)"}),
    ("--identity-terms", "identity_terms", {"help": "identity term list (default: built-in)"}),
    ("--templates", "templates", {"help": "counterfactual template JSON (default: built-in)"}),
    ("--embeddings", "embeddings", {"help": "embedding text file"}),
    ("--adapter-kind", "adapter.kind", {"choices": ADAPTER_KINDS}),
    ("--adapter-location", "adapter.location", {"help": "path, command line, or base URL"}),
    ("--batch-size", "adapter.batch_size", {"type": int}),
    ("--timeout", "adapter.timeout", {"type": float}),
    ("--max-retries", "adapter.max_retries", {"type": int}),
    ("--threshold", "threshold", {"type": float}),
    (
        "--attributes",
        "attributes",
        {"type": _names, "help": "comma-separated protected attributes"},
    ),
    ("--seed", "rng_seed", {"type": int, "dest": "rng_seed"}),
    ("--swap-attribute", "swap.attribute", {}),
    ("--swap-a", "swap.sub_a", {}),
    ("--swap-b", "swap.sub_b", {}),
    ("--rounding-decimals", "swap.rounding_decimals", {"type": int}),
    ("--fair-attribute", "fairness.attribute", {}),
    ("--reference", "fairness.reference", {}),
    ("--protected", "fairness.protected", {}),
    ("--method", "explanation.method", {"choices": ["occlusion", "sampled_shapley"]}),
    ("--n-samples", "explanation.n_samples", {"type": int}),
    ("--kernel-width", "explanation.kernel_width", {"type": float}),
    ("--l2-lambda", "explanation.l2_lambda", {"type": float}),
    ("--m-permutations", "explanation.m_permutations", {"type": int}),
    ("--max-tokens-per-comment", "explanation.max_tokens_per_comment", {"type": int}),
    (
        "--comment-id",
        "explanation.local_comment_ids",
        {"action": "append", "help": "comment to explain locally (repeatable)"},
    ),
    ("--power-draw-kw", "emissions.power_draw_kw", {"type": float}),
    ("--hours", "emissions.hours", {"type": float}),
    ("--pue", "emissions.pue", {"type": float}),
    ("--carbon-intensity", "emissions.carbon_intensity_kg_per_kwh", {"type": float}),
)


def build_config(args: argparse.Namespace) -> AuditConfig:
    data = read_json(args.config) if args.config else {}
    if isinstance(data.get("dataset"), str):  # so --dataset-format keeps the path
        data["dataset"] = {"path": data["dataset"]}
    for flag, key, options in _FLAGS:
        value = getattr(args, options.get("dest", flag[2:].replace("-", "_")))
        if value is not None:
            set_path(data, key, value)
    sections = COMMANDS[args.command][0]
    if sections is not None:
        data["sections"] = sections
    if args.command.startswith("explain-"):
        set_path(data, "explanation.mode", args.command.removeprefix("explain-"))
    return AuditConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    invoked = argv[0] if argv else None
    parser = argparse.ArgumentParser(
        prog="textaudit",
        description="Black-box fairness and explainability audit for binary text classifiers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        # Only the command named first parses flags, so only it needs them registered.
        if command == invoked:
            sub.add_argument("--config", help="JSON config file (flags override its fields)")
            for flag, _, options in _FLAGS:
                sub.add_argument(flag, **options)

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        report = run_audit(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    for name, section in report.sections.items():
        status = section["status"]
        detail = section.get("reason") or section.get("error") or ""
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {status}{suffix}")
    if config.output_dir:
        print(f"report written to {config.output_dir}/report.json")
    return 2 if report.any_failed else 0


def run() -> int:
    """The console script: :func:`main` on the process's arguments, then the exit.

    Once the outputs are written nothing else is allocated, so the heap is
    frozen: the interpreter's final collection then skips the audit's objects.
    Not in :func:`main`, which callers run in-process and keep running after.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
