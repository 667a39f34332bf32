#!/usr/bin/env python3
"""What a fresh interpreter pays before the first audit section runs.

Usage: ``python3 auditbench/setup_probe.py <config path>``

Imports ``textaudit.cli`` and calls the public loaders an audit of this
config calls before its sections: the config, the dataset, the lexicon and
gazetteer and, for a predictions-file adapter, the predictions. The caller
times the whole process, interpreter start included.
"""

import sys

from textaudit import cli  # noqa: F401
from textaudit.corpus import load_dataset
from textaudit.lexicon import default_gazetteer, default_lexicon, load_gazetteer, load_lexicon
from textaudit.modeliface import load_predictions
from textaudit.report import load_config


def main(config_path: str) -> int:
    config = load_config(config_path)
    corpus = load_dataset(config.dataset_path, config.dataset_format)
    load_lexicon(config.lexicon_path) if config.lexicon_path else default_lexicon()
    load_gazetteer(config.gazetteer_path) if config.gazetteer_path else default_gazetteer()
    if config.adapter is not None and config.adapter.kind == "predictions_file":
        load_predictions(config.adapter.location, corpus)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
