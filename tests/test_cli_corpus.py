"""Byte identity of the CLI: every corpus invocation prints what tests/cli_corpus.json recorded.

The corpus (`conftest.corpus_documents`, `conftest.corpus_invocations`)
covers `catalog`, `validate`, `report` plain, with `--oracle`, `--pretty`
and `--randomize-basis --seed 3`, and `check` on the builtin suite, with
`--prime 2/3/5/7` and on a directory.  `tests/write_cli_corpus.py`
rewrites the file when a change means to alter output.
"""

import json
from pathlib import Path

from conftest import run_cli_corpus


def _changed(recorded: dict, now: dict) -> list[str]:
    return sorted(key for key in set(recorded) | set(now) if recorded.get(key) != now.get(key))


def test_cli_output_matches_the_recorded_corpus(tmp_path, capsys):
    recorded = json.loads(Path(__file__).with_name("cli_corpus.json").read_text())
    documents, invocations = run_cli_corpus(tmp_path)
    assert capsys.readouterr() == ("", "")  # every byte went to the digests
    assert _changed(recorded["documents"], documents) == []
    assert _changed(recorded["invocations"], invocations) == []
