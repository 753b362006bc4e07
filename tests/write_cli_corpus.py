"""Rewrite tests/cli_corpus.json from the CLI output of this tree.

    PYTHONPATH=src python tests/write_cli_corpus.py

The file holds the sha256 of every corpus document and of every corpus
invocation's exit code, stdout and stderr (see `conftest.run_cli_corpus`);
`tests/test_cli_corpus.py` replays it.  Rewrite it only when a change means
to alter output, and list the invocations this script reports as changed.
"""

import json
import sys
import tempfile
from pathlib import Path

from conftest import run_cli_corpus

CORPUS = Path(__file__).with_name("cli_corpus.json")


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        documents, invocations = run_cli_corpus(directory)
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {"documents": {}, "invocations": {}}
    for kind, new in (("documents", documents), ("invocations", invocations)):
        for key in sorted(set(old[kind]) | set(new)):
            if old[kind].get(key) != new.get(key):
                print(f"changed {kind[:-1]}: {key}")
    CORPUS.write_text(json.dumps({"documents": documents, "invocations": invocations}, indent=1, sort_keys=True) + "\n")
    print(f"{len(documents)} documents, {len(invocations)} invocations written to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
