"""The committed CLI byte corpus (tests/cli_corpus.json) replayed in-process.

tests/cli_corpus.py holds the invocation list and rewrites the file; this
test only reads it.
"""

import json

from cli_corpus import CASES, CORPUS, run


def test_cli_corpus_bytes(tmp_path):
    with open(CORPUS, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    assert [case["argv"] for case in cases] == [list(argv) for argv in CASES]
    # in order, in one directory: gen writes what solve and z read
    got = [run(case["argv"], str(tmp_path)) for case in cases]
    changed = [" ".join(case["argv"]) for case, now in zip(cases, got) if now != case]
    assert not changed, changed
