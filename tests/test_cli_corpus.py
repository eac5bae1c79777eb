"""The recorded command corpus replays byte for byte through `cli.run`.

`perfbench/cli_corpus.jsonl` holds, per line, a command's arguments, its
stdin (for `query`), its exit code and its stdout bytes.  The replay is
in-process and only reads the corpus.
"""

import io
import json
from pathlib import Path

from gl3weights.cli import run

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "cli_corpus.jsonl"


def test_corpus_replays_byte_for_byte(capsys):
    entries = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(entries) == 169
    differ = []
    for entry in entries:
        stdin = None if entry["stdin"] is None else io.StringIO(entry["stdin"])
        code = run(list(entry["args"]), stdin=stdin)
        if (code, capsys.readouterr().out) != (entry["exit"], entry["stdout"]):
            differ.append(entry["args"])
    assert differ == []
