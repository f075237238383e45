"""Golden CLI corpus: the bytes `cosmax` prints for a fixed set of invocations.

`cli_golden.json` holds one record per invocation: argv, exit code, and
stdout and stderr as lists of lines.  The value on each `elapsed_s = ...`
line is masked, because it is a wall time.  The test runs each argv through
`cosmax.cli.main` in-process and compares all three outputs.

Run as a script, this module rewrites every record's outputs from the
current code:

    PYTHONPATH=src python tests/test_cli_golden.py

To add a case, add a record holding only its argv and run the script.  A
diff in the corpus is a test change: list each moved record in CHANGES.md
with its old value, new value and reason.  `--help`, argparse usage errors
and `--out` stay out of the corpus; their text depends on the Python
version or on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from cosmax.cli import main

CORPUS = Path(__file__).with_name("cli_golden.json")
ELAPSED = re.compile(r"^elapsed_s = .*$", re.MULTILINE)


def _mask(text: str) -> str:
    return ELAPSED.sub("elapsed_s = <masked>", text)


def run(argv: list[str]) -> dict:
    """argv's record: its exit code and masked outputs from the current code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code,
            "stdout": _mask(out.getvalue()).splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def _dump(records: list[dict]) -> str:
    """The corpus as JSON with argv on one line and one output line per line."""
    def field(key, value):
        text = json.dumps(value, indent=None if key == "argv" else 1)
        return f'  "{key}": ' + text.replace("\n", "\n  ")

    blocks = (" {\n" + ",\n".join(field(k, v) for k, v in rec.items()) + "\n }"
              for rec in records)
    return "[\n" + ",\n".join(blocks) + "\n]\n"


RECORDS = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=["_".join(rec["argv"]) for rec in RECORDS])
def test_cli_golden(record):
    assert run(record["argv"]) == record


def _format(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "plain"


# the first exit-0 record of each (subcommand, format)
OUT_CASES = {}
for rec in RECORDS:
    if rec.get("exit") == 0:
        OUT_CASES.setdefault(f"{rec['argv'][0]}-{_format(rec['argv'])}", rec)


@pytest.mark.parametrize("record", OUT_CASES.values(), ids=list(OUT_CASES))
def test_out_file_holds_the_golden_stdout(record, tmp_path):
    target = tmp_path / "out.txt"
    got = run([*record["argv"], "--out", str(target)])
    assert (got["exit"], got["stdout"]) == (record["exit"], [])
    assert _mask(target.read_bytes().decode("utf-8")) == "".join(record["stdout"])


if __name__ == "__main__":
    CORPUS.write_text(_dump([run(rec["argv"]) for rec in RECORDS]), encoding="utf-8")
