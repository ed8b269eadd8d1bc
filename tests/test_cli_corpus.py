"""Byte identity of the CLI: every argv line of tests/cli_corpus.txt, run in
process, gives the exit code, stdout and stderr whose digest
tests/cli_corpus.sha256 records.

The corpus covers every subcommand, its help, and exits 0, 2 and 3. It names
no file, so --config and --out are left to test_cli.py. After a change that
is meant to move output, rewrite the digests and review the diff:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
from pathlib import Path

from qetsim.cli import SEED_ENV_VAR, main

CORPUS = Path(__file__).with_name("cli_corpus.txt")
DIGESTS = Path(__file__).with_name("cli_corpus.sha256")
# argparse wraps help text to the terminal width it reads from COLUMNS
ENVIRONMENT = {"COLUMNS": "80"}


def corpus_lines() -> list[str]:
    """The corpus's argv lines; blank lines and # comments are skipped."""
    lines = (line.strip() for line in CORPUS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def digest(line: str) -> str:
    """sha256 of [exit code, stdout, stderr] as JSON, from one in-process qet call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(line))
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def recorded() -> dict[str, str]:
    """argv line -> its digest, from lines "<digest>  <argv line>"."""
    entries = (line.split("  ", 1) for line in DIGESTS.read_text().splitlines())
    return {line: hexdigest for hexdigest, line in entries}


def test_corpus_output_is_byte_identical(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    for key, value in ENVIRONMENT.items():
        monkeypatch.setenv(key, value)
    lines, digests = corpus_lines(), recorded()
    assert sorted(digests) == sorted(set(lines)), "the digest file does not match the corpus"
    moved = [line for line in lines if digest(line) != digests[line]]
    assert not moved, f"{len(moved)} of {len(lines)} corpus lines moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    os.environ.update(ENVIRONMENT)
    DIGESTS.write_text("".join(f"{digest(line)}  {line}\n" for line in dict.fromkeys(corpus_lines())))
