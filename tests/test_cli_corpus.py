"""Byte identity of the CLI: every argv line of tests/cli_corpus.txt, run in
process, gives the exit code, stdout and stderr whose digest
tests/cli_corpus.sha256 records.

The corpus covers every subcommand, its help, and exits 0, 2 and 3. It names
no file, so --config and --out are left to test_cli.py. After a change that
is meant to move output, rewrite the digests and review the diff:

    PYTHONPATH=src python tests/test_cli_corpus.py

The corpus also replays with numpy unimportable, in a child interpreter: each
line that finishes without numpy must give its recorded digest. On an
interpreter that has no numpy, the same replay is

    PYTHONPATH=src python tests/test_cli_corpus.py --without-numpy

On x86, the sweep and evolve lines replay once more in a child interpreter at
numpy's baseline dispatch (NPY_ENABLE_CPU_FEATURES=X86_V2), without its AVX2
and AVX-512 kernels, as

    NPY_ENABLE_CPU_FEATURES=X86_V2 PYTHONPATH=src python tests/test_cli_corpus.py --exact
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qetsim
from qetsim.cli import SEED_ENV_VAR, main

CORPUS = Path(__file__).with_name("cli_corpus.txt")
DIGESTS = Path(__file__).with_name("cli_corpus.sha256")
# argparse wraps help text to the terminal width it reads from COLUMNS
ENVIRONMENT = {"COLUMNS": "80"}
# corpus lines that finish without numpy: help, and the usage and configuration
# errors found before anything is computed
FINISH_WITHOUT_NUMPY = 74
# the subcommands whose numbers come from numpy's array kernels
EXACT_COMMANDS = ("sweep", "evolve")
EXACT_LINES = 45


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


def replay_without_numpy() -> tuple[int, int, list[str]]:
    """(lines that finish, lines, finished lines that moved), with numpy made
    unimportable in this interpreter: a line that needs it raises ImportError."""
    sys.modules["numpy"] = None
    lines, digests, finished, moved = corpus_lines(), recorded(), 0, []
    for line in lines:
        try:
            hexdigest = digest(line)
        except ImportError:
            continue
        finished += 1
        if hexdigest != digests[line]:
            moved.append(line)
    return finished, len(lines), moved


def replay_exact() -> tuple[int, list[str]]:
    """(sweep and evolve lines, those that moved), replayed in this interpreter."""
    digests = recorded()
    lines = [line for line in corpus_lines() if line.split()[0] in EXACT_COMMANDS]
    return len(lines), [line for line in lines if digest(line) != digests[line]]


def replay_in_child(flag: str, **env: str) -> str:
    """stdout of this file run with flag in a child interpreter, which must exit 0."""
    src = str(Path(qetsim.__file__).resolve().parents[1])
    env = {**os.environ, **ENVIRONMENT, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop(SEED_ENV_VAR, None)
    out = subprocess.run([sys.executable, __file__, flag], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


def test_corpus_lines_without_numpy_are_byte_identical():
    stdout = replay_in_child("--without-numpy")
    assert int(stdout.split()[0]) >= FINISH_WITHOUT_NUMPY, stdout


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="X86_V2 names an x86 dispatch level")
def test_exact_lines_at_baseline_dispatch_are_byte_identical():
    # the kernels numpy dispatches (sin, hypot, arctan2, exp) may round otherwise
    # on AVX2 and AVX-512; the child reports the float64 sin it runs
    stdout = replay_in_child("--exact", NPY_ENABLE_CPU_FEATURES="X86_V2")
    head = f"{EXACT_LINES} sweep and evolve lines, float64 sin at baseline(X86_V2), "
    assert stdout.startswith(head), stdout


if __name__ == "__main__":
    os.environ.pop(SEED_ENV_VAR, None)
    os.environ.update(ENVIRONMENT)
    if sys.argv[1:] == ["--without-numpy"]:
        finished, total, moved = replay_without_numpy()
        print(f"{finished} of {total} lines finished without numpy, "
              f"{finished - len(moved)} of them byte-identical", *moved, sep="\n")
        sys.exit(1 if moved else 0)
    if sys.argv[1:] == ["--exact"]:
        from numpy.lib.introspect import opt_func_info

        total, moved = replay_exact()
        sin = opt_func_info(func_name="^sin$", signature="float64")["sin"]["dd"]["current"]
        print(f"{total} sweep and evolve lines, float64 sin at {sin}, "
              f"{total - len(moved)} of them byte-identical", *moved, sep="\n")
        sys.exit(1 if moved else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--without-numpy | --exact]")
    DIGESTS.write_text("".join(f"{digest(line)}  {line}\n" for line in dict.fromkeys(corpus_lines())))
