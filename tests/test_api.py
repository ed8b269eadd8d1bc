"""The package's top level: the README's Python example and the modules a bare
`import qetsim` binds."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import qetsim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = ("analysis", "model", "noise", "protocol", "simcore")


def test_readme_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    exec(example, {})
    values = [float(word) for word in capsys.readouterr().out.split()]
    assert len(values) == 3
    assert all(math.isfinite(v) for v in values)


def test_import_binds_the_modules():
    # in this process the tests' own submodule imports bind them, so ask a
    # fresh interpreter
    src = str(Path(qetsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import qetsim; print(all(hasattr(qetsim, m) for m in {MODULES!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
