"""Run a Python snippet in a fresh interpreter on the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import nonkissing

SRC = str(Path(nonkissing.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


def run_python(script: str, *flags: str) -> list[str]:
    """The words `python -B *flags -c script` prints, e.g. flags "-O".

    The caller's environment is kept, with the package's source directory and
    this tests directory, which holds `oracles`, as PYTHONPATH; -B writes no
    bytecode caches into the source tree.
    """
    out = subprocess.run(
        [sys.executable, "-B", *flags, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((SRC, TESTS))},
        check=True,
    )
    return out.stdout.split()
