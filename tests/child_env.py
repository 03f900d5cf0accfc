"""Environment for `python -m superext.cli` child processes.

The CLI tests start children in other working directories (the golden
inputs, temporary directories), where a relative `PYTHONPATH=src` does
not resolve.  Every child therefore gets the absolute `src` path of this
checkout first on its `PYTHONPATH`, found from this file's location.
"""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env(**extra: str) -> dict[str, str]:
    """A copy of the environment with `src` first on PYTHONPATH, plus `extra`."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env
