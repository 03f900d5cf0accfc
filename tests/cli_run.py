"""Two ways to run the CLI from the tests: in-process and as a child process.

`run_cli` calls `superext.cli.main(argv)` in this interpreter: it changes
to `cwd` for the call, captures stdout as the bytes a child process would
write and stderr likewise, and takes the code of a `SystemExit` (argparse's
usage errors, `--version`) as the exit code.  `main` holds no state
between calls, so the calls are independent.

`run_cli_process` starts `python -m superext.cli` instead, for the few
tests that cover the process boundary.  Children run in other working
directories, where a relative `PYTHONPATH=src` does not resolve, so each
child gets the absolute `src` path of this checkout first on its
`PYTHONPATH`.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from superext import cli

SRC = Path(__file__).resolve().parent.parent / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


class Run(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes


def run_cli(argv, cwd=INPUTS) -> Run:
    out, err = io.BytesIO(), io.StringIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n", write_through=True)
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as ex:
                code = 0 if ex.code is None else ex.code
    finally:
        os.chdir(home)
    stdout.detach()
    return Run(code, out.getvalue(), err.getvalue().encode())


def run_cli_process(argv, cwd=INPUTS, **extra_env: str) -> Run:
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-m", "superext.cli"] + list(argv),
                       cwd=cwd, capture_output=True, env=env)
    return Run(r.returncode, r.stdout, r.stderr)
