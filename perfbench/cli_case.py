"""Run one CLI case in-process under the span recorder.

Usage: python3 perfbench/cli_case.py SPANS_JSONL ARG...

Runs `superext.cli.main(ARG...)` in the current directory with stdout
captured, writes the captured bytes to stdout unchanged, writes the spans
to SPANS_JSONL and exits with main's return code.  The interpreter is
fresh, so every cache in the library starts empty, as in a real CLI run.
"""

import contextlib
import io
import sys

import spans
import superext.cli

out_path, argv = sys.argv[1], sys.argv[2:]
recorder = spans.Recorder()
spans.instrument(recorder)
recorder.op = 0
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = superext.cli.main(argv)
sys.stdout.write(buf.getvalue())
spans.write_jsonl(recorder.spans, out_path)
sys.exit(code)
