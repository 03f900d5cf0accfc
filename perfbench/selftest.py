"""Show that the benchmark's output checks catch defects.

Usage: python3 perfbench/selftest.py

Runs one pass of cli_golden against a temporary copy of the golden
outputs with one byte flipped, and one pass of cohomology_ladder against
an expected-dimension table with one entry off by one.  Each must register
exactly one failed op; the exit code is 0 only if both do.
"""

import os
import shutil
import sys
import tempfile

import run


def one_pass(pass_ops) -> run.Tally:
    tally = run.Tally()
    run.run_passes(pass_ops, 0, tally, stop_pass=1)
    return tally


def corrupted_golden(seed: int) -> run.Tally:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        expected = os.path.join(tmp, "expected")
        shutil.copytree(os.path.join(run.GOLDEN, "expected"), expected)
        victim = os.path.join(expected, "classify.out")
        with open(victim, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 0x01
        with open(victim, "wb") as fh:
            fh.write(data)
        return one_pass(run.cli_golden_setup(seed, expected_dir=expected))
    finally:
        shutil.rmtree(tmp)


def wrong_ladder_entry(seed: int) -> run.Tally:
    import inputs

    table = dict(inputs.LADDER_EXPECTED)
    rung = ("gl11", "adjoint", 2)
    h0, h1 = table[rung]
    table[rung] = (h0 + 1, h1)
    return one_pass(run.cohomology_ladder_setup(seed, expected=table))


def main() -> int:
    sys.path.insert(0, run.SRC)
    os.environ.pop("SUPEREXT_ARITY_CAP", None)
    ok = True
    for name, probe in (("golden output with one byte flipped", corrupted_golden),
                        ("ladder table entry off by one", wrong_ladder_entry)):
        tally = probe(seed=7)
        caught = tally.failed == 1
        ok = ok and caught
        print(f"{'PASS' if caught else 'FAIL'}: {name}: "
              f"{tally.failed} of {tally.attempted} ops failed (expected 1)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
