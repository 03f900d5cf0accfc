"""Benchmark for superext: one workload per process, closed loop, one op in flight.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      # every workload, one process each

Workloads (see BENCHMARK.json for why each exists):
    cli_golden          the 25 golden CLI cases as `python -m superext.cli` subprocesses
    cohomology_ladder   cohomology_space at rising degree on relabelled algebras
    extension_pipeline  classify_extensions / pullback_extension on relabelled kernels

Every op's output is checked; a wrong output, wrong exit code or exception
counts as a failed op.  The last stdout line is one JSON object: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (spans recorded by perfbench/spans.py, written to .bench_out/).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from statistics import median, quantiles  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden")
CASES_FILE = os.path.join(ROOT, "tests", "cli_cases.py")
CLI_CASE = os.path.join(ROOT, "perfbench", "cli_case.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cli_golden", "cohomology_ladder", "extension_pipeline")
SETUP_REPEATS = 3
# Inputs for at most this many passes are generated (and validated) in
# set-up, so set-up work does not depend on how fast the ops run.  A 36 s
# run holds about 5 ladder passes and about 14 pipeline passes.  The
# untraced half of a traced run stops after half of these.
MAX_PASSES = {"cli_golden": 6, "cohomology_ladder": 6, "extension_pipeline": 30}
START_SAMPLES = 5


class SetupError(RuntimeError):
    pass


def child_env() -> dict:
    """Environment for every child: absolute src path, no arity-cap override."""
    env = dict(os.environ)
    env.pop("SUPEREXT_ARITY_CAP", None)
    env["PYTHONPATH"] = SRC
    return env


# --- workloads -------------------------------------------------------------
#
# A workload's setup(seed, expected) returns a function pass_ops(p, traced)
# giving pass p's op list: (label, run, check) triples, where run() does the
# timed work and check(result) returns None or a failure reason.

def cli_golden_setup(seed, expected_dir=None):
    cases = runpy.run_path(CASES_FILE)["CASES"]
    expected_dir = expected_dir or os.path.join(GOLDEN, "expected")
    inputs = os.path.join(GOLDEN, "inputs")
    expected = {}
    for name, argv, code in cases:
        with open(os.path.join(expected_dir, f"{name}.out"), "rb") as fh:
            expected[name] = (fh.read(), code)
    env = child_env()
    warm = subprocess.run([sys.executable, "-m", "superext.cli", "--version"], cwd=inputs,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=60)
    if warm.returncode != 0:
        raise SetupError("python -m superext.cli --version failed")
    rng = random.Random(seed)
    span_dir = os.path.join(OUT_DIR, f"cli_golden-seed{seed}")

    def op(name, argv, traced, k):
        cmd = [sys.executable, "-m", "superext.cli", *argv]
        if traced:
            cmd = [sys.executable, CLI_CASE, os.path.join(span_dir, f"{k:05d}.jsonl"), *argv]

        def run():
            return subprocess.run(cmd, cwd=inputs, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=120)

        def check(proc):
            want_out, want_code = expected[name]
            if proc.returncode != want_code:
                return f"exit code {proc.returncode}, expected {want_code}"
            if proc.stdout != want_out:
                return "stdout differs from the golden output"
            return None

        return (name, run, check)

    def pass_ops(p, traced):
        order = list(cases)
        rng.shuffle(order)
        return [op(name, argv, traced, p * len(order) + i)
                for i, (name, argv, _code) in enumerate(order)]

    return pass_ops


def cohomology_ladder_setup(seed, expected=None):
    import inputs
    from superext import cohomology
    from superext.superlie import validate_algebra

    expected = expected or inputs.LADDER_EXPECTED
    rng, tags = random.Random(seed), itertools.count()
    bases = {b: inputs.BASES[b]() for b, _m, _d in inputs.LADDER_SERIES}

    def fresh(base, module):
        alg = inputs.relabel(bases[base], rng, next(tags))
        if not validate_algebra(alg).ok:
            raise SetupError(f"relabelled {base} fails validate_algebra")
        return alg, inputs.MODULES[module](alg)

    warm_alg, warm_mod = fresh("osp12", "trivial")
    cohomology.cohomology_space(warm_alg, warm_mod, 1)
    passes = [[(rung, *fresh(rung[0], rung[1])) for rung in inputs.ladder_rungs()]
              for _ in range(MAX_PASSES["cohomology_ladder"])]

    def op(rung, alg, mod, cocycles):
        base, module, n = rung

        def run():
            return cohomology.cohomology_space(alg, mod, n)

        def check(rep):
            dims = (rep.weight(0).dim, rep.weight(1).dim)
            if dims != expected[rung]:
                return f"dim H^{n} by weight {dims}, expected {expected[rung]}"
            if base == "osp12" and module == "trivial" and \
                    rep.total_dim != inputs.FUKS_OSP12_TRIVIAL[n]:
                return f"dim H^{n}(osp(1|2)) = {rep.total_dim}, literature value differs"
            # dim B^n = dim C^{n-1} - dim Z^{n-1}, with Z^{n-1} from this pass's previous rung
            prev = cocycles.get((base, module, n - 1))
            for y in (0, 1) if prev is not None else ():
                c_prev = inputs.cochain_dim(alg.space.dim_even, alg.space.dim_odd, n - 1,
                                            mod.space.parities, y)
                if rep.weight(y).dim_coboundaries != c_prev - prev[y]:
                    return f"rank-nullity fails between degrees {n - 1} and {n}, weight {y}"
            cocycles[rung] = tuple(rep.weight(y).dim_cocycles for y in (0, 1))
            return None

        return (f"{base}/{module}/H^{n}", run, check)

    def pass_ops(p, traced):
        if p >= len(passes):
            return None
        cocycles = {}
        return [op(rung, alg, mod, cocycles) for rung, alg, mod in passes[p]]

    return pass_ops


def extension_pipeline_setup(seed, expected=None):
    import inputs
    from superext import cohomology, extensions, superlie
    from superext.gvs import GradedLinearMap

    expected = expected or inputs.PIPELINE_EXPECTED
    rng, tags = random.Random(seed), itertools.count()
    g = inputs.quotient_algebra()
    bases = {h: inputs.BASES[h]() for _k, h in inputs.PIPELINE_CASES}

    def fresh(base):
        alg = inputs.relabel(bases[base], rng, next(tags))
        if not superlie.validate_algebra(alg).ok:
            raise SetupError(f"relabelled {base} fails validate_algebra")
        return alg

    superlie.out_quotient(fresh("sl2"))
    passes = [[(case, fresh(case[1])) for case in inputs.PIPELINE_CASES]
              for _ in range(MAX_PASSES["extension_pipeline"])]

    def op(case, h):
        kind, base = case

        def run():
            out_alg, _proj = superlie.out_quotient(h)
            if kind == "classify-out":
                return cohomology.classify_extensions(
                    h, out_alg, GradedLinearMap.identity_map(out_alg.space))
            abar = GradedLinearMap.zero(g.space, out_alg.space, 0)
            if kind == "classify-zero":
                return cohomology.classify_extensions(h, g, abar)
            return extensions.pullback_extension(h, g, abar)

        def check(res):
            if kind == "pullback":
                if not superlie.validate_algebra(res.e).ok:
                    return "pullback algebra fails validate_algebra"
                if res.e.dim != h.dim + g.dim:
                    return f"pullback has dimension {res.e.dim}, expected {h.dim + g.dim}"
                return None
            vanishes, h2_dim = expected[case]
            if res.obstruction.vanishes != vanishes:
                return f"obstruction vanishes = {res.obstruction.vanishes}, expected {vanishes}"
            if not vanishes:
                return None
            if res.h2.weight(0).dim != h2_dim:
                return f"dim H^2 weight 0 = {res.h2.weight(0).dim}, expected {h2_dim}"
            if len(res.data) != 1 + h2_dim:
                return f"{len(res.data)} data emitted, expected {1 + h2_dim}"
            if not all(extensions.check_datum(d).ok for d in res.data):
                return "an emitted datum fails check_datum"
            return None

        return (f"{kind}/{base}", run, check)

    def pass_ops(p, traced):
        return None if p >= len(passes) else [op(case, h) for case, h in passes[p]]

    return pass_ops


SETUPS = {
    "cli_golden": cli_golden_setup,
    "cohomology_ladder": cohomology_ladder_setup,
    "extension_pipeline": extension_pipeline_setup,
}


def import_program(workload):
    """Import what the workload's process uses, before set-up is timed."""
    if workload != "cli_golden":
        import inputs  # noqa: F401
        import superext.cli  # noqa: F401


# --- measurement -----------------------------------------------------------

class Tally:
    """Op times by op label, over the passes of one run.

    On a shared machine, noise can move a fixed computation by tens of
    percent for seconds at a time, and a run holds only a few passes of a
    few very different ops.  So each op of the fixed list is represented
    by its median over the passes; `pass_s` sums those medians and the op
    percentiles are taken over them.  Unlike percentiles of the raw samples, these do not
    jump from one op kind to another when the number of passes changes.
    """

    def __init__(self):
        self.op_s: dict[str, list[float]] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def op_medians_ms(self) -> list[float]:
        return sorted(median(ts) * 1e3 for ts in self.op_s.values())

    def pass_s(self) -> float:
        return sum(self.op_medians_ms()) / 1e3


def run_passes(pass_ops, seconds, tally, first_pass=0, stop_pass=None, traced=False,
               recorder=None):
    """Run whole passes until the next one would end after `seconds`.

    The pass time is the sum of its op times; checks run outside them.
    Returns the index of the next unused pass.
    """
    t0 = time.perf_counter()
    p = first_pass
    own: list[float] = []
    while True:
        if own and time.perf_counter() - t0 + median(own) > seconds or p == stop_pass:
            break
        ops = pass_ops(p, traced)
        if ops is None:
            break
        total = 0.0
        for label, run, check in ops:
            if recorder is not None:
                recorder.op = tally.attempted
            t = time.perf_counter()
            try:
                result, err = run(), None
            except Exception as ex:  # a crashing op is a failed op, not a crashed run
                result, err = None, f"{type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t
            if recorder is not None:
                recorder.op = -1
            if err is None:
                try:
                    err = check(result)
                except Exception as ex:
                    err = f"check raised {type(ex).__name__}: {ex}"
            tally.attempted += 1
            if err is not None:
                tally.failed += 1
                print(f"FAILED {label}: {err}", file=sys.stderr)
            tally.op_s.setdefault(label, []).append(dt)
            total += dt
        tally.passes += 1
        own.append(total)
        p += 1
    return p


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_golden" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, setup_s, tally):
    ops = tally.op_medians_ms()
    p90 = quantiles(ops, n=10)[8]
    samples = f"{len(ops)} op medians of {tally.passes} passes"
    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        ("pass_s", tally.pass_s(), "s", f"sum of {samples}"),
        ("op_ms.p50", median(ops), "ms", samples),
        ("op_ms.p90", p90, "ms", f"{samples}, {sum(x > p90 for x in ops)} beyond"),
        ("peak_rss_mb", peak_rss_mb(workload), "MB", "max over children"
         if workload == "cli_golden" else "this process"),
    ]
    return rows


def subprocess_ms(cmd, repeats, parse_stdout=False):
    """Median wall time (or reported time) of a child command, in ms."""
    env, times = child_env(), []
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=60, check=True)
    for _ in range(repeats):
        t = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=60,
                             check=True).stdout
        wall = time.perf_counter() - t
        times.append((float(out) if parse_stdout else wall) * 1e3)
    return median(times)


def traced_run(workload, seed, pass_ops, seconds, tally):
    """Untraced passes for half the time, then traced passes; returns per-layer rows."""
    import spans

    untraced = Tally()
    p = run_passes(pass_ops, seconds / 2, untraced, stop_pass=MAX_PASSES[workload] // 2)
    run_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    recorder = None
    if workload != "cli_golden":
        recorder = spans.Recorder()
        spans.instrument(recorder)
    run_passes(pass_ops, seconds / 2, tally, first_pass=p, traced=True, recorder=recorder)
    if recorder is not None:
        spans.write_jsonl(recorder.spans, os.path.join(run_dir, "spans.jsonl"))
        records = [recorder.spans]
    else:
        records = [spans.read_jsonl(os.path.join(run_dir, f))
                   for f in sorted(os.listdir(run_dir))]
    agg = {}
    for recs in records:
        spans.reduce_spans(recs, agg)
    import_ms = subprocess_ms([sys.executable, "-c", "import time; t = time.perf_counter(); "
                               "import superext.cli; print(time.perf_counter() - t)"],
                              START_SAMPLES, parse_stdout=True)
    bare_ms = subprocess_ms([sys.executable, "-c", "pass"], START_SAMPLES)
    if workload == "cli_golden":
        print(f"# untraced op p50 {median(untraced.op_medians_ms()):.1f} ms, of which "
              f"interpreter start {bare_ms:.1f} ms + import {import_ms:.1f} ms")
    rows = per_layer(agg, tally.attempted, tally.pass_s() / untraced.pass_s(), import_ms,
                     bare_ms)
    tally.attempted += untraced.attempted
    tally.failed += untraced.failed
    return rows


def per_layer(agg, n_ops, overhead_ratio, import_ms, bare_ms):
    def get(name, key="calls"):
        return agg.get(name, {}).get(key, 0)

    def self_sum(pred):
        return sum(e["self_s"] for name, e in agg.items() if pred(name))

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: self_sum(lambda n, pre=layer + ".": n.startswith(pre))
                  for layer in ("cli", "formats", "superlie", "gvs", "cochains",
                                "cohomology", "extensions")}
    total = sum(layer_self.values())
    rows = [
        ("cli.main.self_s", layer_self["cli"], "s"),
        ("cli.import_ms", import_ms, "ms"),
        ("proc.bare_start_ms", bare_ms, "ms"),
        ("formats.parse.self_s",
         self_sum(lambda n: n.startswith("formats.parse") or n == "formats.load_json"), "s"),
        ("formats.emit.self_s",
         self_sum(lambda n: n.startswith("formats.format") or n == "formats.dump_json"), "s"),
        ("formats.emit.bytes", get("formats.dump_json", "bytes"), "B"),
    ]
    for name in ("superlie.derivations", "superlie.out_quotient", "gvs.rref",
                 "gvs.solve_linear", "gvs.mat_mul", "cochains.covariant_delta",
                 "cohomology.delta_matrix", "extensions.check_datum",
                 "extensions.build_extension", "extensions.pullback_extension"):
        rows += [(f"{name}.calls", get(name), "count"),
                 (f"{name}.self_s", get(name, "self_s"), "s")]
    for name in ("superlie.derivation_algebra", "superlie.validate_algebra",
                 "cohomology.cohomology_space", "cohomology.center_module",
                 "cohomology.lift_alpha_bar", "cohomology.rho_from_lift",
                 "cohomology.obstruction_class"):
        rows.append((f"{name}.self_s", get(name, "self_s"), "s"))
    rows += [
        ("superlie.out_quotient.calls_per_op", ratio(get("superlie.out_quotient"), n_ops), "count"),
        ("superlie.out_quotient.total_s", get("superlie.out_quotient", "total_s"), "s"),
        ("gvs.rref.cells", get("gvs.rref", "cells"), "count"),
        ("gvs.rref.rank_ratio", ratio(get("gvs.rref", "rank"), get("gvs.rref", "rows")), "ratio"),
        ("gvs.rref.max_bits", get("gvs.rref", "max_bits"), "bit"),
        ("gvs.IncrementalSpan.add.accept_ratio",
         ratio(get("gvs.IncrementalSpan.add", "accepted"), get("gvs.IncrementalSpan.add")),
         "ratio"),
        ("cochains.make_cochain.calls", get("cochains.make_cochain"), "count"),
        ("cochains.dim_C", get("cohomology.cohomology_space", "dim_C"), "count"),
        ("cohomology.delta_matrix.cells", get("cohomology.delta_matrix", "cells"), "count"),
        ("cohomology.delta_matrix.nnz", get("cohomology.delta_matrix", "nnz"), "count"),
        ("cohomology.delta_matrix.density",
         ratio(get("cohomology.delta_matrix", "nnz"), get("cohomology.delta_matrix", "cells")),
         "ratio"),
    ]
    rows += [(f"{layer}.self_share", ratio(s, total), "ratio") for layer, s in layer_self.items()]
    rows.append(("trace.overhead_ratio", overhead_ratio, "ratio"))
    kernel = layer_self["cochains"] + get("cohomology.delta_matrix", "self_s") \
        + get("gvs.rref", "self_s")
    print(f"# traced {n_ops} ops; self share of delta_matrix + cochains + gvs.rref "
          f"{ratio(kernel, total):.3f}, of superlie {ratio(layer_self['superlie'], total):.3f}; "
          f"out_quotient with the gvs work it calls "
          f"{ratio(get('superlie.out_quotient', 'total_s'), total):.3f}")
    return [(name, value, unit, "") for name, value, unit in rows]


def report(rows, tally):
    print(f"# {tally.attempted} ops attempted, {tally.failed} failed, "
          f"fail_ratio {tally.failed / tally.attempted:.4f}")
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:14.6f} {unit:6s} {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))


def run_all(args):
    code = 0
    for w in WORKLOADS:
        print(f"## {w}", flush=True)
        res = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], timeout=900)
        code = code or res.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (os.path.join(SRC, "superext", "__init__.py"), CASES_FILE, GOLDEN)
               if not os.path.exists(p)]
    if missing:
        print(f"error: the program is not in this checkout (missing {missing[0]})",
              file=sys.stderr)
        return 2
    os.environ.pop("SUPEREXT_ARITY_CAP", None)
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    import_program(args.workload)
    imported = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        pass_ops = SETUPS[args.workload](args.seed)
        setups.append(time.perf_counter() - t)
    setup_s = imported - T_START + median(setups)

    tally = Tally()
    if args.trace:
        rows = traced_run(args.workload, args.seed, pass_ops, args.seconds, tally)
    else:
        run_passes(pass_ops, args.seconds, tally)
        rows = end_to_end(args.workload, setup_s, tally)
    report(rows, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
