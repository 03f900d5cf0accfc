"""The mutation catalog: each entry breaks the library in one place, and its tests must notice.

Run it from anywhere as `python tests/mutants.py [NAME ...]`: with names it
runs only those entries, an unknown name exits 2, and `--help` prints the
usage; pytest does not collect it.  Each entry names a file under
`src/superext`, a snippet that must occur exactly once there (a stale entry
fails loudly, here and in the fast suite's `tests/test_source.py`), its
replacement, and the test files expected to kill it.  The script copies
`src/`, `tests/` and `pyproject.toml` into one temporary tree per worker, one
worker per usable CPU at most, checks that an unmutated copy passes every
target, then runs the mutants in parallel: a worker applies one mutant to
its own tree, runs `pytest -x -q -p no:cacheprovider <targets>` there and
restores the file.  Results print in catalog order.  It exits 1 if any mutant survives, naming
it.  Hypothesis runs derandomized (`CI=1`, see `conftest.py`), so a kill
does not depend on the draw.

Known equivalent mutants are not entries; they are listed in EQUIVALENT
with the reason they change no result.
"""

from __future__ import annotations

import argparse
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
STRUCTURE = "tests/test_structure_constants.py"
DIFFERENTIAL = "tests/test_differential.py"
HUMAN = "tests/test_cli_human.py"
GVS = "tests/test_gvs.py"
TORUS = "tests/test_torus.py"
COEFFICIENTS = "tests/test_coefficients.py"


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    targets: tuple[str, ...]


MUTANTS = [
    # ---- where the integer structure view and the differential's rows are scaled ----
    Mutant("structure keeps numerators only", "superlie.py",
           "c.numerator * (den // c.denominator))", "c.numerator)", (STRUCTURE,)),
    Mutant("dense brackets view not divided by den", "superlie.py",
           "{k: Fraction(c, den) for k, c in v}", "{k: Fraction(c) for k, c in v}", (STRUCTURE,)),
    Mutant("make_algebra keeps zero entries in structure", "superlie.py",
           "if c or type(c) not in (int, Fraction)) if c)", "))", (STRUCTURE,)),
    Mutant("make_algebra skips every falsy entry unchecked, 0.0 included", "superlie.py",
           "if c or type(c) not in (int, Fraction))", "if c)", (STRUCTURE,)),
    Mutant("bracket_vec not divided by den", "superlie.py",
           "return tuple(x / den for x in out)", "return tuple(out)", ("tests/test_solve.py",)),
    Mutant("ad not divided by den", "superlie.py",
           "return {t: y / den for t, y in out.items() if y}",
           "return {t: y for t, y in out.items() if y}", (STRUCTURE,)),
    Mutant("Jacobi residual over den, not den^2", "superlie.py",
           "Fraction(c, den * den)", "Fraction(c, den)", (STRUCTURE,)),
    Mutant("commutator defect on undivided constants", "superlie.py",
           "c = Fraction(c, den)", "c = Fraction(c)", (STRUCTURE,)),
    Mutant("is_homomorphism: source term without the target's den", "superlie.py",
           "dst_den * c * x", "c * x", (STRUCTURE,)),
    Mutant("is_homomorphism: the two dens swapped", "superlie.py",
           "res[k] = res.get(k, 0) + dst_den * c * x", "res[k] = res.get(k, 0) + src_den * c * x",
           (STRUCTURE,)),
    Mutant("torus eigenvalues not divided by den", "cohomology.py",
           "Fraction(t[0][1], den) if t else 0", "t[0][1] if t else 0", (TORUS,)),
    Mutant("differential: bracket terms off the common scale", "cochains.py",
           "bracket_factor = scale // den", "bracket_factor = 1", (DIFFERENTIAL,)),
    Mutant("differential: action terms off the common scale", "cochains.py",
           "(m, c.numerator * (scale // c.denominator))", "(m, c.numerator)", (DIFFERENTIAL,)),
    Mutant("differential: the scale is g's alone", "cochains.py",
           "scale = lcm(den, *(c.denominator", "scale = den or lcm(den, *(c.denominator",
           (DIFFERENTIAL,)),
    Mutant("covariant_delta not divided by the scale", "cochains.py",
           "x = {k: c / scale for k", "x = {k: c for k", (DIFFERENTIAL,)),
    Mutant("split solver rhs not scaled", "extensions.py",
           "system.solve(vec_scale(scale, cochain_coordinates(d.rho, basis2)))",
           "system.solve(cochain_coordinates(d.rho, basis2))", ("tests/test_extensions.py",)),
    Mutant("obstruction primitive not scaled", "cohomology.py",
           "vec_scale(d2_scale, x[:len(basis2)])", "x[:len(basis2)]", ("tests/test_cohomology.py",)),
    Mutant("curvature from a defect with complement coordinates", "cohomology.py",
           "if x is None or any(x[ds.inner_count:]):", "if x is None:",
           ("tests/test_cohomology.py",)),
    # ---- signs of the rewritten cores ----
    Mutant("stencil: bracket term sign flipped", "cochains.py",
           "yield (-c if (sign < 0) != odd else c), rest[:p] + (m,) + rest[p:], None",
           "yield (c if (sign < 0) != odd else -c), rest[:p] + (m,) + rest[p:], None",
           (DIFFERENTIAL,)),
    Mutant("stencil: insertion position off by one", "cochains.py",
           "p = bisect_left(rest, m)", "p = bisect_left(rest, m) + 1", (DIFFERENTIAL,)),
    Mutant("passing sign: odd past odd also flips", "cochains.py",
           "odd = sum(parities[k] for k in passed) if parities[x] else 0", "odd = 0",
           (DIFFERENTIAL,)),
    Mutant("stencil: action term sign flipped", "cochains.py",
           "yield (-1 if (word[i] * weight + a[i]) % 2 else 1)",
           "yield (1 if (word[i] * weight + a[i]) % 2 else -1)", (DIFFERENTIAL,)),
    Mutant("Jacobi sign dropped", "superlie.py",
           "s = -1 if (sp.parities[a] * sp.parities[c]) % 2 else 1", "s = 1", (STRUCTURE,)),
    Mutant("Leibniz terms: third-term sign flipped", "superlie.py",
           "yield k, -s * c, x", "yield k, s * c, x", (STRUCTURE,)),
    Mutant("half Leibniz system on pairs a < b", "superlie.py",
           "for b in range(a, n):", "for b in range(a + 1, n):", (STRUCTURE,)),
    Mutant("is_derivation's sign held at 1", "superlie.py",
           "s = -1 if (d.degree * alg.space.parities[a]) % 2 else 1", "s = 1", (STRUCTURE,)),
    Mutant("commutator sign flipped", "gvs.py",
           "sign = 1 if a.degree * b.degree else -1", "sign = -1 if a.degree * b.degree else 1",
           (STRUCTURE,)),
    Mutant("curvature residual sign dropped", "extensions.py",
           "res = vec_scale(Fraction(-1), res) if par[i] * par[k] else res", "res = res",
           (STRUCTURE,)),
    Mutant("ad transposed", "superlie.py",
           "out[k * n + j] = out.get(k * n + j, 0) + xi * c",
           "out[j * n + k] = out.get(j * n + k, 0) + xi * c", (STRUCTURE,)),
    # ---- the elimination kernel ----
    Mutant("dependent columns allowed to pivot", "gvs.py",
           "_absorb(self._echelon, {**col, nrows + j: 1}, nrows)",
           "_absorb(self._echelon, {**col, nrows + j: 1})", (GVS,)),
    Mutant("span rows in reversed pivot order", "gvs.py",
           "for p in sorted(self._echelon)]", "for p in sorted(self._echelon, reverse=True)]",
           (GVS,)),
    Mutant("_cancel scales by b, not b/g", "gvs.py", "row[j] *= b // g", "row[j] *= b", (GVS,)),
    Mutant("_integral keeps numerators only", "gvs.py",
           "x.numerator * (d // x.denominator)", "x.numerator", (GVS,)),
    Mutant("no back-clearing of a new pivot from the older rows", "gvs.py",
           "if p in other:", "if False:", (GVS,)),
    Mutant("solve not divided by b's scale", "gvs.py",
           "Fraction(-x, s)", "Fraction(-x)", ("tests/test_solve.py",)),
    # ---- the CLI's renderers, pinned by the human-output goldens ----
    Mutant("cochain arguments joined with ', '", "cli.py",
           'yield ",".join(phi.source.names[i] for i in tup)',
           'yield ", ".join(phi.source.names[i] for i in tup)', (HUMAN,)),
    Mutant("cochain values named in the source's basis", "cli.py",
           "_fmt_vec(v, phi.target)", "_fmt_vec(v, phi.source)", (HUMAN,)),
    Mutant("datum lines without the rho = 0 fallback", "cli.py",
           'for a, v in _fmt_values(d.rho)] or ["  rho = 0"]', "for a, v in _fmt_values(d.rho)]",
           (HUMAN,)),
    Mutant("no written-to line", "cli.py", 'return [f"written to {path}"]', "return []", (HUMAN,)),
    Mutant("map file's domain and codomain swapped", "cli.py",
           "formats.load_json(path), domain, codomain,",
           "formats.load_json(path), codomain, domain,", (HUMAN,)),
    Mutant("classify exits 0 on a class that does not vanish", "cli.py",
           """f"  obstruction class coordinates: ({', '.join(coords)})"], False)""",
           """f"  obstruction class coordinates: ({', '.join(coords)})"], True)""", (HUMAN,)),
    Mutant("obstruction exits 0 on a class that does not vanish", "cli.py",
           "return _emit(args, report, lines, obs.vanishes)", "return _emit(args, report, lines)",
           (HUMAN,)),
    Mutant("obstruction ignores the first class coordinate", "cohomology.py",
           "vanishes = is_zero_vec(class_coords)", "vanishes = is_zero_vec(class_coords[1:])",
           ("tests/test_cohomology.py", HUMAN)),
    Mutant("class coordinates read from the leading slice", "cohomology.py",
           "class_coords = x[len(basis2):]", "class_coords = x[:len(x) - len(basis2)]",
           ("tests/test_cohomology.py",)),
    Mutant("coboundary count read after the representatives are absorbed", "cohomology.py",
           """    dim_coboundaries = span.rank
    cocycles = sparse_kernel_basis(dmat, len(src))
    reps = [v for v in cocycles if span.add(v)]""",
           """    cocycles = sparse_kernel_basis(dmat, len(src))
    reps = [v for v in cocycles if span.add(v)]
    dim_coboundaries = span.rank""", (DIFFERENTIAL,)),
    Mutant("representatives chosen in reverse", "cohomology.py",
           "reps = [v for v in cocycles if span.add(v)]",
           "reps = [v for v in reversed(cocycles) if span.add(v)]", (DIFFERENTIAL,)),
    # ---- the torus reduction ----
    Mutant("representatives not mapped back to whole-basis positions", "cohomology.py",
           "reps = tuple({index[src[c]]: x for c, x in v.items()} for v in reps)",
           "reps = tuple(reps)", (TORUS,)),
    Mutant("no nonzero-weight count in dim Z^n", "cohomology.py",
           "len(cocycles) + exact,", "len(cocycles),", (TORUS,)),
    Mutant("alternating sum's sign flipped in the nonzero-weight count", "cohomology.py",
           "(-1) ** (n - 1 - k)", "(-1) ** (n - k)", (TORUS,)),
    Mutant("torus weight of a tuple with the wrong sign", "cohomology.py",
           "tuple(-r * lam[j] for lam, _mu in torus)", "tuple(r * lam[j] for lam, _mu in torus)",
           (TORUS,)),
    Mutant("odd elements counted once in the weight counts", "cohomology.py",
           "(n if p else 1)", "1", (TORUS,)),
    Mutant("weight skipped on a zero-weight count of 1", "cohomology.py",
           "if counted and not inside:", "if counted and inside <= 1:", (TORUS,)),
    Mutant("skipped weight reports no coboundaries", "cohomology.py",
           "return WeightReport(mod, n, y, exact, exact, ()), None",
           "return WeightReport(mod, n, y, exact, 0, ()), None", (TORUS,)),
    # ---- der(h) carries out(h): its brackets, projection and section ----
    Mutant("out(h) bracketed on the leading members", "superlie.py",
           "self.bracket(basis[c + a], basis[c + b])[c:]", "self.bracket(basis[a], basis[b])[c:]",
           ("tests/test_superlie.py",)),
    Mutant("proj keeps the leading coordinates", "superlie.py",
           "[{}] * c + [{a: 1} for a in range(m - c)]", "[{a: 1} for a in range(m - c)] + [{}] * c",
           ("tests/test_superlie.py",)),
    Mutant("lift coordinates padded after the out(h) part", "superlie.py",
           "zero_vec(self.inner_count) + vec(x)", "vec(x) + zero_vec(self.inner_count)",
           ("tests/test_superlie.py",)),
    # ---- the pullback's basis read off der(h)'s inner-first coordinates ----
    Mutant("pullback parities taken from h's basis", "extensions.py",
           "ds.space.parities[:c] + g.space.parities", "h.space.parities + g.space.parities",
           (HUMAN,)),
    Mutant("pullback section at e_j, not at the lift of e_j", "extensions.py",
           "[{c + j: 1} for j in range(n)]", "[{j: 1} for j in range(n)]",
           ("tests/test_extensions.py",)),
    Mutant("pullback refuses only a kernel with more inner members than dim h", "extensions.py",
           "if c != h.dim:", "if c > h.dim:", ("tests/test_extensions.py",)),
    # ---- the h (+) g block table, and the classification's check of its data ----
    Mutant("_block_sum adds the second block at offset 0", "superlie.py",
           "(a.dim, b.structure)", "(0, b.structure)", (STRUCTURE,)),
    Mutant("the shared check applies delta_alpha to the base datum only", "cohomology.py",
           "_datum_report(d, checks)", "_datum_report(base, checks)",
           ("tests/test_cohomology.py",)),
    # ---- der(h) on integer rows: one tagged ad elimination, an integer commutator ----
    Mutant("inner preimage without its den factor", "superlie.py",
           "Fraction(den * t, r[p])", "Fraction(t, r[p])", (STRUCTURE,)),
    Mutant("integer ad_H self-check reads the tags with the wrong sign", "superlie.py",
           "acc[i] = acc.get(i, 0) + t * x", "acc[i] = acc.get(i, 0) - t * x", (STRUCTURE,)),
    Mutant("_commutator scales both maps by da", "gvs.py",
           "x.numerator * (db // x.denominator)", "x.numerator * (da // x.denominator)",
           (STRUCTURE,)),
    # ---- modules beyond trivial and adjoint: the differential's action rows, the torus ----
    Mutant("differential: action rows sized by g, not by the module", "cochains.py",
           "target.dim)] for op in alpha_ops]", "src.dim)] for op in alpha_ops]", (COEFFICIENTS,)),
    Mutant("torus: a toral element need not act diagonally on M", "cohomology.py",
           "for diag in (brackets, op)", "for diag in (brackets,)", (COEFFICIENTS,)),
    # ---- the map record: sparse columns, the dense matrix a view ----
    Mutant("map constructor keeps zero entries", "gvs.py",
           "for i, a in ((i, scalar(a)) for i, a in col) if a))",
           "for i, a in ((i, scalar(a)) for i, a in col)))", (GVS,)),
    Mutant("compose multiplies in the wrong order", "gvs.py",
           """        for col in other.columns:
            acc: dict[int, Fraction] = {}
            for k, y in col:
                for i, x in self.columns[k]:""",
           """        for col in self.columns:
            acc: dict[int, Fraction] = {}
            for k, y in col:
                for i, x in other.columns[k]:""", ("tests/test_solve.py",)),
    Mutant("matrix view transposed", "gvs.py",
           "return tuple(tuple(c[i] for c in cols) for i in range(self.codomain.dim))",
           "return tuple(cols)", ("tests/test_solve.py",)),
    Mutant("apply pads or truncates a vector of the wrong length", "gvs.py",
           "if len(v) != self.domain.dim:", "if False:", (GVS,)),
]

EQUIVALENT = {
    "gvs._absorb without the positive-pivot sign": "every echelon row is divided by its pivot "
    "entry before it is read (`_rational`, `sparse_kernel_basis`, `LinearSystem.solve`), so the "
    "sign of a stored row changes no result",
    "cohomology._torus lets odd elements be toral": "on degree-0 data an odd element's "
    "eigenvalues are all 0 ([e_k, e_j] and its action change parity, so no diagonal entry is "
    "nonzero), and an element whose eigenvalues are all 0 is skipped anyway",
}


def run_pytest(targets, cwd: Path) -> bool:
    """True if the targets pass in `cwd`; a run that hangs counts as failing."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(CI="1", PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode of an earlier mutant
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=900)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def stale_entries() -> list[str]:
    """The names of the entries whose snippet does not occur exactly once in their file."""
    src = ROOT / "src" / "superext"
    return [m.name for m in MUTANTS
            if (src / m.file).read_text(encoding="utf-8").count(m.snippet) != 1]


def copy_tree(work: Path) -> Path:
    """A copy of what the targets need to run: `src/`, `tests/` and `pyproject.toml`."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", work)
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="run only the entries of these names (default: every entry)")
    names = parser.parse_args(argv).names
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        parser.error(f"no catalog entry named {', '.join(map(repr, unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    stale = stale_entries()
    if stale:
        print("stale entries, whose snippet does not occur exactly once:", *stale, sep="\n  ")
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cpus or 1, len(chosen)))
    with tempfile.TemporaryDirectory() as tmp:
        trees: queue.Queue[Path] = queue.Queue()
        for k in range(workers):
            trees.put(copy_tree(Path(tmp) / f"tree{k}"))
        targets = sorted({t for m in chosen for t in m.targets})
        if not run_pytest(targets, Path(tmp) / "tree0"):
            print("the unmutated tree fails its targets, so no kill means anything:", *targets)
            return 1

        def killed(m: Mutant) -> bool:
            work = trees.get()  # a tree no other worker holds
            path = work / "src" / "superext" / m.file
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
                return not run_pytest(m.targets, work)
            finally:
                path.write_text(original, encoding="utf-8")
                trees.put(work)

        survivors = []
        with ThreadPoolExecutor(workers) as pool:
            for m, dead in zip(chosen, pool.map(killed, chosen)):  # in catalog order
                print(f"{'killed  ' if dead else 'SURVIVED'} {m.name}  ({m.file})", flush=True)
                if not dead:
                    survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed; "
          f"{len(EQUIVALENT)} known equivalent mutant(s) not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
