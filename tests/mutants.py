"""The mutation catalog: each entry breaks the library in one place, and its tests must notice.

Run it from anywhere as `python tests/mutants.py`; pytest does not collect
it.  Each entry names a file under `src/superext`, a snippet that must occur
exactly once there (a stale entry fails loudly), its replacement, and the
test files expected to kill it.  The script copies `src/`, `tests/` and
`pyproject.toml` into a temporary directory, checks that the unmutated copy
passes every target, then applies one mutant at a time and runs
`pytest -x -q -p no:cacheprovider <targets>` there.  It exits 1 if any
mutant survives, naming it.  Hypothesis runs derandomized (`CI=1`, see
`conftest.py`), so a kill does not depend on the draw.

Known equivalent mutants are not entries; they are listed in EQUIVALENT
with the reason they change no result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
STRUCTURE = "tests/test_structure_constants.py"
DIFFERENTIAL = "tests/test_differential.py"


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
           "Fraction(t[0][1], den) if t else 0", "t[0][1] if t else 0", ("tests/test_torus.py",)),
    Mutant("curvature: alpha rho term without den", "extensions.py",
           "(q, den * row[p])", "(q, row[p])", (STRUCTURE,)),
    Mutant("curvature residual string not divided by den", "extensions.py",
           "Fraction(res.get(q, 0)) / den", "Fraction(res.get(q, 0))", (STRUCTURE,)),
    Mutant("differential: bracket terms off the common scale", "cochains.py",
           "bracket_factor = scale // den", "bracket_factor = 1", (DIFFERENTIAL,)),
    Mutant("differential: action terms off the common scale", "cochains.py",
           "(m, c.numerator * (scale // c.denominator))", "(m, c.numerator)", (DIFFERENTIAL,)),
    Mutant("differential: the scale is g's alone", "cochains.py",
           "scale = lcm(den, *(c.denominator", "scale = den or lcm(den, *(c.denominator",
           (DIFFERENTIAL,)),
    Mutant("delta_matrix not divided by the scale", "cohomology.py",
           "Fraction(x, scale)", "Fraction(x)", (DIFFERENTIAL,)),
    Mutant("covariant_delta not divided by the scale", "cochains.py",
           "x = {k: c / scale for k", "x = {k: c for k", (DIFFERENTIAL,)),
    Mutant("split solver rhs not scaled", "extensions.py",
           "system.solve(vec_scale(scale, cochain_coordinates(d.rho, basis2)))",
           "system.solve(cochain_coordinates(d.rho, basis2))", ("tests/test_extensions.py",)),
    Mutant("obstruction primitive rhs not scaled", "cohomology.py",
           "d2_system.solve(vec_scale(d2_scale, lam_coords))", "d2_system.solve(lam_coords)",
           ("tests/test_cohomology.py",)),
    # ---- signs of the rewritten cores ----
    Mutant("stencil: bracket term sign flipped", "cochains.py",
           "yield (-c if (sign < 0) != odd else c), srt, None",
           "yield (c if (sign < 0) != odd else -c), srt, None", (DIFFERENTIAL,)),
    Mutant("stencil: action term sign flipped", "cochains.py",
           "yield (-1 if (word[i] * weight + a[i]) % 2 else 1)",
           "yield (1 if (word[i] * weight + a[i]) % 2 else -1)", (DIFFERENTIAL,)),
    Mutant("Jacobi sign dropped", "superlie.py",
           "s = -1 if (sp.parities[a] * sp.parities[c]) % 2 else 1", "s = 1", (STRUCTURE,)),
    Mutant("Leibniz third-term sign flipped", "superlie.py",
           "r[t] = r.get(t, 0) - s * c", "r[t] = r.get(t, 0) + s * c", (STRUCTURE,)),
    Mutant("half Leibniz system on pairs a < b", "superlie.py",
           "for b in range(a, n):", "for b in range(a + 1, n):", (STRUCTURE,)),
    Mutant("is_derivation sign dropped", "superlie.py",
           "res[k] = res.get(k, 0) - sx * c", "res[k] = res.get(k, 0) - x * c", (STRUCTURE,)),
    Mutant("commutator sign flipped", "gvs.py",
           "sign = 1 if a.degree * b.degree else -1", "sign = -1 if a.degree * b.degree else 1",
           (STRUCTURE,)),
    Mutant("curvature sign dropped", "extensions.py",
           "sgn = -1 if (g.space.parities[a] * g.space.parities[c]) % 2 else 1", "sgn = 1",
           (STRUCTURE,)),
    Mutant("ad transposed", "superlie.py",
           "out[k * n + j] = out.get(k * n + j, 0) + xi * c",
           "out[j * n + k] = out.get(j * n + k, 0) + xi * c", (STRUCTURE,)),
]

EQUIVALENT = {
    "gvs._absorb without the positive-pivot sign": "every echelon row is divided by its pivot "
    "entry before it is read (`_rational`, `sparse_kernel_basis`, `LinearSystem.solve`), so the "
    "sign of a stored row changes no result",
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


def main() -> int:
    src = ROOT / "src" / "superext"
    stale = [m.name for m in MUTANTS
             if (src / m.file).read_text(encoding="utf-8").count(m.snippet) != 1]
    if stale:
        print("stale entries, whose snippet does not occur exactly once:", *stale, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        targets = sorted({t for m in MUTANTS for t in m.targets})
        if not run_pytest(targets, work):
            print("the unmutated tree fails its targets, so no kill means anything:", *targets)
            return 1
        survivors = []
        for m in MUTANTS:
            path = work / "src" / "superext" / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            killed = not run_pytest(m.targets, work)
            path.write_text(original, encoding="utf-8")
            print(f"{'killed  ' if killed else 'SURVIVED'} {m.name}  ({m.file})", flush=True)
            if not killed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed; "
          f"{len(EQUIVALENT)} known equivalent mutant(s) not run")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
