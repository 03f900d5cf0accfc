"""Command-line interface: every pipeline behind bit-exact JSON files.

Exit codes: 0 = success / checked property holds, 1 = a checked property
fails (or an obstruction class is nonzero, or an invariant of an input
file is violated), 2 = input error (unparseable file, unknown command,
refused size).  `--json` switches to a machine-readable report in which
every number is an exact rational string; reports are byte-stable for
identical inputs.  Algebras above MAX_DIM dimensions are refused unless
`--allow-large` is passed.  The environment variable SUPEREXT_ARITY_CAP
(default 6) bounds `cohomology --degree` and nothing else; the library
itself has no arity cap.  Each subcommand imports the cochain, extension
and cohomology layers only if it runs them, which keeps start-up short.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .gvs import SuperVectorSpace, Vector, is_zero_vec
from .superlie import (
    SuperLieAlgebra,
    center,
    derivations,
    validate_algebra,
)
from . import formats
from .formats import InvariantError, SchemaError

if TYPE_CHECKING:
    from .cochains import Cochain
    from .extensions import ExtensionDatum

MAX_DIM = 12
MAX_DEGREE = 6  # default bound of `cohomology --degree`; the environment overrides it

COCHAIN_NOTE = (
    "cochain values are listed on canonical argument tuples only (weakly "
    "increasing basis order, even-parity arguments never repeated); all other "
    "orderings follow by graded antisymmetry, an adjacent swap of arguments "
    "with parities x, x' carrying the sign -(-1)^(x*x')"
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class CheckFailed(Exception):
    """A checked property of valid input fails (exit code 1)."""


def _fmt_vec(v: Vector, space: SuperVectorSpace) -> str:
    terms = [
        (f"{formats.format_rational(c)}*{space.names[i]}" if c != 1 else space.names[i])
        for i, c in enumerate(v) if c != 0
    ]
    return " + ".join(terms) if terms else "0"


def _fmt_matrix(m) -> str:
    return "[" + "; ".join(" ".join(map(formats.format_rational, row)) for row in m) + "]"


def _fmt_values(phi: Cochain) -> Iterator[tuple[str, str]]:
    """(argument names, value) of each stored value of a cochain, as human reports print them."""
    for tup, v in phi.values:
        yield ",".join(phi.source.names[i] for i in tup), _fmt_vec(v, phi.target)


def _guarded_algebra(doc, where: str, allow_large: bool) -> tuple[str, SuperLieAlgebra]:
    """Parse an algebra document and enforce the dimension guard."""
    name, alg = formats.parse_algebra(doc, where=where)
    if alg.dim > MAX_DIM and not allow_large:
        raise SchemaError(
            f"{where}: dimension {alg.dim} exceeds the guard {MAX_DIM} "
            "(pass --allow-large to override)"
        )
    return name, alg


def _load_algebra(path: str, allow_large: bool) -> tuple[str, SuperLieAlgebra]:
    return _guarded_algebra(formats.load_json(path), path, allow_large)


def _load_valid_algebra(path: str, allow_large: bool) -> tuple[str, SuperLieAlgebra]:
    """`_load_algebra`, refusing an algebra that fails `validate_algebra` (exit 1)."""
    name, alg = _load_algebra(path, allow_large)
    if not validate_algebra(alg).ok:
        raise CheckFailed(f"{path}: not a valid super Lie algebra")
    return name, alg


def _load_datum(path: str, allow_large: bool):
    doc = formats.load_json(path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(ref, which):
        if isinstance(ref, str):
            p = ref if os.path.isabs(ref) else os.path.join(base, ref)
            return _load_algebra(p, allow_large), ref
        if not isinstance(ref, dict):
            raise SchemaError(f"{path}.{which}: must be a file path or an inline algebra")
        return _guarded_algebra(ref, f"{path}.{which}", allow_large), ref

    if not isinstance(doc, dict) or "g" not in doc or "h" not in doc:
        raise SchemaError(f"{path}: a datum file needs 'g' and 'h'")
    (gname, galg), gref = resolve(doc["g"], "g")
    (hname, halg), href = resolve(doc["h"], "h")
    for alg, which in ((galg, "g"), (halg, "h")):
        if not validate_algebra(alg).ok:
            raise CheckFailed(f"{path}.{which}: not a valid super Lie algebra")
    datum = formats.parse_datum(doc, (gname, galg), (hname, halg), where=path)
    return datum, (gname, gref), (hname, href)


def _load_map(path: str, domain, codomain):
    """The map file at `path`, typed by the (name, space) pairs of its domain and codomain."""
    return formats.parse_map(formats.load_json(path), domain, codomain, where=path)


def _load_witness(args, datum, gname: str, hname: str):
    """The degree-0 witness map g -> h named by `--witness`."""
    b = _load_map(args.witness, (gname, datum.g.space), (hname, datum.h.space))
    if b.degree != 0:
        raise SchemaError(f"{args.witness}: witness must be degree 0")
    return b


def _checked(run, *args):
    """run(*args), with a ValueError of the library read as a failed check."""
    try:
        return run(*args)
    except ValueError as ex:
        raise CheckFailed(str(ex)) from None


def _write_output(path: str | None, doc) -> list[str]:
    """Write `doc` to `path` if one is given; the human report line that says so."""
    if not path:
        return []
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(formats.dump_json(doc))
    except OSError as ex:
        raise SchemaError(f"{path}: cannot write: {ex.strerror or ex}") from None
    return [f"written to {path}"]


def _datum_file_doc(d: ExtensionDatum, gname: str, hname: str) -> dict:
    """Self-contained datum document: algebras inlined, safe to relocate."""
    return formats.format_datum(
        d, formats.format_algebra(gname, d.g), formats.format_algebra(hname, d.h)
    )


def _datum_lines(d: ExtensionDatum, written: list[str]) -> list[str]:
    """Human report lines of a datum: alpha, rho, the output note and the convention."""
    lines = [f"  alpha[{d.g.space.names[i]}] = {_fmt_matrix(op.matrix)}"
             for i, op in enumerate(d.alpha)]
    lines += [f"  rho({a}) = {v}" for a, v in _fmt_values(d.rho)] or ["  rho = 0"]
    return lines + written + [f"note: {COCHAIN_NOTE}"]


def _triple_report(args, name: str, triple, **report) -> tuple[dict, list[str]]:
    """`report` plus the built algebra, also written to `args.output`, and its three maps."""
    report["algebra"] = formats.format_algebra(name, triple.e)
    written = _write_output(args.output, report["algebra"])
    for key, f in (("inclusion", triple.incl), ("projection", triple.proj),
                   ("section", triple.section)):
        report[key] = formats.format_matrix(f.matrix)
    return report, written


def _emit(args, report: dict, lines: list[str], ok: bool = True) -> int:
    """Print `report` as JSON or `lines` as text; exit code 0 if `ok`, else 1."""
    if args.json:
        sys.stdout.write(formats.dump_json(report))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_FAIL


# ---------- subcommands ----------

def cmd_validate(args) -> int:
    name, alg = _load_algebra(args.algebra, args.allow_large)
    rep = validate_algebra(alg)
    report = {
        "command": "validate",
        "algebra": name,
        "degree_zero": rep.degree_zero,
        "antisymmetry": rep.antisymmetry,
        "jacobi": rep.jacobi,
        "ok": rep.ok,
        "failures": list(rep.failures),
    }
    lines = [
        f"algebra: {name}  dim ({alg.space.dim_even}|{alg.space.dim_odd})",
        f"degree-0: {'ok' if rep.degree_zero else 'FAIL'}",
        f"antisymmetry: {'ok' if rep.antisymmetry else 'FAIL'}",
        f"jacobi: {'ok' if rep.jacobi else 'FAIL'}",
    ] + [f"  {f}" for f in rep.failures]
    return _emit(args, report, lines, rep.ok)


def cmd_center(args) -> int:
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    basis = center(alg)
    report = {
        "command": "center",
        "algebra": name,
        "dim": len(basis),
        "basis": [formats.format_value(v, alg.space) for v in basis],
    }
    lines = [f"center of {name}: dimension {len(basis)}"]
    lines += [f"  {_fmt_vec(v, alg.space)}" for v in basis]
    return _emit(args, report, lines)


def cmd_derivations(args) -> int:
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    ds = derivations(alg)
    members = []
    lines = [f"der({name}): dimension {len(ds.basis)}, inner {ds.inner_count}"]
    for k, d in enumerate(ds.basis):
        inner = k < ds.inner_count
        entry = {
            "name": f"D{k}",
            "degree": d.degree,
            "inner": inner,
            "matrix": formats.format_matrix(d.matrix),
        }
        extra = ""
        if inner:
            entry["preimage"] = formats.format_value(ds.inner_preimages[k], alg.space)
            extra = f" = ad({_fmt_vec(ds.inner_preimages[k], alg.space)})"
        members.append(entry)
        lines.append(f"  D{k} ({'inner' if inner else 'outer'}, degree {d.degree}) "
                     f"{_fmt_matrix(d.matrix)}{extra}")
    report = {
        "command": "derivations",
        "algebra": name,
        "dim": len(ds.basis),
        "inner_dim": ds.inner_count,
        "basis": members,
    }
    return _emit(args, report, lines)


def cmd_out(args) -> int:
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    ds = derivations(alg)
    out_alg = ds.out
    out_doc = formats.format_algebra(f"out({name})", out_alg)
    report = {
        "command": "out",
        "algebra": name,
        "der_dim": len(ds.basis),
        "inner_dim": ds.inner_count,
        "out": out_doc,
        "projection": formats.format_matrix(ds.proj.matrix),
    }
    written = _write_output(args.output, out_doc)
    lines = [
        f"out({name}) = der/ad: dimension {out_alg.dim} "
        f"({out_alg.space.dim_even}|{out_alg.space.dim_odd})",
        f"  basis: {', '.join(out_alg.space.names)}",
        f"  der dimension {len(ds.basis)}, inner {ds.inner_count}",
    ] + [f"  {line}" for line in written]
    return _emit(args, report, lines)


def cmd_cohomology(args) -> int:
    from .cohomology import cohomology_space, gmodule, trivial_module
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    if args.degree < 0 or args.degree > args.arity_cap:
        raise SchemaError(f"--degree must lie in 0..{args.arity_cap} (the arity cap)")
    if args.module:
        mdoc = formats.load_json(args.module)
        mname, mspace, action = formats.parse_module_doc(mdoc, (name, alg), where=args.module)
        try:
            mod = gmodule(alg, mspace, action)
        except ValueError as ex:
            raise CheckFailed(f"{args.module}: {ex}") from None
    else:
        mname = "trivial line"
        mod = trivial_module(alg)
    rep = cohomology_space(alg, mod, args.degree)
    weights = []
    for w in rep.weights:
        weights.append({
            "weight": w.weight,
            "dim_cocycles": w.dim_cocycles,
            "dim_coboundaries": w.dim_coboundaries,
            "dim": w.dim,
            "representatives": [formats.format_cochain_entries(c) for c in w.representatives],
        })
    report = {
        "command": "cohomology",
        "algebra": name,
        "module": mname,
        "degree": args.degree,
        "weights": weights,
        "convention": COCHAIN_NOTE,
    }
    n = args.degree
    lines = [f"cohomology of {name} with coefficients in {mname}:"]
    for w in rep.weights:
        lines.append(f"dim H^{{{n},{w.weight}}} = {w.dim}")
    for w in rep.weights:
        for k, c in enumerate(w.representatives):
            lines.append(f"  representative {k} (weight {w.weight}):")
            lines += [f"    ({a}) -> {v}" for a, v in _fmt_values(c)]
    lines.append(f"note: {COCHAIN_NOTE}")
    return _emit(args, report, lines)


def cmd_section_data(args) -> int:
    from .extensions import ExtensionTriple, induced_data, validate_triple
    hname, halg = _load_algebra(args.h, args.allow_large)
    gname, galg = _load_algebra(args.g, args.allow_large)
    ename, ealg = _load_algebra(args.e, args.allow_large)
    incl = _load_map(args.i, (hname, halg.space), (ename, ealg.space))
    proj = _load_map(args.p, (ename, ealg.space), (gname, galg.space))
    sec = _load_map(args.section, (gname, galg.space), (ename, ealg.space))
    try:
        triple = ExtensionTriple(halg, galg, ealg, incl, proj, sec)
    except ValueError as ex:
        raise CheckFailed(str(ex)) from None
    if not validate_triple(triple):
        raise CheckFailed("the maps do not form an exact sequence of homomorphisms")
    try:
        datum = induced_data(triple)
    except ValueError as ex:
        raise CheckFailed(str(ex)) from None
    written = _write_output(args.output, _datum_file_doc(datum, gname, hname))
    report = {
        "command": "section-data",
        "g": gname, "h": hname, "e": ename,
        "datum": formats.format_datum(datum, args.g, args.h),
        "convention": COCHAIN_NOTE,
    }
    lines = [f"induced data of the section {gname} -> {ename}:"]
    return _emit(args, report, lines + _datum_lines(datum, written))


def cmd_check_data(args) -> int:
    from .extensions import check_datum
    datum, _, _ = _load_datum(args.datum, args.allow_large)
    rep = check_datum(datum)
    report = {
        "command": "check-data",
        "derivations": [bool(b) for b in rep.derivation_ok],
        "commutator_defect": rep.commutator_defect_ok,
        "cyclic_curvature": rep.cyclic_curvature_ok,
        "ok": rep.ok,
        "failures": list(rep.failures),
    }
    lines = [
        f"alpha operators are derivations: {'ok' if all(rep.derivation_ok) else 'FAIL'}",
        f"commutator defect = ad(rho): {'ok' if rep.commutator_defect_ok else 'FAIL'}",
        f"cyclic curvature sum = 0: {'ok' if rep.cyclic_curvature_ok else 'FAIL'}",
    ] + [f"  {f}" for f in rep.failures]
    return _emit(args, report, lines, rep.ok)


def cmd_build(args) -> int:
    from .extensions import build_extension, check_datum
    datum, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    try:
        triple = build_extension(datum)
    except ValueError:  # the datum fails check_datum: report every failure
        rep = check_datum(datum)
        report = {"command": "build", "ok": False, "failures": list(rep.failures)}
        return _emit(args, report, ["datum fails the extension conditions:"]
                     + [f"  {f}" for f in rep.failures], False)
    name = args.name or f"{hname}(+){gname}"
    report, written = _triple_report(args, name, triple, command="build", ok=True)
    e = triple.e
    lines = [f"built extension algebra {name}: dim ({e.space.dim_even}|{e.space.dim_odd})"]
    for i in range(e.dim):
        for j in range(i, e.dim):
            if not is_zero_vec(e.brackets[i][j]):
                lines.append(f"  [{e.space.names[i]},{e.space.names[j]}] = "
                             f"{_fmt_vec(e.brackets[i][j], e.space)}")
    return _emit(args, report, lines + written)


def cmd_transform(args) -> int:
    from .extensions import transform_datum
    datum, (gname, gref), (hname, href) = _load_datum(args.datum, args.allow_large)
    moved = transform_datum(datum, _load_witness(args, datum, gname, hname))
    written = _write_output(args.output, _datum_file_doc(moved, gname, hname))
    report = {"command": "transform", "datum": formats.format_datum(moved, gref, href),
              "convention": COCHAIN_NOTE}
    return _emit(args, report, ["transformed datum:"] + _datum_lines(moved, written))


def cmd_equivalent(args) -> int:
    from .extensions import check_equivalence_witness
    d1, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    d2, _, _ = _load_datum(args.datum2, args.allow_large)
    if d1.g != d2.g or d1.h != d2.h:
        raise SchemaError("the two data live over different algebras")
    ok = check_equivalence_witness(d1, d2, _load_witness(args, d1, gname, hname))
    report = {"command": "equivalent", "equivalent": ok}
    lines = [f"witness carries datum 1 onto datum 2: {'yes' if ok else 'no'}"]
    return _emit(args, report, lines, ok)


def cmd_split_check(args) -> int:
    from .extensions import check_split_witness, solve_split_abelian
    datum, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    if args.witness and args.solve_abelian:
        raise SchemaError("pass either --witness or --solve-abelian, not both")
    if args.witness:
        ok = _checked(check_split_witness, datum, _load_witness(args, datum, gname, hname))
        report = {"command": "split-check", "split": ok}
        return _emit(args, report, [f"witness splits the datum: {'yes' if ok else 'no'}"], ok)
    if not args.solve_abelian:
        raise SchemaError("pass --witness FILE or --solve-abelian")
    b = _checked(solve_split_abelian, datum)
    if b is None:
        report = {"command": "split-check", "split": False, "witness": None}
        return _emit(args, report, ["no splitting witness exists: the class is nonzero"], False)
    report = {
        "command": "split-check",
        "split": True,
        "witness": formats.format_map(b, gname, hname),
    }
    return _emit(args, report, ["splitting witness found:", f"  b = {_fmt_matrix(b.matrix)}"])


def _on_outer_action(args, run):
    """Load h, g and abar: g -> out(h); return (h's name, g's name, run(ds, g, abar))."""
    hname, halg = _load_valid_algebra(args.h, args.allow_large)
    gname, galg = _load_valid_algebra(args.g, args.allow_large)
    ds = derivations(halg)  # built once: its out(h) types abar, and it serves the command
    abar = _load_map(args.alpha_bar, (gname, galg.space), (f"out({hname})", ds.out.space))
    return hname, gname, _checked(run, ds, galg, abar)


def cmd_obstruction(args) -> int:
    from .cohomology import obstruction_class
    hname, gname, obs = _on_outer_action(args, obstruction_class)
    zname = f"Z({hname})"
    coords = [str(c) for c in obs.class_coords]
    report = {
        "command": "obstruction",
        "g": gname, "h": hname,
        "center_dim": obs.module.space.dim,
        "lambda": formats.format_cochain(obs.lam, gname, zname),
        "class_coords": coords,
        "vanishes": obs.vanishes,
        "mu": formats.format_cochain(obs.mu, gname, zname) if obs.mu is not None else None,
        "convention": COCHAIN_NOTE,
    }
    lines = [f"obstruction of {gname} -> out({hname}):",
             f"  center dimension {obs.module.space.dim}",
             f"  class coordinates in H^3: ({', '.join(coords)})",
             f"  vanishes: {'yes' if obs.vanishes else 'no'}",
             f"note: {COCHAIN_NOTE}"]
    return _emit(args, report, lines, obs.vanishes)


def cmd_classify(args) -> int:
    from .cohomology import _classify_extensions
    hname, gname, rep = _on_outer_action(args, _classify_extensions)
    coords = [str(c) for c in rep.obstruction.class_coords]
    report = {
        "command": "classify",
        "g": gname, "h": hname,
        "vanishes": rep.obstruction.vanishes,
        "class_coords": coords,
        "centerless_kernel": rep.centerless,
        "abelian_kernel": rep.abelian_kernel,
        "convention": COCHAIN_NOTE,
    }
    if not rep.obstruction.vanishes:
        report["data"] = []
        return _emit(args, report, [
            f"no extensions of {gname} by {hname} induce the given outer action;",
            f"  obstruction class coordinates: ({', '.join(coords)})"], False)
    h2w0 = rep.h2.weight(0)
    report["h2_dim_weight0"] = h2w0.dim
    report["base"] = formats.format_datum(rep.base, args.g, args.h)
    report["data"] = [formats.format_datum(d, args.g, args.h) for d in rep.data]
    lines = [f"extensions of {gname} by {hname} inducing the outer action: "
             f"base point + H^2 torsor of dimension {h2w0.dim}"]
    if rep.centerless:
        lines.append("  kernel is centerless: the outer action alone determines the class")
    if rep.abelian_kernel:
        lines.append("  kernel is abelian: classes are pairs (action, H^2 class)")
    lines.append(f"  emitted {len(rep.data)} data "
                 "(the base point, then base + each H^2 representative)")
    for k, d in enumerate(rep.data):
        tag = "base" if k == 0 else f"base + rep {k - 1}"
        rho = "; ".join(f"rho({a}) = {v}" for a, v in _fmt_values(d.rho)) or "rho = 0"
        lines.append(f"  [{k}] ({tag}) {rho}")
    lines.append("note: the base point is a choice; the torsor structure is canonical")
    lines.append(f"note: {COCHAIN_NOTE}")
    return _emit(args, report, lines)


def cmd_pullback(args) -> int:
    from .extensions import _pullback_extension
    hname, gname, triple = _on_outer_action(args, _pullback_extension)
    name = args.name or f"pullback({hname},{gname})"
    report, written = _triple_report(args, name, triple, command="pullback", g=gname, h=hname)
    sp = triple.e.space
    lines = [f"pullback algebra {name}: dim ({sp.dim_even}|{sp.dim_odd})"]
    return _emit(args, report, lines + written)


def _arg(*flags, **kwargs):
    """One `add_argument` call of a subcommand, as (flags, keyword arguments)."""
    return flags, kwargs


ALGEBRA, DATUM = _arg("algebra"), _arg("datum")
OUTER_ACTION = (_arg("--g", required=True), _arg("--h", required=True),
                _arg("--alpha-bar", required=True, dest="alpha_bar",
                     help="map file g -> out(h) of degree 0"))

# (name, handler, help, arguments); every subcommand also takes --json and --allow-large
COMMANDS = (
    ("validate", cmd_validate, "check the super Lie algebra axioms", (ALGEBRA,)),
    ("center", cmd_center, "basis of the graded center", (ALGEBRA,)),
    ("derivations", cmd_derivations, "basis of der(h), inner members flagged", (ALGEBRA,)),
    ("out", cmd_out, "the quotient out(h) = der(h)/ad(h)",
     (ALGEBRA, _arg("-o", "--output", help="write out(h) as an algebra file"))),
    ("cohomology", cmd_cohomology, "graded Chevalley cohomology, split by weight",
     (ALGEBRA, _arg("--degree", type=int, required=True),
      _arg("--module", help="module file (default: trivial line)"))),
    ("section-data", cmd_section_data, "connection and curvature of a section",
     (_arg("--e", required=True, help="total algebra file"),
      _arg("--h", required=True, help="kernel algebra file"),
      _arg("--g", required=True, help="quotient algebra file"),
      _arg("--i", required=True, help="inclusion map file h -> e"),
      _arg("--p", required=True, help="projection map file e -> g"),
      _arg("--section", required=True, help="section map file g -> e"),
      _arg("-o", "--output", help="write the induced datum file"))),
    ("check-data", cmd_check_data, "extension-data conditions with residuals", (DATUM,)),
    ("build", cmd_build, "build the extension algebra from a datum",
     (DATUM, _arg("-o", "--output", help="write the built algebra file"),
      _arg("--name", help="name for the built algebra"))),
    ("transform", cmd_transform, "move a datum by a witness b: g -> h",
     (DATUM, _arg("--witness", required=True, help="map file g -> h of degree 0"),
      _arg("-o", "--output", help="write the transformed datum file"))),
    ("equivalent", cmd_equivalent, "check a witness between two data",
     (DATUM, _arg("datum2"), _arg("--witness", required=True))),
    ("split-check", cmd_split_check, "splitting witnesses; linear solver for abelian kernels",
     (DATUM, _arg("--witness"), _arg("--solve-abelian", action="store_true"))),
    ("obstruction", cmd_obstruction, "degree-3 obstruction class of an outer action",
     OUTER_ACTION),
    ("classify", cmd_classify, "classification of extensions inducing an outer action",
     OUTER_ACTION),
    ("pullback", cmd_pullback, "pullback extension for a centerless kernel",
     OUTER_ACTION + (_arg("-o", "--output", help="write the pullback algebra file"),
                     _arg("--name", help="name for the pullback algebra"))),
)
COMMON = (_arg("--json", action="store_true", help="machine-readable report"),
          _arg("--allow-large", action="store_true",
               help=f"lift the dimension guard (default max {MAX_DIM})"))


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superext",
        description="Exact calculus of super Lie algebra extensions.",
    )
    parser.add_argument("--version", action="version", version=f"superext {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, func, help_, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments + COMMON:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    raw = os.environ.get("SUPEREXT_ARITY_CAP")
    cap = MAX_DEGREE
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            cap = -1
        if cap < 0:
            print(f"error: SUPEREXT_ARITY_CAP must be a nonnegative integer, got {raw!r}",
                  file=sys.stderr)
            return EXIT_INPUT
    parser = make_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    args.arity_cap = cap
    try:
        return args.func(args)
    except SchemaError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as ex:
        print(f"invariant violation: {ex}", file=sys.stderr)
        return EXIT_FAIL
    except CheckFailed as ex:
        print(f"check failed: {ex}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
