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
from typing import TYPE_CHECKING

from . import __version__
from .gvs import SuperVectorSpace, Vector, is_zero_vec
from .superlie import (
    SuperLieAlgebra,
    center,
    derivations,
    outer_algebra,
    validate_algebra,
)
from . import formats
from .formats import InvariantError, SchemaError

if TYPE_CHECKING:
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


def _write_output(path: str | None, doc) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formats.dump_json(doc))
        except OSError as ex:
            raise SchemaError(f"{path}: cannot write: {ex.strerror or ex}") from None


def _datum_file_doc(d: ExtensionDatum, gname: str, hname: str) -> dict:
    """Self-contained datum document: algebras inlined, safe to relocate."""
    return formats.format_datum(
        d, formats.format_algebra(gname, d.g), formats.format_algebra(hname, d.h)
    )


def _datum_lines(d: ExtensionDatum, output: str | None) -> list[str]:
    """Human report lines of a datum: alpha, rho, the output note and the convention."""
    lines = [f"  alpha[{d.g.space.names[i]}] = {_fmt_matrix(op.matrix)}"
             for i, op in enumerate(d.alpha)]
    for tup, v in d.rho.values:
        names = ",".join(d.g.space.names[i] for i in tup)
        lines.append(f"  rho({names}) = {_fmt_vec(v, d.h.space)}")
    if not d.rho.values:
        lines.append("  rho = 0")
    if output:
        lines.append(f"written to {output}")
    return lines + [f"note: {COCHAIN_NOTE}"]


def _triple_report(args, name: str, triple, **report) -> dict:
    """`report` plus the built algebra, also written to `args.output`, and its three maps."""
    report["algebra"] = formats.format_algebra(name, triple.e)
    _write_output(args.output, report["algebra"])
    for key, f in (("inclusion", triple.incl), ("projection", triple.proj),
                   ("section", triple.section)):
        report[key] = formats.format_matrix(f.matrix)
    return report


def _emit(args, report: dict, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(formats.dump_json(report))
    else:
        for line in lines:
            print(line)


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
    _emit(args, report, lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


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
    _emit(args, report, lines)
    return EXIT_OK


def cmd_derivations(args) -> int:
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    ds = derivations(alg)
    members = []
    for k, d in enumerate(ds.basis):
        entry = {
            "name": f"D{k}",
            "degree": d.degree,
            "inner": k < ds.inner_count,
            "matrix": formats.format_matrix(d.matrix),
        }
        if k < ds.inner_count:
            entry["preimage"] = formats.format_value(ds.inner_preimages[k], alg.space)
        members.append(entry)
    report = {
        "command": "derivations",
        "algebra": name,
        "dim": len(ds.basis),
        "inner_dim": ds.inner_count,
        "basis": members,
    }
    lines = [f"der({name}): dimension {len(ds.basis)}, inner {ds.inner_count}"]
    for k, d in enumerate(ds.basis):
        tag = "inner" if k < ds.inner_count else "outer"
        extra = (f" = ad({_fmt_vec(ds.inner_preimages[k], alg.space)})"
                 if k < ds.inner_count else "")
        lines.append(f"  D{k} ({tag}, degree {d.degree}) {_fmt_matrix(d.matrix)}{extra}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_out(args) -> int:
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    outer = outer_algebra(alg)
    ds, out_alg = outer.ds, outer.out
    out_doc = formats.format_algebra(f"out({name})", out_alg)
    report = {
        "command": "out",
        "algebra": name,
        "der_dim": len(ds.basis),
        "inner_dim": ds.inner_count,
        "out": out_doc,
        "projection": formats.format_matrix(outer.proj.matrix),
    }
    _write_output(args.output, out_doc)
    lines = [
        f"out({name}) = der/ad: dimension {out_alg.dim} "
        f"({out_alg.space.dim_even}|{out_alg.space.dim_odd})",
        f"  basis: {', '.join(out_alg.space.names)}",
        f"  der dimension {len(ds.basis)}, inner {ds.inner_count}",
    ]
    if args.output:
        lines.append(f"  written to {args.output}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_cohomology(args, cap: int) -> int:
    from .cohomology import cohomology_space, gmodule, trivial_module
    name, alg = _load_valid_algebra(args.algebra, args.allow_large)
    if args.degree < 0 or args.degree > cap:
        raise SchemaError(f"--degree must lie in 0..{cap} (the arity cap)")
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
            for tup, v in c.values:
                names = ",".join(alg.space.names[i] for i in tup)
                lines.append(f"    ({names}) -> {_fmt_vec(v, mod.space)}")
    lines.append(f"note: {COCHAIN_NOTE}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_section_data(args) -> int:
    from .extensions import ExtensionTriple, induced_data, validate_triple
    hname, halg = _load_algebra(args.h, args.allow_large)
    gname, galg = _load_algebra(args.g, args.allow_large)
    ename, ealg = _load_algebra(args.e, args.allow_large)
    incl = formats.parse_map(formats.load_json(args.i), (hname, halg.space),
                             (ename, ealg.space), where=args.i)
    proj = formats.parse_map(formats.load_json(args.p), (ename, ealg.space),
                             (gname, galg.space), where=args.p)
    sec = formats.parse_map(formats.load_json(args.section), (gname, galg.space),
                            (ename, ealg.space), where=args.section)
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
    doc = formats.format_datum(datum, args.g, args.h)
    _write_output(args.output, _datum_file_doc(datum, gname, hname))
    report = {
        "command": "section-data",
        "g": gname, "h": hname, "e": ename,
        "datum": doc,
        "convention": COCHAIN_NOTE,
    }
    lines = [f"induced data of the section {gname} -> {ename}:"]
    _emit(args, report, lines + _datum_lines(datum, args.output))
    return EXIT_OK


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
    _emit(args, report, lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_build(args) -> int:
    from .extensions import build_extension, check_datum
    datum, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    rep = check_datum(datum)
    if not rep.ok:
        report = {"command": "build", "ok": False, "failures": list(rep.failures)}
        _emit(args, report, ["datum fails the extension conditions:"]
              + [f"  {f}" for f in rep.failures])
        return EXIT_FAIL
    triple = build_extension(datum)
    name = args.name or f"{hname}(+){gname}"
    report = _triple_report(args, name, triple, command="build", ok=True)
    lines = [f"built extension algebra {name}: dim "
             f"({triple.e.space.dim_even}|{triple.e.space.dim_odd})"]
    for i in range(triple.e.dim):
        for j in range(i, triple.e.dim):
            v = triple.e.brackets[i][j]
            if not is_zero_vec(v):
                lines.append(
                    f"  [{triple.e.space.names[i]},{triple.e.space.names[j]}] = "
                    f"{_fmt_vec(v, triple.e.space)}"
                )
    if args.output:
        lines.append(f"written to {args.output}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_transform(args) -> int:
    from .extensions import transform_datum
    datum, (gname, gref), (hname, href) = _load_datum(args.datum, args.allow_large)
    b = formats.parse_map(formats.load_json(args.witness), (gname, datum.g.space),
                          (hname, datum.h.space), where=args.witness)
    if b.degree != 0:
        raise SchemaError(f"{args.witness}: witness must be degree 0")
    moved = transform_datum(datum, b)
    doc = formats.format_datum(moved, gref, href)
    _write_output(args.output, _datum_file_doc(moved, gname, hname))
    report = {"command": "transform", "datum": doc, "convention": COCHAIN_NOTE}
    _emit(args, report, ["transformed datum:"] + _datum_lines(moved, args.output))
    return EXIT_OK


def cmd_equivalent(args) -> int:
    from .extensions import check_equivalence_witness
    d1, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    d2, _, _ = _load_datum(args.datum2, args.allow_large)
    if d1.g != d2.g or d1.h != d2.h:
        raise SchemaError("the two data live over different algebras")
    b = formats.parse_map(formats.load_json(args.witness), (gname, d1.g.space),
                          (hname, d1.h.space), where=args.witness)
    ok = check_equivalence_witness(d1, d2, b)
    report = {"command": "equivalent", "equivalent": ok}
    _emit(args, report, [f"witness carries datum 1 onto datum 2: {'yes' if ok else 'no'}"])
    return EXIT_OK if ok else EXIT_FAIL


def cmd_split_check(args) -> int:
    from .extensions import check_split_witness, solve_split_abelian
    datum, (gname, _), (hname, _) = _load_datum(args.datum, args.allow_large)
    if args.witness and args.solve_abelian:
        raise SchemaError("pass either --witness or --solve-abelian, not both")
    if args.witness:
        b = formats.parse_map(formats.load_json(args.witness), (gname, datum.g.space),
                              (hname, datum.h.space), where=args.witness)
        ok = check_split_witness(datum, b)
        report = {"command": "split-check", "split": ok}
        _emit(args, report, [f"witness splits the datum: {'yes' if ok else 'no'}"])
        return EXIT_OK if ok else EXIT_FAIL
    if args.solve_abelian:
        if not datum.h.is_abelian():
            raise CheckFailed("--solve-abelian requires an abelian kernel")
        b = solve_split_abelian(datum)
        if b is None:
            report = {"command": "split-check", "split": False, "witness": None}
            _emit(args, report, ["no splitting witness exists: the class is nonzero"])
            return EXIT_FAIL
        report = {
            "command": "split-check",
            "split": True,
            "witness": formats.format_map(b, gname, hname),
        }
        _emit(args, report, ["splitting witness found:",
                             f"  b = {_fmt_matrix(b.matrix)}"])
        return EXIT_OK
    raise SchemaError("pass --witness FILE or --solve-abelian")


def _on_outer_action(args, run):
    """Load h, g and the outer action abar: g -> out(h); return them and run(outer, g, abar)."""
    hname, halg = _load_valid_algebra(args.h, args.allow_large)
    gname, galg = _load_valid_algebra(args.g, args.allow_large)
    outer = outer_algebra(halg)  # built once: it types abar and serves the command
    abar = formats.parse_map(formats.load_json(args.alpha_bar), (gname, galg.space),
                             (f"out({hname})", outer.out.space), where=args.alpha_bar)
    try:
        return (hname, halg), (gname, galg), run(outer, galg, abar)
    except ValueError as ex:
        raise CheckFailed(str(ex)) from None


def cmd_obstruction(args) -> int:
    from .cohomology import _obstruction_class
    (hname, _), (gname, _), obs = _on_outer_action(args, _obstruction_class)
    zname = f"Z({hname})"
    report = {
        "command": "obstruction",
        "g": gname, "h": hname,
        "center_dim": obs.module.space.dim,
        "lambda": formats.format_cochain(obs.lam, gname, zname),
        "class_coords": [str(c) for c in obs.class_coords],
        "vanishes": obs.vanishes,
        "mu": formats.format_cochain(obs.mu, gname, zname) if obs.mu is not None else None,
        "convention": COCHAIN_NOTE,
    }
    lines = [f"obstruction of {gname} -> out({hname}):",
             f"  center dimension {obs.module.space.dim}",
             f"  class coordinates in H^3: ({', '.join(str(c) for c in obs.class_coords)})",
             f"  vanishes: {'yes' if obs.vanishes else 'no'}"]
    lines.append(f"note: {COCHAIN_NOTE}")
    _emit(args, report, lines)
    return EXIT_OK if obs.vanishes else EXIT_FAIL


def cmd_classify(args) -> int:
    from .cohomology import _classify_extensions
    (hname, halg), (gname, galg), rep = _on_outer_action(args, _classify_extensions)
    report = {
        "command": "classify",
        "g": gname, "h": hname,
        "vanishes": rep.obstruction.vanishes,
        "class_coords": [str(c) for c in rep.obstruction.class_coords],
        "centerless_kernel": rep.centerless,
        "abelian_kernel": rep.abelian_kernel,
        "convention": COCHAIN_NOTE,
    }
    lines = []
    if not rep.obstruction.vanishes:
        report["data"] = []
        lines.append(f"no extensions of {gname} by {hname} induce the given outer action;")
        lines.append("  obstruction class coordinates: "
                     f"({', '.join(str(c) for c in rep.obstruction.class_coords)})")
        _emit(args, report, lines)
        return EXIT_FAIL
    h2w0 = rep.h2.weight(0)
    report["h2_dim_weight0"] = h2w0.dim
    report["base"] = formats.format_datum(rep.base, args.g, args.h)
    report["data"] = [formats.format_datum(d, args.g, args.h) for d in rep.data]
    lines.append(f"extensions of {gname} by {hname} inducing the outer action: "
                 f"base point + H^2 torsor of dimension {h2w0.dim}")
    if rep.centerless:
        lines.append("  kernel is centerless: the outer action alone determines the class")
    if rep.abelian_kernel:
        lines.append("  kernel is abelian: classes are pairs (action, H^2 class)")
    lines.append(f"  emitted {len(rep.data)} data "
                 "(the base point, then base + each H^2 representative)")
    for k, d in enumerate(rep.data):
        tag = "base" if k == 0 else f"base + rep {k - 1}"
        rho_str = "; ".join(
            f"rho({','.join(galg.space.names[i] for i in tup)}) = {_fmt_vec(v, halg.space)}"
            for tup, v in d.rho.values
        ) or "rho = 0"
        lines.append(f"  [{k}] ({tag}) {rho_str}")
    lines.append("note: the base point is a choice; the torsor structure is canonical")
    lines.append(f"note: {COCHAIN_NOTE}")
    _emit(args, report, lines)
    return EXIT_OK


def cmd_pullback(args) -> int:
    from .extensions import _pullback_extension
    (hname, _), (gname, _), triple = _on_outer_action(args, _pullback_extension)
    name = args.name or f"pullback({hname},{gname})"
    report = _triple_report(args, name, triple, command="pullback", g=gname, h=hname)
    lines = [f"pullback algebra {name}: dim "
             f"({triple.e.space.dim_even}|{triple.e.space.dim_odd})"]
    if args.output:
        lines.append(f"written to {args.output}")
    _emit(args, report, lines)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superext",
        description="Exact calculus of super Lie algebra extensions.",
    )
    parser.add_argument("--version", action="version", version=f"superext {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--allow-large", action="store_true",
                       help=f"lift the dimension guard (default max {MAX_DIM})")

    p = sub.add_parser("validate", help="check the super Lie algebra axioms")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("center", help="basis of the graded center")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("derivations", help="basis of der(h), inner members flagged")
    p.add_argument("algebra")
    common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("out", help="the quotient out(h) = der(h)/ad(h)")
    p.add_argument("algebra")
    p.add_argument("-o", "--output", help="write out(h) as an algebra file")
    common(p)
    p.set_defaults(func=cmd_out)

    p = sub.add_parser("cohomology", help="graded Chevalley cohomology, split by weight")
    p.add_argument("algebra")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--module", help="module file (default: trivial line)")
    common(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("section-data", help="connection and curvature of a section")
    p.add_argument("--e", required=True, help="total algebra file")
    p.add_argument("--h", required=True, help="kernel algebra file")
    p.add_argument("--g", required=True, help="quotient algebra file")
    p.add_argument("--i", required=True, help="inclusion map file h -> e")
    p.add_argument("--p", required=True, help="projection map file e -> g")
    p.add_argument("--section", required=True, help="section map file g -> e")
    p.add_argument("-o", "--output", help="write the induced datum file")
    common(p)
    p.set_defaults(func=cmd_section_data)

    p = sub.add_parser("check-data", help="extension-data conditions with residuals")
    p.add_argument("datum")
    common(p)
    p.set_defaults(func=cmd_check_data)

    p = sub.add_parser("build", help="build the extension algebra from a datum")
    p.add_argument("datum")
    p.add_argument("-o", "--output", help="write the built algebra file")
    p.add_argument("--name", help="name for the built algebra")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("transform", help="move a datum by a witness b: g -> h")
    p.add_argument("datum")
    p.add_argument("--witness", required=True, help="map file g -> h of degree 0")
    p.add_argument("-o", "--output", help="write the transformed datum file")
    common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("equivalent", help="check a witness between two data")
    p.add_argument("datum")
    p.add_argument("datum2")
    p.add_argument("--witness", required=True)
    common(p)
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("split-check", help="splitting witnesses; linear solver for abelian kernels")
    p.add_argument("datum")
    p.add_argument("--witness")
    p.add_argument("--solve-abelian", action="store_true")
    common(p)
    p.set_defaults(func=cmd_split_check)

    for cmd, func, help_ in (
        ("obstruction", cmd_obstruction, "degree-3 obstruction class of an outer action"),
        ("classify", cmd_classify, "classification of extensions inducing an outer action"),
        ("pullback", cmd_pullback, "pullback extension for a centerless kernel"),
    ):
        p = sub.add_parser(cmd, help=help_)
        p.add_argument("--g", required=True)
        p.add_argument("--h", required=True)
        p.add_argument("--alpha-bar", required=True, dest="alpha_bar",
                       help="map file g -> out(h) of degree 0")
        if cmd == "pullback":
            p.add_argument("-o", "--output", help="write the pullback algebra file")
            p.add_argument("--name", help="name for the pullback algebra")
        common(p)
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
    try:
        if args.func is cmd_cohomology:
            return cmd_cohomology(args, cap)
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
