"""Pinned outputs read back and checked by the oracles, not only compared as bytes.

A golden pins the bytes a command printed when it was recorded; if a value
was wrong then, byte-identity keeps it wrong.  Here each golden below is
parsed with its inputs and its claims are checked against `tests/oracles.py`:
- classification and obstruction: whether the class vanishes against the
  independent existence oracle, the number of data against the torsor over
  weight-0 H^2, and each datum by the dense curvature check and a dense
  validation of the algebra it builds;
- pullback: e passes the dense validation, dim e = dim h + dim g, and e's
  brackets, carried into der(h) x g through the golden's own maps, are the
  product bracket;
- derivations and out: each listed member is a derivation by the dense
  Leibniz check, an inner one is ad of its preimage, and the counts are the
  dense Leibniz system's nullity and the rank of the dense ad matrices;
- center: each vector brackets to 0 with every basis element, and the
  dimension is the nullity of the dense system [z, e_j] = 0;
- cohomology (also the torus-reduced goldens): each representative is a
  cocycle by the term-by-term differential, the representatives are
  independent modulo the oracle's coboundaries, and the dims are the
  eager dense elimination's;
- datum commands: every datum read or emitted passes the dense curvature
  check; `section-data` and `build` agree with the datum recomputed from
  the total algebra by dense brackets, `check-data`'s flags are the dense
  checks', a moved datum is (alpha + ad_b, rho + delta_alpha b + [b,b]/2)
  by the term-by-term differential and the full-sum bracket, and a split
  is rho = delta_alpha b - [b,b]/2 by the same oracles (for `--solve-abelian`
  with no witness, rho lies outside the dense span of delta_alpha on C^1).
Values are read with `json` and the library's own parsers
(`formats.parse_algebra`, `parse_map`, `parse_datum`, `_parse_matrix`,
`_parse_value`, `parse_module_doc`, `parse_cochain_entries`).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cli_cases import CASES
from cli_run import INPUTS
from superext import formats
from superext.cochains import cochain_coordinates, make_cochain, space_basis
from superext.cohomology import gmodule, trivial_module
from superext.extensions import ExtensionDatum, ExtensionTriple, build_extension
from superext.gvs import linear_map, unit_vec, vec_add, vec_scale, zero_vec
from superext.superlie import derivations
from test_cli import REDUCED
from test_cli_human import ALPHA, OBSTRUCTED, SUPER

from oracles import (delta_by_terms, dense_ad, dense_bracket, dense_commutator_defect,
                     dense_curvature_failures, dense_derivation_basis_of_parity,
                     dense_is_derivation, dense_kernel_basis, dense_mat_vec, dense_rref,
                     dense_solve, dense_validate_algebra, derivation_algebra,
                     eager_weight_cohomology, extension_exists, full_sum_bracket,
                     product_bracket, pullback_members)

GOLDEN = Path(__file__).parent / "golden"

OUTER_ACTION = [(f"expected/{name}", argv) for name, argv, _ in CASES
                if name in ("obstruction", "classify", "classify_heis_kernel")]
OUTER_ACTION += [(f"expected_obstructed/{name}", argv) for name, argv, _ in OBSTRUCTED]


PULLBACK = [(f"expected/{name}", argv) for name, argv, code in CASES
            if argv[0] == "pullback" and code == 0]
PULLBACK += [(f"expected_super/{name}", argv) for name, argv, _ in SUPER]
ONE_ALGEBRA = [(name, argv) for name, argv, _ in CASES
               if argv[0] in ("derivations", "out", "center")]
COHOMOLOGY = [(f"expected/{name}", argv) for name, argv, _ in CASES if argv[0] == "cohomology"]
COHOMOLOGY += [(f"expected_reduced/cohomology_{alg}_h{n}",
                ["cohomology", f"{alg}.json", "--degree", str(n), "--json"]) for alg, n in REDUCED]
DATUM_COMMANDS = ("section-data", "check-data", "build", "transform", "equivalent", "split-check")
DATUM = [(f"expected/{name}", argv) for name, argv, _ in CASES if argv[0] in DATUM_COMMANDS]
DATUM += [(f"expected_alpha/{name}", argv) for name, argv, _ in ALPHA]


def option(argv, flag):
    return argv[argv.index(flag) + 1]


def load(name):
    """The name and algebra of an input file."""
    return formats.parse_algebra(formats.load_json(str(INPUTS / name)))


def matrix(rows, domain, codomain, degree=0):
    return linear_map(domain, codomain, degree,
                      formats._parse_matrix(rows, codomain.dim, domain.dim, "matrix"))


def oracle_counts(h):
    """dim der(h) by the dense Leibniz system and dim ad(h) by dense elimination."""
    der = sum(len(dense_derivation_basis_of_parity(h, deg)) for deg in (0, 1))
    ads = [[x for row in dense_ad(h, unit_vec(h.dim, i), p).matrix for x in row]
           for i, p in enumerate(h.space.parities)]
    return der, len(dense_rref(ads)[1])


@pytest.mark.parametrize("golden, argv", OUTER_ACTION, ids=[g for g, _ in OUTER_ACTION])
def test_outer_action_goldens_hold_their_claims(golden, argv):
    report = json.loads((GOLDEN / f"{golden}.out").read_text(encoding="utf-8"))
    gname, g = load(option(argv, "--g"))
    hname, h = load(option(argv, "--h"))
    ds = derivations(h)
    abar = formats.parse_map(formats.load_json(str(INPUTS / option(argv, "--alpha-bar"))),
                             (gname, g.space), (f"out({hname})", ds.out.space))
    assert report["vanishes"] == extension_exists(ds, g, abar)[0]
    if report["command"] == "obstruction":
        return
    data = [formats.parse_datum(doc, (gname, g), (hname, h)) for doc in report["data"]]
    assert len(data) == (1 + report["h2_dim_weight0"] if report["vanishes"] else 0)
    for d in data:
        assert dense_curvature_failures(d) == []
        e = build_extension(d).e
        assert dense_validate_algebra(e).ok
        assert e.dim == h.dim + g.dim


@pytest.mark.parametrize("golden, argv", PULLBACK, ids=[g for g, _ in PULLBACK])
def test_pullback_goldens_hold_their_claims(golden, argv):
    report = json.loads((GOLDEN / f"{golden}.out").read_text(encoding="utf-8"))
    gname, g = load(option(argv, "--g"))
    hname, h = load(option(argv, "--h"))
    _, e = formats.parse_algebra(report["algebra"])
    assert dense_validate_algebra(e).ok
    assert e.dim == h.dim + g.dim
    ds = derivations(h)
    abar = formats.parse_map(formats.load_json(str(INPUTS / option(argv, "--alpha-bar"))),
                             (gname, g.space), (f"out({hname})", ds.out.space))
    t = ExtensionTriple(h, g, e, matrix(report["inclusion"], h.space, e.space),
                        matrix(report["projection"], e.space, g.space),
                        matrix(report["section"], g.space, e.space))
    der_alg = derivation_algebra(ds)
    members = pullback_members(t, ds, abar)
    for a, u in enumerate(members):
        for b, v in enumerate(members):
            got = zero_vec(len(u))
            for c, x in enumerate(e.brackets[a][b]):
                got = vec_add(got, vec_scale(x, members[c]))
            assert got == product_bracket(der_alg, g, u, v), (a, b)


@pytest.mark.parametrize("name, argv", ONE_ALGEBRA, ids=[n for n, _ in ONE_ALGEBRA])
def test_one_algebra_goldens_hold_their_claims(name, argv):
    report = json.loads((GOLDEN / "expected" / f"{name}.out").read_text(encoding="utf-8"))
    _, h = load(argv[1])
    if report["command"] == "center":
        zs = [formats._parse_value(items, h.space, "center") for items in report["basis"]]
        assert all(dense_bracket(h, z, unit_vec(h.dim, j)) == zero_vec(h.dim)
                   for z in zs for j in range(h.dim))
        rows = [[h.brackets[i][j][k] for i in range(h.dim)]
                for j in range(h.dim) for k in range(h.dim)]
        assert len(zs) == report["dim"] == len(dense_kernel_basis(rows, h.dim))
        assert len(dense_rref(zs)[1]) == len(zs)
        return
    der, inner = oracle_counts(h)
    if report["command"] == "out":
        assert (report["der_dim"], report["inner_dim"]) == (der, inner)
        _, out = formats.parse_algebra(report["out"])
        assert out.dim == der - inner and dense_validate_algebra(out).ok
        return
    assert (report["dim"], report["inner_dim"]) == (der, inner)
    members = [matrix(m["matrix"], h.space, h.space, m["degree"]) for m in report["basis"]]
    assert len(members) == der
    assert len(dense_rref([[x for row in d.matrix for x in row] for d in members])[1]) == der
    assert sum(m["inner"] for m in report["basis"]) == inner
    for m, d in zip(report["basis"], members):
        assert dense_is_derivation(h, d)
        if m["inner"]:
            assert d == dense_ad(h, formats._parse_value(m["preimage"], h.space, "preimage"),
                                d.degree)


@pytest.mark.parametrize("golden, argv", COHOMOLOGY, ids=[g for g, _ in COHOMOLOGY])
def test_cohomology_goldens_hold_their_claims(golden, argv):
    report = json.loads((GOLDEN / f"{golden}.out").read_text(encoding="utf-8"))
    gname, g = load(argv[1])
    n = int(option(argv, "--degree"))
    if "--module" in argv:
        doc = formats.load_json(str(INPUTS / option(argv, "--module")))
        mod = gmodule(g, *formats.parse_module_doc(doc, (gname, g))[1:])
    else:
        mod = trivial_module(g)
    assert [w["weight"] for w in report["weights"]] == [0, 1]
    for y, w in enumerate(report["weights"]):
        reps = [formats.parse_cochain_entries(entries, g.space, mod.space, n, y, "rep")
                for entries in w["representatives"]]
        assert all(delta_by_terms(g, mod.action, phi).is_zero() for phi in reps)
        cocycles, coboundaries, _reps, _rank = eager_weight_cohomology(mod, n, y)
        assert (w["dim_cocycles"], w["dim_coboundaries"]) == (len(cocycles), len(coboundaries))
        assert len(reps) == w["dim"] == len(cocycles) - len(coboundaries)
        basis = space_basis(g.space, mod.space, n, y)
        together = [cochain_coordinates(phi, basis) for phi in (*coboundaries, *reps)]
        assert len(dense_rref(together)[1]) == len(together)


def load_datum(path):
    """The datum of a datum file whose g and h are input file names."""
    doc = formats.load_json(str(INPUTS / path))
    return formats.parse_datum(doc, load(doc["g"]), load(doc["h"]))


def load_witness(path, d):
    """A map file g -> h, typed by the names of d's g and h files."""
    doc = formats.load_json(str(INPUTS / path))
    return formats.parse_map(doc, (doc["domain"], d.g.space), (doc["codomain"], d.h.space))


def dense_column(f, j):
    return tuple(row[j] for row in f.matrix)


def dense_induced_datum(g, h, e, incl, section):
    """alpha_X = i^-1 [s X, i -] and rho(X, Y) = i^-1 ([s X, s Y] - s [X, Y]) by dense brackets."""
    def pull(v):  # the preimage under the inclusion, which must exist
        x = dense_solve(incl.matrix, v, h.dim)
        assert x is not None, v
        return x

    s = [dense_column(section, j) for j in range(g.dim)]
    alpha = tuple(linear_map(h.space, h.space, g.space.parities[j], tuple(zip(*(
        pull(dense_bracket(e, s[j], dense_column(incl, k))) for k in range(h.dim)))))
        for j in range(g.dim))
    rho = {(j, k): pull(vec_add(dense_bracket(e, s[j], s[k]), vec_scale(
        Fraction(-1), dense_mat_vec(section.matrix, g.brackets[j][k]))))
           for j in range(g.dim) for k in range(g.dim)}
    return alpha, rho


def assert_datum_is(d, alpha, rho):
    """d has the connection `alpha` and the curvature values `rho` on every ordered pair."""
    assert d.alpha == alpha
    assert all(d.rho.evaluate(jk) == v for jk, v in rho.items())


def as_cochain(d, b):
    """The witness b: g -> h as a 1-cochain, read off its dense columns."""
    return make_cochain(d.g.space, d.h.space, 1, 0,
                        {(j,): dense_column(b, j) for j in range(d.g.dim)})


def dense_move(d, b):
    """(alpha + ad_b, rho + delta_alpha b + [b,b]/2), each term from the oracles."""
    bc = as_cochain(d, b)
    alpha = tuple(op + dense_ad(d.h, dense_column(b, j), d.g.space.parities[j])
                  for j, op in enumerate(d.alpha))
    rho = d.rho + delta_by_terms(d.g, d.alpha, bc) \
        + full_sum_bracket(bc, bc, d.h).scale(Fraction(1, 2))
    return ExtensionDatum(d.g, d.h, alpha, rho)


def dense_splits(d, b):
    """rho = delta_alpha b - [b,b]/2, each term from the oracles."""
    bc = as_cochain(d, b)
    return d.rho == delta_by_terms(d.g, d.alpha, bc) \
        - full_sum_bracket(bc, bc, d.h).scale(Fraction(1, 2))


@pytest.mark.parametrize("golden, argv", DATUM, ids=[g for g, _ in DATUM])
def test_datum_goldens_hold_their_claims(golden, argv):
    report = json.loads((GOLDEN / f"{golden}.out").read_text(encoding="utf-8"))
    command = report["command"]
    if command == "section-data":
        (gname, g), (hname, h), (ename, e) = (load(option(argv, f)) for f in ("--g", "--h", "--e"))
        incl, section = (formats.parse_map(formats.load_json(str(INPUTS / option(argv, f))),
                                           (src, a.space), (ename, e.space))
                         for f, src, a in (("--i", hname, h), ("--section", gname, g)))
        d = formats.parse_datum(report["datum"], (gname, g), (hname, h))
        assert dense_curvature_failures(d) == []
        assert_datum_is(d, *dense_induced_datum(g, h, e, incl, section))
        return
    d = load_datum(argv[1])
    assert dense_curvature_failures(d) == []
    g, h = d.g, d.h
    if command == "check-data":
        par = g.space.parities

        def ad_rho(i, j):  # ad of rho(e_i, e_j), keyed as the commutator defect is
            m = dense_ad(h, d.rho.evaluate((i, j)), (par[i] + par[j]) % 2).matrix
            return {r * h.dim + c: x for r, row in enumerate(m) for c, x in enumerate(row) if x}

        ders = [dense_is_derivation(h, op) for op in d.alpha]
        defects = all(dense_commutator_defect(g, d.alpha, i, j) == ad_rho(i, j)
                      for i in range(g.dim) for j in range(g.dim))
        assert (report["derivations"], report["commutator_defect"]) == (ders, defects)
        assert report["cyclic_curvature"] is True and report["failures"] == []
        assert report["ok"] == (all(ders) and defects)
    elif command == "build":
        _, e = formats.parse_algebra(report["algebra"])
        assert report["ok"] and dense_validate_algebra(e).ok and e.dim == h.dim + g.dim
        incl, section = matrix(report["inclusion"], h.space, e.space), \
            matrix(report["section"], g.space, e.space)
        assert_datum_is(d, *dense_induced_datum(g, h, e, incl, section))
    elif command == "transform":
        moved = formats.parse_datum(report["datum"], load(report["datum"]["g"]),
                                    load(report["datum"]["h"]))
        assert dense_curvature_failures(moved) == []
        assert moved == dense_move(d, load_witness(option(argv, "--witness"), d))
    elif command == "equivalent":
        d2 = load_datum(argv[2])
        assert dense_curvature_failures(d2) == []
        b = load_witness(option(argv, "--witness"), d)
        assert report["equivalent"] == (dense_move(d, b) == d2)
    elif "--witness" in argv:
        assert report["split"] == dense_splits(d, load_witness(option(argv, "--witness"), d))
    elif report["split"]:
        b = matrix(report["witness"]["matrix"], g.space, h.space)
        assert dense_splits(d, b)
    else:
        # no witness: h is abelian, so the relation is linear in b, and rho
        # lies outside the span of delta_alpha on C^1
        assert report["witness"] is None
        assert all(not any(v) for row in h.brackets for v in row)
        basis1, basis2 = space_basis(g.space, h.space, 1, 0), space_basis(g.space, h.space, 2, 0)
        cols = [cochain_coordinates(delta_by_terms(g, d.alpha, make_cochain(
            g.space, h.space, 1, 0, {tup: unit_vec(h.dim, m)})), basis2) for tup, m in basis1]
        rows = [[col[r] for col in cols] for r in range(len(basis2))]
        assert dense_solve(rows, cochain_coordinates(d.rho, basis2), len(basis1)) is None
