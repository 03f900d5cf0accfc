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
  eager dense elimination's.
Values are read with `json` and the library's own parsers
(`formats.parse_algebra`, `parse_map`, `parse_datum`, `_parse_matrix`,
`_parse_value`, `parse_module_doc`, `parse_cochain_entries`).
"""

import json
from pathlib import Path

import pytest

from cli_cases import CASES
from cli_run import INPUTS
from superext import formats
from superext.cochains import cochain_coordinates, space_basis
from superext.cohomology import gmodule, trivial_module
from superext.extensions import ExtensionTriple, build_extension
from superext.gvs import linear_map, unit_vec, vec_add, vec_scale, zero_vec
from superext.superlie import derivations
from test_cli import REDUCED
from test_cli_human import OBSTRUCTED, SUPER

from oracles import (delta_by_terms, dense_ad, dense_bracket, dense_curvature_failures,
                     dense_derivation_basis_of_parity, dense_is_derivation, dense_kernel_basis,
                     dense_rref, dense_validate_algebra, derivation_algebra,
                     eager_weight_cohomology, extension_exists, product_bracket,
                     pullback_members)

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
