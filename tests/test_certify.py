"""Pinned outputs read back and checked by the oracles, not only compared as bytes.

A golden pins the bytes a command printed when it was recorded; if a value
was wrong then, byte-identity keeps it wrong.  Here each classification and
obstruction golden is parsed with its inputs and its claims are checked
against `tests/oracles.py`: whether the class vanishes against the
independent existence oracle, the number of data against the torsor over
weight-0 H^2, and each datum by the dense curvature check and a dense
validation of the algebra it builds.  Values are read with `json` and the
library's own parsers (`formats.parse_algebra`, `parse_map`, `parse_datum`).
"""

import json
from pathlib import Path

import pytest

from cli_cases import CASES
from cli_run import INPUTS
from superext import formats
from superext.extensions import build_extension
from superext.superlie import derivations
from test_cli_human import OBSTRUCTED

from oracles import dense_curvature_failures, dense_validate_algebra, extension_exists

GOLDEN = Path(__file__).parent / "golden"

OUTER_ACTION = [(f"expected/{name}", argv) for name, argv, _ in CASES
                if name in ("obstruction", "classify", "classify_heis_kernel")]
OUTER_ACTION += [(f"expected_obstructed/{name}", argv) for name, argv, _ in OBSTRUCTED]


def option(argv, flag):
    return argv[argv.index(flag) + 1]


@pytest.mark.parametrize("golden, argv", OUTER_ACTION, ids=[g for g, _ in OUTER_ACTION])
def test_outer_action_goldens_hold_their_claims(golden, argv):
    report = json.loads((GOLDEN / f"{golden}.out").read_text(encoding="utf-8"))
    gname, g = formats.parse_algebra(formats.load_json(str(INPUTS / option(argv, "--g"))))
    hname, h = formats.parse_algebra(formats.load_json(str(INPUTS / option(argv, "--h"))))
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
