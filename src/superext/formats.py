"""Bit-exact JSON file formats for algebras, maps, cochains, data and modules.

Every coefficient is an exact rational string "p/q" or "p"; no floats are
accepted or produced.  Serialization is canonical (sorted keys, bracket
pairs listed once with left index <= right index, two-space indent), so
serialize(parse(f)) is byte-identical once a file is in canonical form.

Two error layers: `SchemaError` for files that cannot be interpreted at
all (malformed JSON, missing fields, bad rationals, unknown names: CLI
exit code 2) and `InvariantError` for well-formed files that violate a
semantic invariant (antisymmetry conflicts, homogeneity, canonical-tuple
rules: CLI exit code 1).  Both carry the offending field location.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .gvs import (GradedLinearMap, SuperVectorSpace, Vector, is_zero_vec, linear_map, scalar,
                  unit_vec, vec_add, vec_scale, zero_vec)
from .superlie import SuperLieAlgebra, antisymmetric_completion, make_algebra

if TYPE_CHECKING:  # the layers above are imported by the parsers that build their records
    from .cochains import Cochain
    from .extensions import ExtensionDatum


class SchemaError(ValueError):
    """The file cannot be interpreted (exit code 2)."""


class InvariantError(ValueError):
    """The file parses but violates a semantic invariant (exit code 1)."""


def parse_rational(x: Any, where: str) -> Fraction:
    if isinstance(x, str):
        try:
            return scalar(x)  # the string rule of the library: "p" or "p/q"
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where}: not an exact rational: {x!r}") from None
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise SchemaError(f"{where}: coefficients must be integers or 'p/q' strings, got {x!r}")


def format_rational(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # past the interpreter's limit on digits in an int-to-str conversion
        from decimal import Decimal  # exact for any int, and loaded only here

        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _require(obj: Mapping, key: str, where: str) -> Any:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    return obj[key]


def _parse_bit(x: Any, where: str) -> int:
    """A parity, degree or weight: the JSON integer 0 or 1, never a bool or a float."""
    if type(x) is not int or x not in (0, 1):
        raise SchemaError(f"{where}: must be 0 or 1")
    return x


def _parse_basis(items: Any, where: str) -> SuperVectorSpace:
    if not isinstance(items, list) or not all(isinstance(b, Mapping) for b in items):
        raise SchemaError(f"{where}: must be a list of {{name, parity}} objects")
    names, parities = [], []
    for k, b in enumerate(items):
        name = _require(b, "name", f"{where}[{k}]")
        parity = _require(b, "parity", f"{where}[{k}]")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{where}[{k}].name: must be a nonempty string")
        parity = _parse_bit(parity, f"{where}[{k}].parity")
        names.append(name)
        parities.append(parity)
    if len(set(names)) != len(names):
        raise SchemaError(f"{where}: duplicate basis names")
    return SuperVectorSpace(tuple(names), tuple(parities))


def _parse_value(items: Any, space: SuperVectorSpace, where: str) -> Vector:
    if not isinstance(items, list):
        raise SchemaError(f"{where}: must be a list of {{basis, coeff}} objects")
    v = zero_vec(space.dim)
    for k, entry in enumerate(items):
        bname = _require(entry, "basis", f"{where}[{k}]")
        coeff = parse_rational(_require(entry, "coeff", f"{where}[{k}]"), f"{where}[{k}].coeff")
        try:
            idx = space.index(bname)
        except KeyError:
            raise SchemaError(f"{where}[{k}].basis: unknown basis element {bname!r}") from None
        v = vec_add(v, vec_scale(coeff, unit_vec(space.dim, idx)))
    return v


def format_value(v: Vector, space: SuperVectorSpace) -> list[dict]:
    return [
        {"basis": space.names[i], "coeff": format_rational(c)}
        for i, c in enumerate(v) if c != 0
    ]


def parse_algebra(doc: Any, where: str = "algebra") -> tuple[str, SuperLieAlgebra]:
    name = _require(doc, "name", where)
    if not isinstance(name, str):
        raise SchemaError(f"{where}.name: must be a string")
    space = _parse_basis(_require(doc, "basis", where), f"{where}.basis")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise SchemaError(f"{where}.brackets: must be a list")
    table: dict[tuple[int, int], Vector] = {}
    for k, entry in enumerate(brackets):
        loc = f"{where}.brackets[{k}]"
        left = _require(entry, "left", loc)
        right = _require(entry, "right", loc)
        try:
            i, j = space.index(left), space.index(right)
        except KeyError as ex:
            raise SchemaError(f"{loc}: {ex.args[0]}") from None
        v = _parse_value(_require(entry, "value", loc), space, f"{loc}.value")
        if (i, j) in table:
            raise InvariantError(f"{loc}: bracket [{left},{right}] listed twice")
        table[(i, j)] = v
    try:
        table = antisymmetric_completion(space, table)
    except ValueError as ex:
        raise InvariantError(f"{where}.brackets: {ex}") from None
    return name, make_algebra(space, table)


def format_algebra(name: str, alg: SuperLieAlgebra) -> dict:
    basis = [
        {"name": n, "parity": p}
        for n, p in zip(alg.space.names, alg.space.parities)
    ]
    brackets = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            v = alg.brackets[i][j]
            if not is_zero_vec(v):
                brackets.append({
                    "left": alg.space.names[i],
                    "right": alg.space.names[j],
                    "value": format_value(v, alg.space),
                })
    return {"name": name, "basis": basis, "brackets": brackets}


def _parse_matrix(rows: Any, nrows: int, ncols: int, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(rows, list) or len(rows) != nrows:
        raise SchemaError(f"{where}: expected {nrows} row{'s' * (nrows != 1)}")
    out = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise SchemaError(f"{where}[{r}]: expected {ncols} entr{'ies' if ncols != 1 else 'y'}")
        out.append(tuple(parse_rational(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)))
    return tuple(out)


def format_matrix(m: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m]


def parse_map(doc: Any, domain: tuple[str, SuperVectorSpace],
              codomain: tuple[str, SuperVectorSpace], where: str = "map") -> GradedLinearMap:
    dn = _require(doc, "domain", where)
    cn = _require(doc, "codomain", where)
    if dn != domain[0]:
        raise SchemaError(f"{where}.domain: expected {domain[0]!r}, got {dn!r}")
    if cn != codomain[0]:
        raise SchemaError(f"{where}.codomain: expected {codomain[0]!r}, got {cn!r}")
    degree = _parse_bit(_require(doc, "degree", where), f"{where}.degree")
    m = _parse_matrix(_require(doc, "matrix", where), codomain[1].dim, domain[1].dim,
                      f"{where}.matrix")
    try:
        return linear_map(domain[1], codomain[1], degree, m)
    except ValueError as ex:
        raise InvariantError(f"{where}.matrix: {ex}") from None


def format_map(f: GradedLinearMap, domain_name: str, codomain_name: str) -> dict:
    return {
        "domain": domain_name,
        "codomain": codomain_name,
        "degree": f.degree,
        "matrix": format_matrix(f.matrix),
    }


def parse_cochain_entries(entries: Any, source: SuperVectorSpace, target: SuperVectorSpace,
                          arity: int, weight: int, where: str) -> Cochain:
    from .cochains import make_cochain, sort_indices
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: must be a list")
    table: dict[tuple[int, ...], Vector] = {}
    for k, entry in enumerate(entries):
        loc = f"{where}[{k}]"
        args = _require(entry, "args", loc)
        if not isinstance(args, list) or len(args) != arity:
            raise SchemaError(f"{loc}.args: expected {arity} argument names")
        try:
            tup = tuple(source.index(a) for a in args)
        except KeyError as ex:
            raise SchemaError(f"{loc}.args: {ex.args[0]}") from None
        srt, sign = sort_indices(source, tup)
        if srt != tup or sign == 0:
            raise InvariantError(
                f"{loc}.args: {args} is not canonical (weakly increasing, "
                "even-parity names never repeated)"
            )
        if tup in table:
            raise InvariantError(f"{loc}.args: tuple {args} listed twice")
        table[tup] = _parse_value(_require(entry, "value", loc), target, f"{loc}.value")
    try:
        return make_cochain(source, target, arity, weight, table)
    except ValueError as ex:
        raise InvariantError(f"{where}: {ex}") from None


def parse_cochain(doc: Any, source: tuple[str, SuperVectorSpace],
                  target: tuple[str, SuperVectorSpace], where: str = "cochain") -> Cochain:
    sn = _require(doc, "source", where)
    tn = _require(doc, "target", where)
    if sn != source[0]:
        raise SchemaError(f"{where}.source: expected {source[0]!r}, got {sn!r}")
    if tn != target[0]:
        raise SchemaError(f"{where}.target: expected {target[0]!r}, got {tn!r}")
    arity = _require(doc, "arity", where)
    weight = _require(doc, "weight", where)
    if type(arity) is not int or arity < 0:
        raise SchemaError(f"{where}.arity: must be a nonnegative integer")
    weight = _parse_bit(weight, f"{where}.weight")
    return parse_cochain_entries(_require(doc, "entries", where), source[1], target[1],
                                 arity, weight, f"{where}.entries")


def format_cochain_entries(phi: Cochain) -> list[dict]:
    return [
        {"args": [phi.source.names[i] for i in tup], "value": format_value(v, phi.target)}
        for tup, v in phi.values
    ]


def format_cochain(phi: Cochain, source_name: str, target_name: str) -> dict:
    return {
        "source": source_name,
        "target": target_name,
        "arity": phi.arity,
        "weight": phi.weight,
        "entries": format_cochain_entries(phi),
    }


def _parse_operators(doc: Any, key: str, g: SuperLieAlgebra, space: SuperVectorSpace,
                     where: str, what: str) -> tuple[GradedLinearMap, ...]:
    """The {arg, matrix} list doc[key] as one operator on `space` per g basis element.

    The operator of a basis element X has degree parity(X); an unlisted one is 0.
    """
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise SchemaError(f"{where}.{key}: must be a list")
    ops: dict[int, GradedLinearMap] = {}
    for k, entry in enumerate(items):
        loc = f"{where}.{key}[{k}]"
        arg = _require(entry, "arg", loc)
        try:
            i = g.space.index(arg)
        except KeyError:
            raise SchemaError(f"{loc}.arg: unknown basis element {arg!r}") from None
        if i in ops:
            raise InvariantError(f"{loc}: {what} for {arg!r} listed twice")
        m = _parse_matrix(_require(entry, "matrix", loc), space.dim, space.dim, f"{loc}.matrix")
        try:
            ops[i] = linear_map(space, space, g.space.parities[i], m)
        except ValueError as ex:
            raise InvariantError(f"{loc}.matrix: {ex}") from None
    return tuple(ops.get(i, GradedLinearMap.zero(space, space, g.space.parities[i]))
                 for i in range(g.dim))


def parse_datum(doc: Any, g: tuple[str, SuperLieAlgebra], h: tuple[str, SuperLieAlgebra],
                where: str = "datum") -> ExtensionDatum:
    """The (alpha, rho) part of a datum file against already-loaded g and h."""
    from .extensions import ExtensionDatum
    gname, galg = g
    hname, halg = h
    alpha = _parse_operators(doc, "alpha", galg, halg.space, where, "operator")
    rho_doc = doc.get("rho", {"entries": []})
    if not isinstance(rho_doc, Mapping):
        raise SchemaError(f"{where}.rho: must be an object with an 'entries' list")
    rho = parse_cochain_entries(rho_doc.get("entries", []), galg.space, halg.space, 2, 0,
                                f"{where}.rho.entries")
    return ExtensionDatum(galg, halg, alpha, rho)


def format_datum(d: ExtensionDatum, g_ref: Any, h_ref: Any) -> dict:
    alpha = []
    for i, op in enumerate(d.alpha):
        if not op.is_zero():
            alpha.append({"arg": d.g.space.names[i], "matrix": format_matrix(op.matrix)})
    return {
        "g": g_ref,
        "h": h_ref,
        "alpha": alpha,
        "rho": {"entries": format_cochain_entries(d.rho)},
    }


def parse_module_doc(doc: Any, g: tuple[str, SuperLieAlgebra], where: str = "module"):
    """Parse a module file into (name, space, action operators) without verifying."""
    gname, galg = g
    name = _require(doc, "name", where)
    if not isinstance(name, str):
        raise SchemaError(f"{where}.name: must be a string")
    space = _parse_basis(_require(doc, "basis", where), f"{where}.basis")
    return name, space, _parse_operators(doc, "action", galg, space, where, "action")


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file") from None
    except OSError as ex:
        raise SchemaError(f"{path}: cannot read: {ex.strerror or ex}") from None
    except UnicodeDecodeError as ex:
        raise SchemaError(f"{path}: not UTF-8 text: {ex.reason}") from None
    except ValueError as ex:  # malformed JSON, or an integer literal over the digit limit
        raise SchemaError(f"{path}: malformed JSON: {ex}") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None


def dump_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
