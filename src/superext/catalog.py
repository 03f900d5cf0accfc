"""Small standard algebras used in tests, docs and the golden corpus."""

from __future__ import annotations

from .superlie import SuperLieAlgebra, abelian_algebra, algebra_from_table


def abelian(n_even: int, n_odd: int, prefix: str = "a") -> SuperLieAlgebra:
    """The abelian algebra A(n_even | n_odd)."""
    names = [f"{prefix}{i}" for i in range(n_even + n_odd)]
    parities = [0] * n_even + [1] * n_odd
    return abelian_algebra(names, parities)


def sl2() -> SuperLieAlgebra:
    """sl(2): [H,E] = 2E, [H,F] = -2F, [E,F] = H; purely even."""
    return algebra_from_table(
        ("H", "E", "F"), (0, 0, 0),
        {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1}},
    )


def heis3() -> SuperLieAlgebra:
    """The even Heisenberg algebra: [P,Q] = Z, Z central."""
    return algebra_from_table(("P", "Q", "Z"), (0, 0, 0), {("P", "Q"): {"Z": 1}})


def susy_line() -> SuperLieAlgebra:
    """The supersymmetry line: H even central, Q odd, [Q,Q] = 2H."""
    return algebra_from_table(("H", "Q"), (0, 1), {("Q", "Q"): {"H": 2}})


def gl11() -> SuperLieAlgebra:
    """gl(1|1): even a, d and odd x, y with [x,y] = a + d."""
    return algebra_from_table(
        ("a", "d", "x", "y"), (0, 0, 1, 1),
        {
            ("a", "x"): {"x": 1}, ("a", "y"): {"y": -1},
            ("d", "x"): {"x": -1}, ("d", "y"): {"y": 1},
            ("x", "y"): {"a": 1, "d": 1},
        },
    )


def osp12() -> SuperLieAlgebra:
    """osp(1|2): sl(2) on H, E, F and odd Q+, Q- with [Q+,Q-] = H.

    Also [Q+,Q+] = 2E, [Q-,Q-] = -2F, and the Q's span the natural sl(2) module.
    """
    return algebra_from_table(
        ("H", "E", "F", "Q+", "Q-"), (0, 0, 0, 1, 1),
        {
            ("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1},
            ("Q+", "Q+"): {"E": 2}, ("Q-", "Q-"): {"F": -2}, ("Q+", "Q-"): {"H": 1},
            ("H", "Q+"): {"Q+": 1}, ("H", "Q-"): {"Q-": -1},
            ("E", "Q-"): {"Q+": -1}, ("F", "Q+"): {"Q-": -1},
        },
    )
