"""Gauss-Manin data read off the exponent multiset.

The top Gauss-Manin lattice of an isolated quasi-homogeneous germ is
semisimple (nilpotent part N = 0, exponents in (-1, n-1)), so the multiset
of its exponents, the t*dt eigenvalues on the C{t}-basis of the top
Brieskorn module, fixes it.  That multiset is kept as its pieces: a list of
(alpha, dim) pairs sorted by the rational exponent alpha, dim its
multiplicity.  Everything else here is a function of the pieces.  Monodromy
stays symbolic: alpha mod 1, never a complex float.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from brieskorn.engine import ct_basis, milnor_number
from brieskorn.germ import GermProblem, NonIsolatedError
from brieskorn.poly import format_rational

Pieces = list[tuple[Fraction, int]]


def from_brieskorn(problem: GermProblem) -> Pieces:
    """Pieces of the top Gauss-Manin lattice of an isolated germ, read off
    the t*dt eigenvalues c/d - 1 on the C{t}-basis of the reduced top module."""
    if milnor_number(problem) is None:
        raise NonIsolatedError("finite models need an isolated singularity")
    return sorted(Counter(cls.tdt_eigenvalue() for cls in ct_basis(problem)).items())


def serialize(pieces: Pieces) -> list[dict]:
    """The pieces with their (zero) nilpotent parts written out as dim x dim matrices."""
    return [
        {"alpha": format_rational(a), "dim": d, "nilpotent": [["0"] * d for _ in range(d)]}
        for a, d in pieces
    ]


def _window(pieces: Pieces, shift) -> Pieces:
    counts: Counter = Counter()
    for a, d in pieces:
        counts[a - shift(a)] += d
    return sorted(counts.items())


def psi_phi(pieces: Pieces) -> tuple[Pieces, Pieces]:
    """Nearby/vanishing windows: exponents reduced mod 1 into (-1, 0] and
    [-1, 0).  Both reductions keep the total dimension."""
    return _window(pieces, math.ceil), _window(pieces, lambda a: math.floor(a) + 1)


def can_surjective(pieces: Pieces) -> bool:
    """Whether can, the map from the nearby to the vanishing window, is onto.

    It is the identity on the pieces with non-integral exponents.  On the
    unipotent part the pieces only pin down the map from a literal alpha = 0
    piece to a literal alpha = -1 piece, and absent a connection datum that
    map is zero: can is onto exactly when no piece has alpha = -1.
    """
    return all(a != -1 for a, _d in pieces)
