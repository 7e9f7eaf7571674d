"""Finite models of regular holonomic modules in one variable.

A model is a finite list of pieces (alpha, dim, N): alpha the rational
exponent (generalized t*dt eigenvalue), N the nilpotent part on that piece.
Engine-built models come from the t*dt eigenvalues on the C{t}-basis of the
top Brieskorn module of an isolated quasi-homogeneous germ (semisimple, so
N = 0, exponents in (-1, n-1)).  Monodromy stays symbolic: alpha mod 1,
never a complex float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from brieskorn.engine import GermProblem, NonIsolatedError, ct_basis
from brieskorn.poly import format_rational


@dataclass(frozen=True)
class GMPiece:
    alpha: Fraction
    dim: int
    nilpotent: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("piece dimension must be positive")
        n = self.nilpotent
        if len(n) != self.dim or any(len(row) != self.dim for row in n):
            raise ValueError("nilpotent matrix shape must match the dimension")
        if not _is_nilpotent(n):
            raise ValueError("matrix is not nilpotent")

    @property
    def monodromy_exponent(self) -> Fraction:
        """alpha mod 1 in [0, 1): the symbolic monodromy eigenvalue datum."""
        return self.alpha - (self.alpha.numerator // self.alpha.denominator)


def _zero_matrix(dim: int) -> tuple[tuple[Fraction, ...], ...]:
    z = Fraction(0)
    return tuple(tuple(z for _ in range(dim)) for _ in range(dim))


def _mat_mul(a, b):
    dim = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(dim)), Fraction(0)) for j in range(dim))
        for i in range(dim)
    )


def _is_nilpotent(m) -> bool:
    dim = len(m)
    power = m
    for _ in range(dim):
        if all(not entry for row in power for entry in row):
            return True
        power = _mat_mul(power, m)
    return all(not entry for row in power for entry in row)


def _mat_rank(m) -> int:
    from brieskorn import linalg

    ech = linalg.Echelon()
    for row in m:
        vec = {j: v for j, v in enumerate(row) if v}
        if vec:
            ech.add(vec)
    return ech.rank


class ElementaryGMModule:
    """Direct sum of pieces with distinct exponents."""

    def __init__(self, pieces):
        pieces = sorted(pieces, key=lambda p: p.alpha)
        alphas = [p.alpha for p in pieces]
        if len(set(alphas)) != len(alphas):
            raise ValueError("piece exponents must be distinct")
        self.pieces = list(pieces)

    @property
    def total_dimension(self) -> int:
        return sum(p.dim for p in self.pieces)

    def piece_at(self, alpha) -> GMPiece | None:
        alpha = Fraction(alpha)
        for p in self.pieces:
            if p.alpha == alpha:
                return p
        return None

    def v_dim(self, alpha) -> int:
        """Dimension of the V-graded piece at exactly alpha."""
        p = self.piece_at(alpha)
        return p.dim if p else 0

    def v_filtration_dim(self, alpha) -> int:
        """Dimension of V^alpha = sum of pieces with exponent >= alpha."""
        alpha = Fraction(alpha)
        return sum(p.dim for p in self.pieces if p.alpha >= alpha)

    def serialize(self) -> dict:
        return {
            "pieces": [
                {
                    "alpha": format_rational(p.alpha),
                    "dim": p.dim,
                    "nilpotent": [[format_rational(v) for v in row] for row in p.nilpotent],
                }
                for p in self.pieces
            ]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ElementaryGMModule":
        pieces = []
        for item in payload["pieces"]:
            dim = int(item["dim"])
            nil = item.get("nilpotent")
            if nil is None:
                matrix = _zero_matrix(dim)
            else:
                matrix = tuple(tuple(Fraction(v) for v in row) for row in nil)
            pieces.append(GMPiece(Fraction(item["alpha"]), dim, matrix))
        return cls(pieces)

    @classmethod
    def load(cls, path) -> "ElementaryGMModule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_payload(json.load(fh))

    def __repr__(self):
        body = ", ".join(f"({format_rational(p.alpha)}, {p.dim})" for p in self.pieces)
        return f"ElementaryGMModule([{body}])"


def from_brieskorn(problem: GermProblem, i: int | None = None) -> ElementaryGMModule:
    """Model of the top Gauss-Manin lattice of an isolated germ.

    Pieces are read off the t*dt eigenvalues c/d - 1 on the C{t}-basis of
    the reduced top module; quasi-homogeneity makes the action semisimple,
    so every nilpotent part is zero.
    """
    if i is not None and i != problem.n:
        raise ValueError("only the top cohomological degree carries the lattice model")
    if problem.milnor_number() is None:
        raise NonIsolatedError("finite models need an isolated singularity")
    counts: dict[Fraction, int] = {}
    for item in ct_basis(problem, reduced=True):
        counts[item.exponent] = counts.get(item.exponent, 0) + 1
    pieces = [GMPiece(alpha, dim, _zero_matrix(dim)) for alpha, dim in counts.items()]
    return ElementaryGMModule(pieces)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x).numerator // (-x).denominator)


@dataclass
class WindowedModule:
    """Mod-1 reduction of a module's pieces into an exponent window."""

    pieces: list[tuple[Fraction, int]]

    @property
    def dim(self) -> int:
        return sum(d for _a, d in self.pieces)


def psi_phi(module: ElementaryGMModule) -> tuple[WindowedModule, WindowedModule]:
    """Nearby/vanishing windows: exponents reduced mod 1 into (-1, 0] and
    [-1, 0).  Both reductions are dimension-preserving."""
    psi: dict[Fraction, int] = {}
    phi: dict[Fraction, int] = {}
    for p in module.pieces:
        a_psi = p.alpha - _ceil(p.alpha)
        a_phi = p.alpha - _floor(p.alpha) - 1
        psi[a_psi] = psi.get(a_psi, 0) + p.dim
        phi[a_phi] = phi.get(a_phi, 0) + p.dim
    return (
        WindowedModule(sorted(psi.items())),
        WindowedModule(sorted(phi.items())),
    )


@dataclass
class CanMap:
    """The map from the nearby to the vanishing window.

    Identity on the shared pieces with non-integral exponents.  On the
    unipotent part the model's data only pins down the map between a
    literal alpha = 0 piece and a literal alpha = -1 piece; absent an
    explicit connection datum that map is zero (so surjectivity there
    means the literal -1 piece is absent).
    """

    shared_dim: int
    unipotent_source_dim: int
    unipotent_target_dim: int
    surjective: bool


def can_map(module: ElementaryGMModule) -> CanMap:
    shared = sum(
        p.dim for p in module.pieces if (p.alpha - _ceil(p.alpha)) != 0
    )
    source = module.v_dim(Fraction(0))
    target = module.v_dim(Fraction(-1))
    return CanMap(shared, source, target, surjective=(target == 0))


def dt_cone_kernel_dim(module: ElementaryGMModule) -> int:
    """Kernel dimension of the connection in the de Rham cone of the model.

    The connection lowers exponents by one; on an engine-built lattice
    (exponents in (-1, n-1), semisimple) a kernel vector would have to sit
    at a nonnegative integer exponent with no pairing below it, inside the
    kernel of the nilpotent part.
    """
    total = 0
    for p in module.pieces:
        if p.alpha.denominator == 1 and p.alpha >= 0:
            below = module.piece_at(p.alpha - 1)
            if below is None:
                continue  # the pairing leaves the recorded window: no kernel
            total += p.dim - _mat_rank(p.nilpotent)
    return total
