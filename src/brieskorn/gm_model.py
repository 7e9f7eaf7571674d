"""Finite models of regular holonomic modules in one variable.

A model is a finite list of pieces (alpha, dim): alpha the rational exponent
(t*dt eigenvalue) and dim its multiplicity.  Models are engine-built only:
they come from the t*dt eigenvalues on the C{t}-basis of the top Brieskorn
module of an isolated quasi-homogeneous germ, whose monodromy is semisimple
(nilpotent part N = 0, exponents in (-1, n-1)).  Monodromy stays symbolic:
alpha mod 1, never a complex float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from brieskorn.engine import GermProblem, NonIsolatedError, ct_basis
from brieskorn.poly import format_rational


@dataclass(frozen=True)
class GMPiece:
    alpha: Fraction
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("piece dimension must be positive")


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
        """Pieces with their (zero) nilpotent parts written out as dim x dim matrices."""
        return {
            "pieces": [
                {
                    "alpha": format_rational(p.alpha),
                    "dim": p.dim,
                    "nilpotent": [["0"] * p.dim for _ in range(p.dim)],
                }
                for p in self.pieces
            ]
        }

    def __repr__(self):
        body = ", ".join(f"({format_rational(p.alpha)}, {p.dim})" for p in self.pieces)
        return f"ElementaryGMModule([{body}])"


def from_brieskorn(problem: GermProblem) -> ElementaryGMModule:
    """Model of the top Gauss-Manin lattice of an isolated germ.

    Pieces are read off the t*dt eigenvalues c/d - 1 on the C{t}-basis of
    the reduced top module; quasi-homogeneity makes the action semisimple,
    so every nilpotent part is zero.
    """
    if problem.milnor_number() is None:
        raise NonIsolatedError("finite models need an isolated singularity")
    counts: dict[Fraction, int] = {}
    for item in ct_basis(problem, reduced=True):
        counts[item.exponent] = counts.get(item.exponent, 0) + 1
    pieces = [GMPiece(alpha, dim) for alpha, dim in counts.items()]
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
    kernel of the nilpotent part, which is the whole piece since N = 0.
    """
    total = 0
    for p in module.pieces:
        if p.alpha.denominator == 1 and p.alpha >= 0:
            below = module.piece_at(p.alpha - 1)
            if below is None:
                continue  # the pairing leaves the recorded window: no kernel
            total += p.dim
    return total
