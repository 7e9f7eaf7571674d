"""Polynomial differential forms and the operators the engine composes:
exterior derivative, df-wedge, interior product, Lie derivative.

A degree-i form stores Polynomial coefficients against strictly increasing
wedge index tuples.  Wedging arbitrary tuples sorts them and tracks the
permutation parity, which fixes every Koszul sign bit-stably.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from brieskorn.poly import Polynomial, format_rational, monomial_weight

WedgeIndex = tuple[int, ...]


def _sort_wedge(indices: Sequence[int]) -> tuple[int, WedgeIndex] | None:
    """Sort wedge indices, returning (sign, sorted tuple); None on repetition."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return sign, tuple(idx)


class DifferentialForm:
    """Degree-i polynomial differential form on a fixed coordinate ring."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, degree: int, coeffs=None):
        # degree > nvars is allowed but such forms are necessarily zero
        if degree < 0:
            raise ValueError("negative form degree")
        self.nvars = nvars
        self.degree = degree
        clean: dict[WedgeIndex, Polynomial] = {}
        if coeffs:
            for wedge, poly in coeffs.items():
                wedge = tuple(wedge)
                if len(wedge) != degree:
                    raise ValueError(f"wedge tuple {wedge} has wrong length")
                if any(not 0 <= i < nvars for i in wedge):
                    raise ValueError(f"wedge index out of range in {wedge}")
                if any(wedge[k] >= wedge[k + 1] for k in range(len(wedge) - 1)):
                    raise ValueError(f"wedge tuple {wedge} not strictly increasing")
                if poly:
                    clean[wedge] = poly
        self.coeffs = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "DifferentialForm":
        return cls(nvars, degree)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "DifferentialForm":
        return cls(p.nvars, 0, {(): p})

    @classmethod
    def monomial_form(cls, nvars: int, wedge: Sequence[int], poly: Polynomial):
        return cls(nvars, len(tuple(wedge)), {tuple(wedge): poly})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted((w, hash(p)) for w, p in self.coeffs.items()))))

    def items(self):
        return sorted(self.coeffs.items())

    # -- linear algebra -----------------------------------------------------

    def _check(self, other: "DifferentialForm"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("forms of different type")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check(other)
        out = dict(self.coeffs)
        for w, p in other.coeffs.items():
            s = out.get(w)
            s = p if s is None else s + p
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        f = DifferentialForm.__new__(DifferentialForm)
        f.nvars, f.degree, f.coeffs = self.nvars, self.degree, out
        return f

    def __neg__(self) -> "DifferentialForm":
        f = DifferentialForm.__new__(DifferentialForm)
        f.nvars, f.degree = self.nvars, self.degree
        f.coeffs = {w: -p for w, p in self.coeffs.items()}
        return f

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __mul__(self, scalar) -> "DifferentialForm":
        if isinstance(scalar, (int, Fraction, Polynomial)):
            out = {}
            for w, p in self.coeffs.items():
                q = p * scalar
                if q:
                    out[w] = q
            f = DifferentialForm.__new__(DifferentialForm)
            f.nvars, f.degree, f.coeffs = self.nvars, self.degree, out
            return f
        return NotImplemented

    __rmul__ = __mul__

    # -- exterior calculus ----------------------------------------------------

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.nvars != other.nvars:
            raise ValueError("forms on different coordinate rings")
        deg = self.degree + other.degree
        out: dict[WedgeIndex, Polynomial] = {}
        for w1, p1 in self.coeffs.items():
            for w2, p2 in other.coeffs.items():
                sorted_ = _sort_wedge(w1 + w2)
                if sorted_ is None:
                    continue
                sign, w = sorted_
                q = p1 * p2 if sign > 0 else -(p1 * p2)
                s = out.get(w)
                s = q if s is None else s + q
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        f = DifferentialForm.__new__(DifferentialForm)
        f.nvars, f.degree, f.coeffs = self.nvars, deg, out
        return f

    def exterior_derivative(self) -> "DifferentialForm":
        """d: degree i -> i+1; d(d(anything)) = 0."""
        out: dict[WedgeIndex, Polynomial] = {}
        for w, p in self.coeffs.items():
            for j in range(self.nvars):
                dp = p.partial_derivative(j)
                if not dp:
                    continue
                sorted_ = _sort_wedge((j,) + w)
                if sorted_ is None:
                    continue
                sign, nw = sorted_
                q = dp if sign > 0 else -dp
                s = out.get(nw)
                s = q if s is None else s + q
                if s:
                    out[nw] = s
                else:
                    out.pop(nw, None)
        f = DifferentialForm.__new__(DifferentialForm)
        f.nvars, f.degree, f.coeffs = self.nvars, self.degree + 1, out
        return f

    def interior_product(self, field: "VectorField") -> "DifferentialForm":
        """Contraction with a vector field; zero form on degree-0 input."""
        if self.degree == 0:
            return DifferentialForm.zero(self.nvars, 0)
        out: dict[WedgeIndex, Polynomial] = {}
        for w, p in self.coeffs.items():
            for pos, idx in enumerate(w):
                comp = field.components[idx]
                if not comp:
                    continue
                q = p * comp
                if pos % 2:
                    q = -q
                nw = w[:pos] + w[pos + 1 :]
                s = out.get(nw)
                s = q if s is None else s + q
                if s:
                    out[nw] = s
                else:
                    out.pop(nw, None)
        f = DifferentialForm.__new__(DifferentialForm)
        f.nvars, f.degree, f.coeffs = self.nvars, self.degree - 1, out
        return f

    def lie_derivative(self, field: "VectorField") -> "DifferentialForm":
        """Cartan's formula: L_v = d(i_v .) + i_v(d .)."""
        b = self.exterior_derivative().interior_product(field)
        if self.degree == 0:
            return b
        a = self.interior_product(field).exterior_derivative()
        return a + b

    # -- grading ----------------------------------------------------------------

    def weighted_degree(self, weights: Sequence[Fraction]):
        """Common weighted degree (dx_i counts with weight w_i), or None."""
        if not self.coeffs:
            raise ValueError("the zero form has no weighted degree")
        degree = None
        for w, p in self.coeffs.items():
            shift = sum(weights[i] for i in w)
            for exp in p.terms:
                d = monomial_weight(exp, weights) + shift
                if degree is None:
                    degree = d
                elif d != degree:
                    return None
        return Fraction(degree)

    def total_degree_cap(self) -> int:
        """Maximal coefficient total degree (used for cap bookkeeping)."""
        return max((p.total_degree() for p in self.coeffs.values()), default=-1)

    # -- display ----------------------------------------------------------------

    def serialize(self, variables: Sequence[str]) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for w, p in self.items():
            dx = "^".join(f"d{variables[i]}" for i in w)
            body = p.serialize(variables)
            if len(p) > 1:
                body = f"({body})"
            chunks.append(f"{body} {dx}".strip())
        return " + ".join(chunks)

    def payload(self, variables: Sequence[str]) -> list:
        """Canonically ordered (coefficient, exponents, wedge) triples."""
        out = []
        for w, p in self.items():
            for exp, c in p.sorted_terms():
                out.append(
                    {
                        "coeff": format_rational(c),
                        "exponents": list(exp),
                        "wedge": [variables[i] for i in w],
                    }
                )
        return out

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"DifferentialForm({self.serialize(names)})"


class VectorField:
    """Polynomial vector field, one component per coordinate."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Polynomial]):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("vector field needs at least one component")
        n = self.components[0].nvars
        if any(p.nvars != n for p in self.components):
            raise ValueError("components from different rings")
        if len(self.components) != n:
            raise ValueError("component count must equal variable count")

    @property
    def nvars(self) -> int:
        return len(self.components)

    def apply(self, p: Polynomial) -> Polynomial:
        """Directional derivative of a polynomial."""
        out = Polynomial.zero(p.nvars)
        for i, comp in enumerate(self.components):
            if comp:
                out = out + comp * p.partial_derivative(i)
        return out

    def serialize(self, variables: Sequence[str]) -> str:
        chunks = []
        for i, p in enumerate(self.components):
            if p:
                body = p.serialize(variables)
                if len(p) > 1:
                    body = f"({body})"
                chunks.append(f"{body}*d/d{variables[i]}")
        return " + ".join(chunks) if chunks else "0"

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"VectorField({self.serialize(names)})"


def differential(p: Polynomial) -> DifferentialForm:
    """The 1-form dp."""
    coeffs = {}
    for j in range(p.nvars):
        dp = p.partial_derivative(j)
        if dp:
            coeffs[(j,)] = dp
    return DifferentialForm(p.nvars, 1, coeffs)


def df_wedge(f: Polynomial, omega: DifferentialForm) -> DifferentialForm:
    """df wedged onto omega, with the standard Koszul signs."""
    return differential(f).wedge(omega)


def volume_form(nvars: int, coefficient: Polynomial | None = None) -> DifferentialForm:
    p = coefficient if coefficient is not None else Polynomial.constant(nvars, 1)
    return DifferentialForm(nvars, nvars, {tuple(range(nvars)): p})


def form_from_payload(payload: list, variables: Sequence[str], degree: int) -> DifferentialForm:
    """Inverse of DifferentialForm.payload (used by report verification)."""
    index = {name: i for i, name in enumerate(variables)}
    nvars = len(variables)
    coeffs: dict[WedgeIndex, Polynomial] = {}
    for entry in payload:
        wedge = tuple(index[name] for name in entry["wedge"])
        exp = tuple(int(v) for v in entry["exponents"])
        coeff = Fraction(entry["coeff"])
        poly = coeffs.get(wedge, Polynomial.zero(nvars))
        coeffs[wedge] = poly + Polynomial.monomial(nvars, exp, coeff)
    return DifferentialForm(nvars, degree, coeffs)
