"""Polynomial differential forms and the operators the engine composes:
exterior derivative, wedge and df-wedge.

A degree-i form stores Polynomial coefficients against strictly increasing
wedge index tuples; entries() and from_entries() convert it to and from the
keyed entries ((W, e), c) of its monomial forms x^e dx_W.  Wedging
arbitrary tuples sorts them and tracks the permutation parity, which fixes
every Koszul sign bit-stably.  monomial_images is the one rule for d: the
slice systems take their d images from it, and exterior_derivative and
differential sum them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

from brieskorn.poly import Polynomial, format_rational, parse_rational

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
    def _of(cls, nvars: int, degree: int, coeffs: dict) -> "DifferentialForm":
        """The form of coeffs, unchecked: strictly increasing wedge tuples of
        length degree and nonzero polynomials, owned by the result."""
        f = cls.__new__(cls)
        f.nvars, f.degree, f.coeffs = nvars, degree, coeffs
        return f

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "DifferentialForm":
        return cls(nvars, degree)

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

    def entries(self) -> list:
        """The terms c x^e dx_W as keyed entries ((W, e), c), unsorted."""
        return [((w, e), c) for w, p in self.coeffs.items() for e, c in p.terms.items()]

    @classmethod
    def from_entries(cls, nvars: int, degree: int, entries) -> "DifferentialForm":
        """The form sum c x^e dx_W of keyed entries ((W, e), c); equal keys are
        summed and zeros dropped."""
        polys: dict[WedgeIndex, dict] = {}
        for (wedge, exp), c in entries:
            terms = polys.setdefault(wedge, {})
            s = terms.get(exp)
            terms[exp] = c if s is None else s + c
        return cls(nvars, degree, {w: Polynomial(nvars, t) for w, t in polys.items()})

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
        return DifferentialForm._of(self.nvars, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm._of(self.nvars, self.degree, {w: -p for w, p in self.coeffs.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __mul__(self, scalar) -> "DifferentialForm":
        if isinstance(scalar, (int, Fraction, Polynomial)):
            out = {}
            for w, p in self.coeffs.items():
                q = p * scalar
                if q:
                    out[w] = q
            return DifferentialForm._of(self.nvars, self.degree, out)
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
        return DifferentialForm._of(self.nvars, deg, out)

    def exterior_derivative(self) -> "DifferentialForm":
        """d: degree i -> i+1, by monomial_images; d(d(anything)) = 0."""
        return _d(self)

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


def differential(p: Polynomial) -> DifferentialForm:
    """The 1-form dp."""
    return _d(DifferentialForm(p.nvars, 0, {(): p}))


def _d(form: DifferentialForm) -> DifferentialForm:
    """d(form), summed over the d images of its monomial forms."""
    entries = form.entries()
    d_images = monomial_images(form.nvars, [key for key, _c in entries])[0]
    terms = ((key, c * s) for (_key, c), image in zip(entries, d_images) for key, s in image)
    return DifferentialForm.from_entries(form.nvars, form.degree + 1, terms)


def monomial_images(nvars: int, items: Sequence[tuple], partials=None) -> tuple[list[list], list[list]]:
    """Keyed entries of d(beta) and of df wedge beta for every basis form beta.

    beta = x^e dx_w runs over items, a list of (w, e) pairs; partials is
    partial_terms(f), and without it the df images are left empty.  By
    exponent arithmetic, with one Fraction per distinct d entry: d(beta)
    has the entry sign * e_j at (w + j, e - 1_j), and df wedge beta the
    terms of sign * (df/dx_j) x^e at w + j, for each j not in w, where sign
    is (-1)^(number of indices of w below j).  Entries are in the sorted
    order of the images' terms: the wedges w + j ascend with j, and shifting
    a partial's sorted terms by e keeps their order.  Keys within one image
    are distinct, so each image is a column of keyed entries for linalg.
    """
    if partials is None:
        partials = (((), ()),) * nvars
    scalars: dict[int, Fraction] = {}
    d_images, df_images = [], []
    for wedge, exp in items:
        d_entries, df_entries = [], []
        below = 0  # indices of the wedge below j
        for j in range(nvars):
            if below < len(wedge) and wedge[below] == j:
                below += 1
                continue
            new_wedge = (*wedge[:below], j, *wedge[below:])
            odd = below % 2
            if exp[j]:
                lowered = (*exp[:j], exp[j] - 1, *exp[j + 1 :])
                k = -exp[j] if odd else exp[j]
                scalar = scalars.get(k)
                if scalar is None:
                    scalar = scalars[k] = Fraction(k)
                d_entries.append(((new_wedge, lowered), scalar))
            for e2, c in partials[j][odd]:
                df_entries.append(((new_wedge, tuple(map(add, e2, exp))), c))
        d_images.append(d_entries)
        df_images.append(df_entries)
    return d_images, df_images


def partial_terms(f: Polynomial) -> tuple[tuple[list, list], ...]:
    """Per variable j, the sorted terms of df/dx_j and the same terms negated.

    Kept on f itself, so they go with it, and shared by every caller, which
    only reads them.
    """
    if f._partials is None:
        out = []
        for j in range(f.nvars):
            terms = sorted(f.partial_derivative(j).terms.items())
            out.append((terms, [(exp, -c) for exp, c in terms]))
        f._partials = tuple(out)
    return f._partials


def df_wedge(f: Polynomial, omega: DifferentialForm) -> DifferentialForm:
    """df wedged onto omega, with the standard Koszul signs.

    By exponent arithmetic: for each term p dx_w of omega and each j not in
    w, (df/dx_j) p lands at the wedge w + j with the sign (-1)^(number of
    indices of w below j).  A form of degree >= nvars gives zero.  This is
    the rule of monomial_images on whole forms, kept as its own loop: built
    on monomial_images, the df_wedge round trip of engine._df_kernel_vectors
    made spectrum-bp's solve_s about 35% slower (2-core x86_64, pure Python).
    """
    if f.nvars != omega.nvars:
        raise ValueError("forms on different coordinate rings")
    nvars = f.nvars
    acc: dict[WedgeIndex, dict] = {}
    if omega.degree < nvars:
        partials = partial_terms(f)
        for wedge, p in omega.coeffs.items():
            terms = p.terms.items()
            below = 0  # indices of the wedge below j
            for j in range(nvars):
                if below < len(wedge) and wedge[below] == j:
                    below += 1
                    continue
                dterms = partials[j][below % 2]
                if not dterms:
                    continue
                new_wedge = (*wedge[:below], j, *wedge[below:])
                out = acc.get(new_wedge)
                if out is None:
                    out = acc[new_wedge] = {}
                for e2, c2 in terms:
                    unit = c2 == 1
                    for e1, c1 in dterms:
                        exp = tuple(map(add, e1, e2))
                        c = c1 if unit else c1 * c2
                        s = out.get(exp)
                        out[exp] = c if s is None else s + c
    coeffs = {}
    for wedge, out in acc.items():
        out = {exp: c for exp, c in out.items() if c}
        if out:
            coeffs[wedge] = Polynomial._of(nvars, out)
    return DifferentialForm._of(nvars, omega.degree + 1, coeffs)


def volume_form(nvars: int, coefficient: Polynomial | None = None) -> DifferentialForm:
    p = coefficient if coefficient is not None else Polynomial.constant(nvars, 1)
    return DifferentialForm(nvars, nvars, {tuple(range(nvars)): p})


def form_from_payload(payload: list, variables: Sequence[str], degree: int) -> DifferentialForm:
    """Inverse of DifferentialForm.payload (used by report verification); a
    ValueError on exponents that are not non-negative ints (a Laurent form
    is not a polynomial form) and on coefficients that are not literals."""
    index = {name: i for i, name in enumerate(variables)}
    entries = []
    for entry in payload:
        wedge = tuple(index[name] for name in entry["wedge"])
        exp = tuple(entry["exponents"])
        if not all(type(v) is int and v >= 0 for v in exp):
            raise ValueError(f"exponents {entry['exponents']!r} are not non-negative integers")
        entries.append(((wedge, exp), parse_rational(entry["coeff"])))
    return DifferentialForm.from_entries(len(variables), degree, entries)
