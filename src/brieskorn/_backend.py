"""Hot kernels: polynomial reduction and exact row reduction.

These two loops dominate the runtime of every nontrivial computation in the
engine (Groebner bases and weight-slice linear algebra).

Data formats:

  flat term        (key, exp, num, den)
      key: tuple[int]  additive order key; key[0] encodes -component for
                       module terms (0 for ring polynomials)
      exp: tuple[int]  exponent vector
      num, den:        coefficient as a reduced fraction, den > 0
  flat polynomial  list of flat terms, strictly descending in key

  sparse row       list of (col, num, den), strictly increasing in col
"""

from math import gcd


def _norm(num, den):
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        num //= g
        den //= g
    return num, den


def add_terms(p, q):
    """Merged sum of two flat polynomials."""
    out = []
    i = j = 0
    np_, nq = len(p), len(q)
    while i < np_ and j < nq:
        tp, tq = p[i], q[j]
        kp, kq = tp[0], tq[0]
        if kp > kq:
            out.append(tp)
            i += 1
        elif kp < kq:
            out.append(tq)
            j += 1
        else:
            num = tp[2] * tq[3] + tq[2] * tp[3]
            if num:
                den = tp[3] * tq[3]
                num, den = _norm(num, den)
                out.append((kp, tp[1], num, den))
            i += 1
            j += 1
    out.extend(p[i:])
    out.extend(q[j:])
    return out


def scale_monomial_mul(p, kshift, eshift, num, den):
    """Multiply a flat polynomial by (num/den) * monomial(kshift, eshift)."""
    if not num:
        return []
    out = []
    for key, exp, n, d in p:
        nn, nd = _norm(n * num, d * den)
        out.append(
            (
                tuple(a + b for a, b in zip(key, kshift)),
                tuple(a + b for a, b in zip(exp, eshift)),
                nn,
                nd,
            )
        )
    return out


def normal_form(p, basis):
    """Fully reduced remainder of p modulo the flat polynomials in `basis`.

    Every term of the result is divisible by no basis lead; the quotients are
    discarded.  Basis elements are scanned in list order, which together with
    the sorted term lists makes the result deterministic.
    """
    if not basis:
        return list(p)
    leads = [g[0] for g in basis]
    nv = len(p[0][1]) if p else 0
    out = []
    work = list(p)
    while work:
        key, exp, num, den = work[0]
        comp = key[0]
        hit = -1
        for gi, (gkey, gexp, gnum, gden) in enumerate(leads):
            if gkey[0] != comp:
                continue
            ok = True
            for v in range(nv):
                if exp[v] < gexp[v]:
                    ok = False
                    break
            if ok:
                hit = gi
                break
        if hit < 0:
            out.append(work[0])
            work = work[1:]
            continue
        gkey, gexp, gnum, gden = leads[hit]
        # work -= (term/lead) * g ; the leads cancel exactly
        cnum, cden = _norm(-num * gden, den * gnum)
        kshift = tuple(a - b for a, b in zip(key, gkey))
        eshift = tuple(a - b for a, b in zip(exp, gexp))
        prod = scale_monomial_mul(basis[hit][1:], kshift, eshift, cnum, cden)
        work = add_terms(work[1:], prod)
    return out


def rref(rows):
    """Reduced row echelon form of sparse rational rows.

    Returns (reduced_rows, pivot_columns); reduced rows are sorted by pivot
    column, each pivot coefficient is 1 and is the only nonzero entry in its
    column.  Pivot choice (sparsest candidate, lowest index on ties) is
    deterministic.

    Internally rows are primitive integer vectors (denominators cleared,
    content divided out), so elimination is fraction-free with one gcd pass
    per produced row instead of one per entry.
    """
    pending = [_int_row(r) for r in rows if r]
    done = []
    pivots = []
    while pending:
        col = min(r[0][0] for r in pending)
        best = -1
        best_len = -1
        for i, r in enumerate(pending):
            if r[0][0] == col and (best < 0 or len(r) < best_len):
                best = i
                best_len = len(r)
        piv = pending.pop(best)
        next_pending = []
        for r in pending:
            r2 = _int_eliminate(r, piv, col)
            if r2:
                next_pending.append(r2)
        done = [_int_eliminate(r, piv, col) for r in done]
        done.append(piv)
        pivots.append(col)
        pending = next_pending
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    out = []
    for i in order:
        row = done[i]
        lead = row[0][1]
        out.append([(c, *_norm(n, lead)) for c, n in row])
    return out, sorted(pivots)


def _int_row(row):
    """Clear denominators and strip content: [(col, int)] with gcd 1."""
    scale = 1
    for _c, _n, d in row:
        scale = scale * d // gcd(scale, d)
    ints = [(c, n * (scale // d)) for c, n, d in row]
    g = 0
    for _c, n in ints:
        g = gcd(g, n)
        if g == 1:
            return ints
    return [(c, n // g) for c, n in ints] if g > 1 else ints


def _int_eliminate(row, piv, col):
    """Fraction-free elimination of `col` from an integer row.

    Computes piv_lead * row - row[col] * piv (aligned merge), then divides
    by the content.
    """
    a = None
    for c, n in row:
        if c == col:
            a = n
            break
        if c > col:
            break
    if a is None:
        return row
    b = piv[0][1]  # pivot leading coefficient sits at `col`
    out = []
    g = 0
    i = j = 0
    nr, npv = len(row), len(piv)
    while i < nr and j < npv:
        rc = row[i][0]
        pc = piv[j][0]
        if rc < pc:
            v = b * row[i][1]
            out.append((rc, v))
            g = gcd(g, v)
            i += 1
        elif rc > pc:
            v = -a * piv[j][1]
            out.append((pc, v))
            g = gcd(g, v)
            j += 1
        else:
            v = b * row[i][1] - a * piv[j][1]
            if v:
                out.append((rc, v))
                g = gcd(g, v)
            i += 1
            j += 1
    while i < nr:
        v = b * row[i][1]
        out.append((row[i][0], v))
        g = gcd(g, v)
        i += 1
    while j < npv:
        v = -a * piv[j][1]
        out.append((piv[j][0], v))
        g = gcd(g, v)
        j += 1
    if g > 1:
        out = [(c, v // g) for c, v in out]
    return out
