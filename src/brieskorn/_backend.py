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

  sparse row       list of (col, int), strictly increasing in col, no zero
                   entries; echelon() and rref() take primitive rows (the gcd
                   of the entries is 1) and return primitive rows
"""

import heapq
from math import gcd
from operator import add


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
        out.append((tuple(map(add, key, kshift)), tuple(map(add, exp, eshift)), nn, nd))
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


def echelon(rows):
    """Row echelon form of primitive integer rows, by fraction-free forward
    elimination (Bareiss, Math. Comp. 22, 1968); empty rows are skipped.

    Returns (echelon_rows, pivot_columns): the pivots ascend, and row k is a
    primitive integer row whose leading entry is positive and sits at
    pivots[k].  Pivot columns are not cleared from the rows above, so this
    is all the callers need that only read the pivots, or that back-solve
    one column (linalg.solve_columns).

    Rows stay primitive throughout (each elimination divides out the
    content), with one gcd pass per produced row instead of one per entry.
    Pending rows sit in buckets by leading column, with a heap of the
    columns whose bucket is nonempty.  Each step pops the smallest
    such column; the sparsest row of its bucket (earliest arrival on ties)
    becomes the pivot, and only the other rows of that bucket are
    eliminated, since no other pending row holds that column.  Each reduced
    row moves to the bucket of its new leading column, or is dropped when it
    cancels to zero.  Pivots are thus found in increasing column order.
    """
    buckets = {}
    for row in rows:
        if row:
            buckets.setdefault(row[0][0], []).append(row)
    heap = list(buckets)
    heapq.heapify(heap)
    done = []
    pivots = []
    while heap:
        col = heapq.heappop(heap)
        bucket = buckets.pop(col)
        best = 0
        for i in range(1, len(bucket)):
            if len(bucket[i]) < len(bucket[best]):
                best = i
        piv = bucket.pop(best)
        for r in bucket:
            r2 = _int_eliminate(r, piv, col)
            if r2:
                lead = r2[0][0]
                waiting = buckets.get(lead)
                if waiting is None:
                    buckets[lead] = [r2]
                    heapq.heappush(heap, lead)
                else:
                    waiting.append(r2)
        if piv[0][1] < 0:
            piv = [(c, -n) for c, n in piv]
        done.append(piv)
        pivots.append(col)
    return done, pivots


def rref(rows):
    """Reduced row echelon form of primitive integer rows.

    Returns (reduced_rows, pivot_columns); reduced rows are sorted by pivot
    column, and each pivot column holds no nonzero entry but the positive
    leading entry of its row.  Row k divided by its leading entry is row k
    of the unique RREF of the input.

    This is echelon() followed by back-substitution, which runs bottom-up:
    every row below the current one is already fully reduced, so clearing
    from a row exactly the pivot columns it holds brings in no other pivot
    column.
    """
    done, pivots = echelon(rows)
    where = {col: k for k, col in enumerate(pivots)}
    for k in range(len(done) - 2, -1, -1):
        row = done[k]
        for col in [c for c, _n in row[1:] if c in where]:
            row = _int_eliminate(row, done[where[col]], col)
        done[k] = row
    return done, pivots


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
