"""The Fraction echelon accumulator, kept as the reference for linalg.Echelon.

It holds the unique RREF of the span as {col: Fraction} rows with a 1 at
each pivot; linalg.Echelon must agree with it on every observable: add's
result, rank, pivots and the residual of reduce, which linalg.Echelon
returns scaled to lead 1, so it is compared with this residual at lead 1.
"""

from bisect import bisect_left


class FractionEchelon:
    def __init__(self):
        self.rows = []
        self.pivots = []

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        out = {c: v for c, v in vec.items() if v}
        for p, row in zip(self.pivots, self.rows):
            c = out.get(p)
            if not c:
                continue
            for col, val in row.items():
                s = out.get(col, 0) - c * val
                if s:
                    out[col] = s
                else:
                    out.pop(col, None)
        return out

    def add(self, vec):
        r = self.reduce(vec)
        if not r:
            return False
        pivot = min(r)
        inv = 1 / r[pivot]
        row = {c: v * inv for c, v in r.items()}
        # Jordan step: clear the new pivot column from existing rows
        for i, existing in enumerate(self.rows):
            c = existing.get(pivot)
            if not c:
                continue
            updated = dict(existing)
            for col, val in row.items():
                s = updated.get(col, 0) - c * val
                if s:
                    updated[col] = s
                else:
                    updated.pop(col, None)
            self.rows[i] = updated
        at = bisect_left(self.pivots, pivot)
        self.pivots.insert(at, pivot)
        self.rows.insert(at, row)
        return True
