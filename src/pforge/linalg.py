"""Exact linear algebra over the rationals.

Rank goes through one sparse fraction-free engine: rows are scaled to
primitive integer vectors and eliminated with Markowitz pivoting, so
mostly-zero block matrices cost in proportion to their nonzeros and
intermediate entries stay integers with no common factor.  `rref`,
`nullspace` and `solve` work on dense lists of lists of Fraction, and
`Subspace` keeps one span's echelon form for repeated membership,
coordinate and quotient queries; the point of all of it is exactness
and determinism.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd


def _lcm(a, b):
    return a // gcd(a, b) * b


def _divide_content(vec):
    """Divide an int row by the gcd of its entries, in place."""
    g = gcd(*vec.values())
    if g != 1:
        for c in vec:
            vec[c] //= g


def _primitive_rows(rows):
    """Nonzero rows as {column: int} dicts with coprime entries, keyed
    by position, and the column -> row ids index over them."""
    live, where = {}, {}
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        vec = {c: x for c, x in items if x}
        if not vec:
            continue
        den = 1
        for x in vec.values():
            den = _lcm(den, x.denominator)
        for c, x in vec.items():
            vec[c] = x.numerator * (den // x.denominator)
        _divide_content(vec)
        live[i] = vec
        for c in vec:
            where.setdefault(c, set()).add(i)
    return live, where


def _markowitz_pivot(live, where):
    """(row id, column) minimising (row length - 1) * (column length - 1)."""
    best, best_cost = None, None
    for i, vec in live.items():
        row_cost = len(vec) - 1
        for c in vec:
            cost = row_cost * (len(where[c]) - 1)
            if best_cost is None or cost < best_cost:
                best, best_cost = (i, c), cost
                if cost == 0:
                    return best
    return best


def rank(rows):
    """Exact rank by sparse fraction-free elimination.

    Each row is a sequence or a sparse {column: value} dict of ints or
    Fractions; only nonzero entries are read and the input is not
    modified.  Each step eliminates the pivot's column from every other
    row as a*row - b*pivot, with gcd(a, b) divided out first, and keeps
    the updated row primitive so entries stay small.
    """
    live, where = _primitive_rows(rows)
    r = 0
    while live:
        i, c = _markowitz_pivot(live, where)
        prow = live.pop(i)
        for k in prow:
            where[k].discard(i)
        pv = prow[c]
        for j in list(where.pop(c)):
            row = live[j]
            g = gcd(pv, row[c])
            s, t = pv // g, row[c] // g
            if s != 1:
                for k in row:
                    row[k] *= s
            for k, v in prow.items():
                x = row.get(k, 0) - t * v
                if x:
                    if k not in row:
                        where[k].add(j)
                    row[k] = x
                else:
                    del row[k]
                    if k != c:
                        where[k].discard(j)
            if row:
                _divide_content(row)
            else:
                del live[j]
        r += 1
    return r


def rref(mat):
    """Reduced row echelon form over Fraction.

    Returns (rref_matrix, pivot_columns).  The input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(mat, ncols=None):
    """Basis of the right kernel, as a list of Fraction vectors."""
    if not mat:
        return [unit_vector(i, ncols) for i in range(ncols)] if ncols else []
    cols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat * x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(b == 0 for b in rhs) else None
    cols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def unit_vector(i, n):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def row_space_basis(rows):
    """Independent subset-free basis (rref rows) of the span of `rows`."""
    rows = [r for r in rows if any(x != 0 for x in r)]
    if not rows:
        return []
    red, pivots = rref(rows)
    return [red[i] for i in range(len(pivots))]


def subspace_equal(rows_a, rows_b):
    """Equal row spans: the reduced echelon basis of a span is unique."""
    return row_space_basis(rows_a) == row_space_basis(rows_b)


def intersect(rows_a, rows_b):
    """Basis of the intersection of two row-span subspaces of Q^n."""
    a = row_space_basis(rows_a)
    b = row_space_basis(rows_b)
    if not a or not b:
        return []
    n = len(a[0])
    # Zassenhaus: kernel of [A; B] stacked as columns trick via solving
    # x in span(a) and x in span(b): coefficients (u, v) with u*A = v*B.
    mat = []
    for c in range(n):
        mat.append([a[i][c] for i in range(len(a))] +
                   [-b[j][c] for j in range(len(b))])
    combined = []
    for k in nullspace(mat):
        vec = [sum(k[i] * a[i][c] for i in range(len(a))) for c in range(n)]
        combined.append(vec)
    return row_space_basis(combined)


class Subspace:
    """The row span of `rows` in Q^n, reduced to echelon form once.

    `basis` is the reduced row echelon basis, the rows `row_space_basis`
    gives.  `coords(vec)` writes a vector of the span over `rows` as
    given, uniquely when they are independent.  `complement` lists the
    unit vectors e_i, taken greedily in order of i, that extend the span
    to Q^n, and `project(vec)` gives the coordinates of vec along them
    in the splitting Q^n = span(rows) + span(complement): the image of
    vec in the quotient Q^n / span(rows).
    """

    def __init__(self, rows, n):
        if any(len(row) != n for row in rows):
            raise ValueError("subspace rows must have length %d" % n)
        self.n = n
        m = len(rows)
        red, pivots = rref([list(row) + unit_vector(i, m)
                            for i, row in enumerate(rows)])
        k = sum(1 for p in pivots if p < n)
        self._pivots = pivots[:k]
        self.basis = [row[:n] for row in red[:k]]
        # echelon row i equals sum_j combos[i][j] * rows[j]
        self._combos = [row[n:] for row in red[:k]]
        self._size = m

    def contains(self, vec):
        out = list(vec)
        for p, row in zip(self._pivots, self.basis):
            f = vec[p]
            if f:
                out = [a - f * b for a, b in zip(out, row)]
        return not any(out)

    def coords(self, vec):
        """Coefficients c with sum c_j rows[j] == vec, or None outside."""
        if not self.contains(vec):
            return None
        out = [Fraction(0)] * self._size
        for p, combo in zip(self._pivots, self._combos):
            f = vec[p]
            if f:
                out = [a + f * b for a, b in zip(out, combo)]
        return out

    @cached_property
    def _splitting(self):
        """Complement indices and the matrix of the quotient map, from
        one elimination of [basis^T | I_n]: its pivot columns are the
        basis, then the greedy complement, and the identity block ends
        as the inverse of [basis^T | complement]."""
        k, n = len(self.basis), self.n
        red, pivots = rref([[b[r] for b in self.basis] + unit_vector(r, n)
                            for r in range(n)])
        return [p - k for p in pivots[k:]], [row[k:] for row in red[k:]]

    @property
    def complement(self):
        return [unit_vector(i, self.n) for i in self._splitting[0]]

    def project(self, vec):
        """Coordinates of vec along `complement`, modulo the span."""
        return mat_vec(self._splitting[1], vec)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def identity(n):
    return [unit_vector(i, n) for i in range(n)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def invert(mat):
    """Exact inverse of a square matrix, or None if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + unit_vector(i, n)
           for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]
