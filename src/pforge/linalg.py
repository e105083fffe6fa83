"""Exact linear algebra over the rationals.

One sparse exact engine does every elimination.  Rows are sequences or
sparse {column: value} dicts of ints or Fractions, and only nonzero
entries are read.  Every public entry leaves its input unmodified: it
eliminates copies scaled to primitive integer vectors.  Only
`_pivots_in_place` consumes its rows, the fresh {column: int} columns
of the (co)homology tables.  A column -> rows index finds the rows each
pivot must clear, so a mostly-zero matrix costs in proportion to its
nonzeros and entries stay integers with no common factor.  One pivot
rule serves every caller: the leftmost live column, on its shortest
live row.  `pivots` lists the pivot columns, `rank` counts them, and
both drop each used pivot row; `rref` also clears each pivot column
from the earlier pivot rows, leaving the unique reduced row echelon
form, off which `nullspace`, `solve`, `row_space_basis`, `intersect`
and `Subspace` (one span reduced once, for repeated membership,
coordinate and quotient queries) read dense answers; `kernel_coords`
needs no elimination.

Every entry of an answer is exact and in one normal form (`exact`): an
`int` when it is integral, else a `Fraction` whose denominator is not 1.
Integral data stays in `int` arithmetic throughout, and a `Fraction` is
built only where a division leaves the integers.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


def exact(x):
    """x in normal form: an int when integral, else a Fraction.  Any
    value that `Fraction` takes is accepted; a bool becomes an int."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_vector(v):
    """The entries of v in normal form, as a list."""
    return [x if type(x) is int else exact(x) for x in v]


def _divide_content(vec):
    """Divide an int row by the gcd of its entries, in place."""
    g = gcd(*vec.values())
    if g != 1:
        for c in vec:
            vec[c] //= g


def _entries(row):
    return row.items() if isinstance(row, dict) else enumerate(row)


def _primitive_rows(rows):
    """{position: fresh primitive {column: int} dict} of nonzero rows."""
    live = {}
    for i, row in enumerate(rows):
        if vec := {c: x for c, x in _entries(row) if x}:
            if any(type(x) is not int for x in vec.values()):
                den = lcm(*(x.denominator for x in vec.values()))
                for c, x in vec.items():
                    vec[c] = x.numerator * (den // x.denominator)
            _divide_content(vec)
            live[i] = vec
    return live


def _eliminate(live, reduced=False):
    """The one elimination loop: (pivot column, pivot row) pairs in
    pivot order, pivot rows as {column: int} dicts.

    `live` maps row ids to nonempty, zero-free {column: int} dicts, which
    it updates in place.  The pivot is the leftmost live column, on its
    shortest live row (the lowest id on a tie).  Each step clears the
    pivot's column from every other indexed row as a*row - b*pivot,
    a > 0, gcd(a, b) divided out first, and keeps the updated row
    primitive; scaling a row changes no support, so the pivots do not
    depend on the rows being primitive.  A step adds only columns right
    of its pivot to live rows, so one pass over the sorted columns finds
    every pivot.  Unless `reduced`, each pivot row leaves the index; if
    `reduced`, pivot rows stay indexed and each later step clears its
    column from the earlier pivot rows too: the reduced echelon form.
    """
    where, vecs = {}, dict(live)
    for i, row in live.items():
        for c in row:
            where.setdefault(c, set()).add(i)
    pivots = []
    for c in sorted(where):
        if not live:
            break
        ids = [i for i in where[c] if i in live] if reduced else where[c]
        if not ids:
            continue
        i = min(ids, key=lambda i: (len(live[i]), i))
        prow = live.pop(i)
        pivots.append((c, prow))
        for k in (c,) if reduced else prow:
            where[k].discard(i)
        pv = prow[c]
        rest = [(k, v) for k, v in prow.items() if k != c]
        for j in where.pop(c):
            row = vecs[j]
            x = row.pop(c)
            g = gcd(pv, x)
            s, t = pv // g, x // g
            if s < 0:
                s, t = -s, -t
            if s != 1:
                for k in row:
                    row[k] *= s
            for k, v in rest:
                x = row.get(k)
                if x is None:
                    row[k] = -t * v
                    where[k].add(j)
                    continue
                x -= t * v
                if x:
                    row[k] = x
                else:
                    del row[k]
                    where[k].discard(j)
            if row:
                _divide_content(row)
            else:
                del live[j], vecs[j]
    return pivots


def pivots(rows):
    """Pivot columns, in pivot order, of one non-reduced elimination of
    a copy of the rows (`_pivots_in_place` eliminates them in place):
    the unit vectors off these columns complement the row span."""
    return [c for c, _ in _eliminate(_primitive_rows(rows))]


def _pivots_in_place(rows):
    """`pivots` of zero-free {column: int} dicts, which it consumes."""
    return [c for c, _ in _eliminate(dict(enumerate(filter(None, rows))))]


def rank(rows):
    """Exact rank, the number of `pivots`."""
    return len(pivots(rows))


def _quotient(v, pivot):
    """v / pivot for ints, in normal form."""
    q, r = divmod(v, pivot)
    return Fraction(v, pivot) if r else q


def _reduce(rows):
    """The nonzero rows of the reduced row echelon form, as (pivot
    column, {column: entry}) pairs by increasing pivot column, entries
    in normal form."""
    return [(c, {k: _quotient(v, row[c]) for k, v in row.items()})
            for c, row in _eliminate(_primitive_rows(rows), True)]


def _width(rows, ncols):
    """ncols, or else the length of the first row, a sequence."""
    if ncols is None:
        if rows and isinstance(rows[0], dict):
            raise TypeError("rows given as dicts need ncols")
        ncols = len(rows[0]) if rows else 0
    return ncols


def _dense(row, lo, hi):
    """Entries lo..hi-1 of a sparse row, as a list."""
    return [row.get(k, 0) for k in range(lo, hi)]


def rref(rows, ncols=None):
    """Reduced row echelon form: (rows, pivot columns).

    As many dense rows as given, the nonzero ones first.
    `ncols` is needed only for dict rows; the input is not modified.
    """
    n = _width(rows, ncols)
    red = _reduce(rows)
    out = [_dense(row, 0, n) for _, row in red]
    out += [[0] * n for _ in range(len(rows) - len(red))]
    return out, [c for c, _ in red]


def nullspace(rows, ncols=None):
    """Basis of the right kernel, one vector per non-pivot (free) column;
    `ncols` is needed only for dict rows.  The vector of free column f
    is 1 at f, 0 at every other free column and 0 past f."""
    n = _width(rows, ncols)
    red = _reduce(rows)
    pivots = {c for c, _ in red}
    basis = {f: unit_vector(f, n) for f in range(n) if f not in pivots}
    for c, row in red:
        for k, v in row.items():
            if k != c:
                basis[k][c] = -v
    return list(basis.values())


def kernel_coords(basis):
    """The coordinate map of a `nullspace` basis, or of any basis whose
    vectors are each 1 at their last nonzero place, where the others
    are 0: vec's coordinates are its entries at those places.  The map
    returns them only if they recombine to vec, so a vector outside the
    span gives None, and a basis of another shape None or the true
    coordinates."""
    free = [max(k for k, x in enumerate(b) if x) for b in basis]
    sparse = [[(k, x) for k, x in enumerate(b) if x] for b in basis]

    def coords(vec):
        c = [vec[f] for f in free]
        out = list(vec)
        for a, row in zip(c, sparse):
            if a:
                for k, x in row:
                    out[k] -= a * x
        return None if any(out) else exact_vector(c)
    return coords


def solve(rows, rhs, ncols=None):
    """One solution of rows * x = rhs, or None if inconsistent; `ncols`
    is needed only for dict rows."""
    n = _width(rows, ncols)
    x = [0] * n
    for c, row in _reduce([{**dict(_entries(row)), n: b}
                           for row, b in zip(rows, rhs)]):
        if c == n:
            return None
        x[c] = row.get(n, 0)
    return x


def unit_vector(i, n):
    v = [0] * n
    v[i] = 1
    return v


def row_space_basis(rows, ncols=None):
    """The reduced row echelon basis of the span of `rows`; `ncols` is
    needed only for dict rows."""
    n = _width(rows, ncols)
    return [_dense(row, 0, n) for _, row in _reduce(rows)]


def subspace_equal(rows_a, rows_b):
    """Equal row spans: the reduced echelon basis of a span is unique."""
    return row_space_basis(rows_a) == row_space_basis(rows_b)


def intersect(rows_a, rows_b, ncols=None):
    """Reduced echelon basis of the intersection of two row spans in
    Q^n; `ncols` is needed only for dict rows.

    Zassenhaus: in the span of the rows (a, a) and (b, 0), the vectors
    (0, y) are those with y in both spans, and the reduced echelon rows
    with a pivot past n are a reduced echelon basis of them."""
    n = _width(rows_a or rows_b, ncols)
    red = _reduce([{**dict(_entries(row)),
                    **{n + c: x for c, x in _entries(row)}} for row in rows_a]
                  + list(rows_b))
    return [_dense(row, n, 2 * n) for c, row in red if c >= n]


def _fits(row, n):
    """A sequence of length n, or a dict with columns in range(n)."""
    if isinstance(row, dict):
        return all(0 <= c < n for c in row)
    return len(row) == n


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
        if not all(_fits(row, n) for row in rows):
            raise ValueError("subspace rows must have length %d" % n)
        self.n = n
        red = [(c, row) for c, row in _reduce(
            [{**dict(_entries(row)), n + i: 1} for i, row in enumerate(rows)])
               if c < n]
        self.basis = [_dense(row, 0, n) for _, row in red]
        # (pivot, sparse basis row, sparse combination): echelon row i
        # equals the sum of combination[j] * rows[j]
        self._rows = [(c, {k: x for k, x in row.items() if k < n},
                       {k - n: x for k, x in row.items() if k >= n})
                      for c, row in red]
        self._size = len(rows)

    def contains(self, vec):
        out = list(vec)
        for p, row, _ in self._rows:
            f = vec[p]
            if f:
                for k, x in row.items():
                    out[k] -= f * x
        return not any(out)

    def coords(self, vec):
        """Coefficients c with sum c_j rows[j] == vec, or None outside."""
        if not self.contains(vec):
            return None
        out = [0] * self._size
        for p, _, combo in self._rows:
            f = vec[p]
            if f:
                for k, x in combo.items():
                    out[k] += f * x
        return exact_vector(out)

    @cached_property
    def _splitting(self):
        """Complement indices and the matrix of the quotient map, from
        one elimination of [basis^T | I_n]: its pivot columns are the
        basis, then the greedy complement, and the identity block ends
        as the inverse of [basis^T | complement]."""
        k, n = len(self.basis), self.n
        red, pivots = rref([{**{j: b[r] for j, b in enumerate(self.basis)},
                             k + r: 1} for r in range(n)], k + n)
        return [p - k for p in pivots[k:]], [row[k:] for row in red[k:]]

    @property
    def complement(self):
        return [unit_vector(i, self.n) for i in self._splitting[0]]

    def project(self, vec):
        """Coordinates of vec along `complement`, modulo the span."""
        return mat_vec(self._splitting[1], vec)


def mat_mul(a, b):
    """Product of dense matrices; zero entries of a and b are skipped."""
    cols = len(b[0]) if b else 0
    sparse = [[(k, y) for k, y in enumerate(brow) if y] for brow in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, sparse):
            if x:
                for k, y in brow:
                    acc[k] += x * y
        out.append(exact_vector(acc))
    return out


def mat_vec(a, v):
    """a v; only the nonzero entries of v are read."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    return exact_vector(sum(row[k] * x for k, x in nz) for row in a)


def identity(n):
    return [unit_vector(i, n) for i in range(n)]


def mat_sub(a, b):
    return [exact_vector(x - y for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)]
