"""Per-weight block linear algebra for the two differential complexes.

A weight-homogeneous bivector (all coefficients of one total degree d)
splits both complexes into finite blocks:

* multivector side, coboundary [p, .]: weight = coeff degree - grade;
* form side, boundary delta:           weight = coeff degree + grade.

Both differentials shift the weight by d - 2, which is asserted when
blocks are assembled.  Dimensions of (co)homology come out of exact
kernel/rank counts on the block matrices; nothing is ever estimated.
"""

from fractions import Fraction
from operator import add

from . import linalg
from .ratpoly import Poly
from .multivec import (Multivector, all_index_tuples, jacobiator,
                       lichnerowicz_dp, GradeMismatch)
from .forms import Form, delta, NonInvolutive


class NonHomogeneous(ValueError):
    """Bivector coefficients are not all of one total degree."""


LICHNEROWICZ = "lichnerowicz"
CANONICAL = "canonical"


def structure_degree(p):
    """Common total degree of p's coefficients (0 for the zero bivector)."""
    degs = set()
    for c in p.terms.values():
        degs.update(sum(e) for e in c.terms)
    if len(degs) > 1:
        raise NonHomogeneous("coefficient degrees %s" % sorted(degs))
    return degs.pop() if degs else 0


def _bivector_degree(p):
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector")
    return structure_degree(p)


def check_structure(p):
    d = _bivector_degree(p)
    if not jacobiator(p).is_zero():
        raise NonInvolutive("bivector is not involutive")
    return d


def monomials(n, deg):
    """All exponent tuples of total degree deg, in canonical order."""
    if deg < 0:
        return []
    out = []
    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)
    if n == 0:
        return [()] if deg == 0 else []
    rec([], deg, n)
    return sorted(out)


def block_basis(n, complex_kind, grade, weight):
    """Ordered (index tuple, exponent tuple) pairs spanning block (k, w)."""
    if complex_kind == LICHNEROWICZ:
        deg = weight + grade
    elif complex_kind == CANONICAL:
        deg = weight - grade
    else:
        raise ValueError("unknown complex %r" % (complex_kind,))
    if deg < 0 or grade < 0 or grade > n:
        return []
    mons = monomials(n, deg)
    return [(idx, e) for idx in all_index_tuples(n, grade) for e in mons]


class WeightBlock:
    """One graded, weighted piece of a complex with its differential.

    `columns[j]` is the image of `basis[j]` as a sparse
    {target row: value} dict.
    """

    __slots__ = ("grade", "weight", "basis", "target_basis", "columns")

    def __init__(self, grade, weight, basis, target_basis, columns):
        self.grade = grade
        self.weight = weight
        self.basis = basis
        self.target_basis = target_basis
        self.columns = columns

    @property
    def matrix(self):
        """Dense matrix: rows indexed by the target basis, columns by
        the source."""
        m = [[Fraction(0)] * len(self.basis) for _ in self.target_basis]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                m[i][j] = v
        return m


def _leibniz_tables(p, complex_kind, grade):
    """The differential D of the complex on one grade, as tables that
    fix its value on every polynomial coefficient.

    D is first order in the coefficient, D(f u) = f D(u) +
    sum_j (df/dx_j) (D(x_j u) - x_j D(u)), so for each index tuple I of
    the grade it is enough to know T0 = D(e_I) and, for each variable j,
    T_j = D(x_j e_I) - x_j D(e_I).  Maps I to (T0, [T_0, ..., T_{n-1}]),
    each a sparse {(target index tuple, exponent tuple): value} dict.
    """
    n = p.n
    if complex_kind == LICHNEROWICZ:
        op, kind = lichnerowicz_dp, Multivector
    else:
        op, kind = delta, Form

    def image(idx, e):
        y = op(p, kind(n, grade, {idx: Poly(n, {e: 1})}))
        return {(t, f): v for t, c in y.terms.items()
                for f, v in c.terms.items()}
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    tables = {}
    for idx in all_index_tuples(n, grade):
        t0 = image(idx, (0,) * n)
        firsts = []
        for j, unit in enumerate(units):
            tj = image(idx, unit)
            for (t, f), v in t0.items():
                key = (t, tuple(map(add, f, unit)))
                x = tj.get(key, 0) - v
                if x:
                    tj[key] = x
                else:
                    del tj[key]
            firsts.append(tj)
        tables[idx] = t0, firsts
    return tables


def block_matrix(p, complex_kind, grade, weight, _tables=None):
    """Exact differential on block (grade, weight), as sparse columns.

    Columns are indexed by the source block basis, their entries by the
    target basis.  The column of x^e e_I is read off the Leibniz tables
    of the grade (`_leibniz_tables`): T0 with its exponents shifted by e,
    plus e_j T_j shifted by e - 1_j for every j with e_j > 0.  `_tables`
    is a {grade: tables} dict that keeps them across the blocks of one
    p and complex.  The Jacobi identity is not checked here.
    """
    d = _bivector_degree(p)
    n = p.n
    basis = block_basis(n, complex_kind, grade, weight)
    if complex_kind == LICHNEROWICZ:
        tgrade = grade + 1
    else:
        tgrade = grade - 1
    tweight = weight + d - 2
    target = block_basis(n, complex_kind, tgrade, tweight)
    if not basis:
        return WeightBlock(grade, weight, basis, target, [])
    if _tables is None:
        _tables = {}
    tables = _tables.get(grade)
    if tables is None:
        tables = _tables[grade] = _leibniz_tables(p, complex_kind, grade)
    pos = {key: i for i, key in enumerate(target)}
    cols = []
    for idx, e in basis:
        t0, firsts = tables[idx]
        parts = [(t0, e, 1)]
        parts += [(firsts[j], e[:j] + (ej - 1,) + e[j + 1:], ej)
                  for j, ej in enumerate(e) if ej]
        col, stray = {}, {}
        for table, shift, m in parts:
            for (t, f), v in table.items():
                key = t, tuple(map(add, f, shift))
                i = pos.get(key)
                if i is None:
                    stray[key] = stray.get(key, 0) + m * v
                else:
                    col[i] = col.get(i, 0) + m * v
        for key, v in stray.items():
            if v:
                raise AssertionError(
                    "differential left the expected (grade, weight) block "
                    "at %r (%s, k=%d, w=%d)" % (key, complex_kind, grade,
                                                weight))
        cols.append({i: v for i, v in col.items() if v})
    return WeightBlock(grade, weight, basis, target, cols)


def _ranked_blocks(p, complex_kind):
    """(grade, weight) -> (block dimension, rank of the differential),
    assembling and ranking each block once."""
    memo, tables = {}, {}

    def dim_rank(grade, weight):
        if (grade, weight) not in memo:
            blk = block_matrix(p, complex_kind, grade, weight,
                               _tables=tables)
            memo[grade, weight] = len(blk.basis), linalg.rank(blk.columns)
        return memo[grade, weight]
    return dim_rank


def poisson_cohomology_dims(p, max_grade, max_weight):
    """dim H^k(w) for the [p, .] complex, per grade and weight.

    Returns a list of row dicts {grade, weight, dim_C, rank_in,
    rank_out, dim_H} in canonical order.  Multivector weights run from
    -grade (grade with constant coefficients) up to max_weight.
    """
    shift = check_structure(p) - 2
    dim_rank = _ranked_blocks(p, LICHNEROWICZ)
    rows = []
    for k in range(max_grade + 1):
        for w in range(-k, max_weight + 1):
            dim_c, rank_out = dim_rank(k, w)
            rank_in = dim_rank(k - 1, w - shift)[1] if k else 0
            rows.append({"grade": k, "weight": w, "dim_C": dim_c,
                         "rank_in": rank_in, "rank_out": rank_out,
                         "dim_H": dim_c - rank_out - rank_in})
    return rows


def canonical_homology_dims(p, max_grade, max_weight):
    """dim H_k(w) for the delta complex, per grade and weight.

    Form weights start at the grade (constant coefficients).
    """
    shift = check_structure(p) - 2
    dim_rank = _ranked_blocks(p, CANONICAL)
    rows = []
    for k in range(max_grade + 1):
        for w in range(k, max_weight + 1):
            dim_c, rank_out = dim_rank(k, w)
            rank_in = dim_rank(k + 1, w - shift)[1]
            rows.append({"grade": k, "weight": w, "dim_C": dim_c,
                         "rank_in": rank_in, "rank_out": rank_out,
                         "dim_H": dim_c - rank_out - rank_in})
    return rows
