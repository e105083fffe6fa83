"""Per-weight block linear algebra for the two differential complexes.

A weight-homogeneous bivector (all coefficients of one total degree d)
splits both complexes into finite blocks:

* multivector side, coboundary [p, .]: weight = coeff degree - grade;
* form side, boundary delta:           weight = coeff degree + grade.

Both differentials shift the weight by d - 2, which is asserted when
blocks are assembled.  The two complexes differ only in the grade step
of their differential (`_STEP`), so one driver serves both.  Dimensions
of (co)homology come out of exact kernel/rank counts on the block
matrices; nothing is ever estimated.

Blocks are read off Leibniz tables of the differential D, one per
(complex, grade).  D is first order: with the coordinates' Hamiltonian
fields X_j = [p, x_j] = sum_i {x_j, x_i} d_i, the Leibniz identities
[p, f u] = f [p, u] + X_f ^ u and delta(f a) = f delta(a) + i_{X_f} a
give D(f e_I) = f T0 + sum_j (df/dx_j) T_j, with T0 = D(e_I) and
T_j = X_j ^ e_I (multivectors) or i_{X_j} e_I (forms).  Table entries,
column shifts and the target position map all use packed keys: the
target index tuple's position above the n packed exponents (w bits
each), so shifting an entry by a monomial is one int add.  w is the
bit length of the largest target coefficient degree, and at least that
of d + 1 (table entries reach degree d): a dimension table fixes one w
for all its blocks, and a standalone `block_matrix` uses its own.
"""

from itertools import combinations_with_replacement
from operator import lshift

from . import linalg
from .multivec import (all_index_tuples, jacobiator, GradeMismatch, _width,
                       _pack, _schouten, _wedge, _coordinate_fields)
from .forms import NonInvolutive, _delta, _interior


class NonHomogeneous(ValueError):
    """Bivector coefficients are not all of one total degree."""


LICHNEROWICZ = "lichnerowicz"
CANONICAL = "canonical"
# the grade step of each complex's differential: [p, .] raises the
# grade by one, delta lowers it by one
_STEP = {LICHNEROWICZ: 1, CANONICAL: -1}


def structure_degree(p):
    """Common total degree of p's coefficients (0 for the zero bivector)."""
    degs = {sum(e) for c in p.terms.values() for e in c.terms}
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
    for factors in combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in factors:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out)


def _source_degree(complex_kind, grade, weight):
    """Coefficient degree of the basis elements of block (grade, weight):
    weight + grade for multivectors, weight - grade for forms."""
    if complex_kind not in _STEP:
        raise ValueError("unknown complex %r" % (complex_kind,))
    return weight + _STEP[complex_kind] * grade


def _block_parts(n, complex_kind, grade, weight):
    """The index tuples and the exponent tuples whose products span
    block (grade, weight), each in canonical order."""
    deg = _source_degree(complex_kind, grade, weight)
    if deg < 0 or grade < 0 or grade > n:
        return [], []
    return all_index_tuples(n, grade), monomials(n, deg)


def block_basis(n, complex_kind, grade, weight):
    """Ordered (index tuple, exponent tuple) pairs spanning block (k, w)."""
    idxs, mons = _block_parts(n, complex_kind, grade, weight)
    return [(idx, e) for idx in idxs for e in mons]


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
        m = [[0] * len(self.basis) for _ in self.target_basis]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                m[i][j] = v
        return m


def _table_width(d, top):
    """Packing width for the tables and blocks of a degree-d bivector
    whose largest target coefficient degree is top.  Table entries
    reach degree d (the coefficients of the fields X_j), and every
    shifted table entry has exactly its block's target degree."""
    return _width(max(top, d + 1))


def _index_keys(n, grade, w):
    """{index tuple: its position among the grade's tuples, shifted
    past the n packed exponents}: the high part of a packed key."""
    if grade < 0:
        return {}
    return {idx: i << (w * n)
            for i, idx in enumerate(all_index_tuples(n, grade))}


def _leibniz_tables(p, complex_kind, grade, w):
    """The Leibniz tables of D on one grade (see the module docstring):
    {I: (T0, [T_0, ..., T_{n-1}])} over the grade's index tuples I, each
    entry a sparse {packed key: value} dict at width w.  The fields X_j
    are read off p's packed coefficients once per call."""
    n = p.n
    pp = _pack(p, w)
    lich = complex_kind == LICHNEROWICZ
    first = _wedge if lich else _interior
    high = _index_keys(n, grade + _STEP[complex_kind], w)

    def flat(acc):
        return {high[t] + e: v for t, terms in acc.items()
                for e, v in terms.items() if v}
    fields = _coordinate_fields(pp, n)
    tables = {}
    for idx in all_index_tuples(n, grade):
        unit = {idx: {0: 1}}
        # [p, e_I] = S(e_I, p): S(p, e_I) differentiates a constant
        t0 = (_schouten(unit, pp, w, {}) if lich
              else _delta(n, pp, unit, grade, w))
        tables[idx] = flat(t0), [flat(first(x, unit, {})) for x in fields]
    return tables


def _column(table, e, w):
    """D(x^e e_I) from the table entry (T0, [T_j]) of e_I, as a
    {packed key: value} dict that may hold zeros: T0 shifted by e, plus
    e_j T_j shifted by e - 1_j for every j with e_j > 0."""
    t0, firsts = table
    pe = sum(map(lshift, e, range(0, w * len(e), w)))
    col = {key + pe: v for key, v in t0.items()}
    for j, ej in enumerate(e):
        if ej:
            shift = pe - (1 << (w * j))
            for key, v in firsts[j].items():
                key += shift
                col[key] = col.get(key, 0) + ej * v
    return col


def block_matrix(p, complex_kind, grade, weight, _tables=None,
                 _min_width=None):
    """Exact differential on block (grade, weight), as sparse columns.

    Columns are indexed by the source block basis, their entries by the
    target basis.  The column of x^e e_I is read off the Leibniz tables
    of the grade (`_leibniz_tables`, `_column`).  Keys, shifts and the
    target position map are packed at one width, so each shift is one
    int add.  The width is the block's own (from its target
    degree), or the larger `_min_width` that a dimension table fixes for
    all its blocks.  `_tables` is a {(grade, width): tables} dict that keeps
    the tables across the blocks of one p and complex.  The Jacobi
    identity is not checked here.
    """
    d = _bivector_degree(p)
    n = p.n
    idxs, mons = _block_parts(n, complex_kind, grade, weight)
    basis = [(idx, e) for idx in idxs for e in mons]
    tgrade = grade + _STEP[complex_kind]
    tweight = weight + d - 2
    tidxs, tmons = _block_parts(n, complex_kind, tgrade, tweight)
    target = [(t, e) for t in tidxs for e in tmons]
    if not basis:
        return WeightBlock(grade, weight, basis, target, [])
    deg = _source_degree(complex_kind, grade, weight)
    w = max(_table_width(d, deg + d - 1), _min_width or 0)
    if _tables is None:
        _tables = {}
    tables = _tables.get((grade, w))
    if tables is None:
        tables = _tables[grade, w] = _leibniz_tables(p, complex_kind,
                                                     grade, w)
    shifts = range(0, w * n, w)
    high = _index_keys(n, tgrade, w)
    packed = [sum(map(lshift, e, shifts)) for e in tmons]
    pos = {}
    for t in tidxs:
        for pe in packed:
            pos[high[t] + pe] = len(pos)
    cols = []
    for idx in idxs:
        for e in mons:
            col = _column(tables[idx], e, w)
            try:
                # zeros are dropped before their key is looked up
                cols.append({pos[key]: v for key, v in col.items() if v})
            except KeyError as exc:
                raise AssertionError(
                    "differential left the expected (grade, weight) "
                    "block at %r (%s, k=%d, w=%d)"
                    % (_unpack_key(exc.args[0], n, tgrade, w),
                       complex_kind, grade, weight))
    return WeightBlock(grade, weight, basis, target, cols)


def _unpack_key(key, n, grade, w):
    """(index tuple, exponent tuple) of a packed block key."""
    tuples = all_index_tuples(n, grade)
    mask = (1 << w) - 1
    return (tuples[key >> (w * n)],
            tuple(key >> s & mask for s in range(0, w * n, w)))


def _dims(p, complex_kind, max_grade, max_weight):
    """Rows {grade, weight, dim_C, rank_in, rank_out, dim_H} of one
    complex, in canonical order.  Weights start where the grade's
    coefficients are constant.  rank_in is the rank of the block one
    grade step back, at weight w - (d - 2), when that grade exists.

    Each block is assembled and ranked once.  One packing width, from
    the largest source coefficient degree of the table, serves every
    block, so the tables of each grade are built once."""
    d = check_structure(p)
    step, shift = _STEP[complex_kind], d - 2
    # source coefficient degrees reach max_weight (plus max_grade for
    # multivectors), and one more in the rank_in blocks of a constant p
    top = max_weight + max(step * max_grade, 0) + int(d == 0)
    w_min = _table_width(d, top + d - 1)
    memo, tables = {}, {}

    def dim_rank(grade, weight):
        if (grade, weight) not in memo:
            blk = block_matrix(p, complex_kind, grade, weight,
                               _tables=tables, _min_width=w_min)
            memo[grade, weight] = len(blk.basis), linalg.rank(blk.columns)
        return memo[grade, weight]

    rows = []
    for k in range(max_grade + 1):
        for w in range(-step * k, max_weight + 1):
            dim_c, rank_out = dim_rank(k, w)
            rank_in = dim_rank(k - step, w - shift)[1] if k - step >= 0 else 0
            rows.append({"grade": k, "weight": w, "dim_C": dim_c,
                         "rank_in": rank_in, "rank_out": rank_out,
                         "dim_H": dim_c - rank_out - rank_in})
    return rows


def poisson_cohomology_dims(p, max_grade, max_weight):
    """dim H^k(w) for the [p, .] complex, per grade and weight.

    Returns a list of row dicts {grade, weight, dim_C, rank_in,
    rank_out, dim_H} in canonical order.  Multivector weights run from
    -grade (grade with constant coefficients) up to max_weight.
    """
    return _dims(p, LICHNEROWICZ, max_grade, max_weight)


def canonical_homology_dims(p, max_grade, max_weight):
    """dim H_k(w) for the delta complex, per grade and weight.

    Form weights start at the grade (constant coefficients).
    """
    return _dims(p, CANONICAL, max_grade, max_weight)
