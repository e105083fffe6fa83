"""Per-weight block linear algebra for the two differential complexes.

A weight-homogeneous bivector (all coefficients of one total degree d)
splits both complexes into finite blocks:

* multivector side, coboundary [p, .]: weight = coeff degree - grade;
* form side, boundary delta:           weight = coeff degree + grade.

Both differentials shift the weight by d - 2, which is asserted when
blocks are assembled.  The two complexes differ only in the grade step
of their differential (`_STEP`), so one driver serves both.  Dimensions
of (co)homology come out of exact kernel/rank counts on the block
matrices; nothing is ever estimated.  The dimension tables clear (Chen,
Kerber 2011): the image of a block's incoming differential lies in its
kernel (d^2 = 0, by the Jacobi identity, which they check), and the unit
vectors off the pivot positions of that image span a complement of it,
so the block's other columns have its rank.  With p scaled to integral
coefficients, `linalg._pivots_in_place` ranks the fresh int columns.

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

from itertools import combinations_with_replacement, product
from math import lcm
from operator import lshift

from . import linalg
from .multivec import (all_index_tuples, jacobiator, check_bivector, _width,
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


def check_structure(p):
    d = structure_degree(check_bivector(p))
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


def block_basis(n, complex_kind, grade, weight):
    """Ordered (index tuple, exponent tuple) pairs spanning block (k, w)."""
    if not 0 <= grade <= n:
        return []
    mons = monomials(n, _source_degree(complex_kind, grade, weight))
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
              else _delta(n, pp, unit, grade, w, {}))
        tables[idx] = flat(t0), [flat(first(x, unit, {})) for x in fields]
    return tables


def _packed_monomials(n, deg, w):
    """(exponent tuple, the tuple packed at width w) of every monomial
    of degree deg, in canonical order: the `e, pe` that `_column`
    takes."""
    shifts = range(0, w * n, w)
    return [(e, sum(map(lshift, e, shifts))) for e in monomials(n, deg)]


def _column(table, e, pe, w):
    """D(x^e e_I) from the table entry (T0, [T_j]) of e_I, as a
    {packed key: value} dict that may hold zeros: T0 shifted by e, plus
    e_j T_j shifted by e - 1_j for every j with e_j > 0.  pe is e packed
    at width w, which only the result's exponents must fit: for d = 0,
    x^e has a higher degree than the result, and pe may carry."""
    t0, firsts = table
    col = {key + pe: v for key, v in t0.items()}
    for j, ej in enumerate(e):
        if ej:
            shift = pe - (1 << (w * j))
            for key, v in firsts[j].items():
                key += shift
                col[key] = col.get(key, 0) + ej * v
    return col


class _Blocks:
    """The blocks of one p and complex at packing width w.  Index tuples,
    packed monomials, target position maps and Leibniz tables are built
    on first use and kept, so a dimension table builds each once."""

    def __init__(self, p, complex_kind, d, w):
        self.p, self.kind, self.shift, self.w = p, complex_kind, d - 2, w
        self._idxs, self._mons, self._pos, self._tables = {}, {}, {}, {}

    def parts(self, grade, weight):
        """The index tuples and (exponent tuple, packed monomial) pairs
        whose products span block (grade, weight), in canonical order."""
        n, deg = self.p.n, _source_degree(self.kind, grade, weight)
        if not 0 <= grade <= n:
            return (), ()
        if grade not in self._idxs:
            self._idxs[grade] = all_index_tuples(n, grade)
        if deg not in self._mons:
            self._mons[deg] = _packed_monomials(n, deg, self.w)
        return self._idxs[grade], self._mons[deg]

    def columns(self, grade, weight, skip=()):
        """The columns of block (grade, weight) in the order of its
        basis, but for the source positions in `skip`, as sparse {target
        position: value} dicts: `_column` of each basis element, its
        packed keys looked up in the target block's position map."""
        idxs, mons = self.parts(grade, weight)
        if not (idxs and mons):
            return []
        n, w, tkey = self.p.n, self.w, (grade + _STEP[self.kind],
                                        weight + self.shift)
        if tkey not in self._pos:
            high = _index_keys(n, tkey[0], w)
            self._pos[tkey] = {high[t] + pe: i for i, (t, (_, pe))
                               in enumerate(product(*self.parts(*tkey)))}
        if grade not in self._tables:
            self._tables[grade] = _leibniz_tables(self.p, self.kind, grade, w)
        pos, tables, cols = self._pos[tkey], self._tables[grade], []
        for j, (idx, (e, pe)) in enumerate(product(idxs, mons)):
            if j in skip:
                continue
            try:
                # zeros are dropped before their key is looked up
                cols.append({pos[key]: v for key, v in
                             _column(tables[idx], e, pe, w).items() if v})
            except KeyError as exc:
                raise AssertionError(
                    "differential left the expected (grade, weight) "
                    "block at %r (%s, k=%d, w=%d)"
                    % (_unpack_key(exc.args[0], n, tkey[0], w),
                       self.kind, grade, weight))
        return cols


def block_matrix(p, complex_kind, grade, weight):
    """Exact differential on block (grade, weight), as sparse columns.

    Columns are indexed by the source block basis, their entries by the
    target basis: every column in full, at the block's own packing
    width (from its target degree).  The dimension tables rank the same
    columns through `_Blocks`, without the cleared ones.  The Jacobi
    identity is not checked here.
    """
    d = structure_degree(check_bivector(p))
    deg = _source_degree(complex_kind, grade, weight)
    blocks = _Blocks(p, complex_kind, d, _table_width(d, deg + d - 1))
    step = _STEP[complex_kind]
    return WeightBlock(grade, weight,
                       block_basis(p.n, complex_kind, grade, weight),
                       block_basis(p.n, complex_kind, grade + step,
                                   weight + d - 2),
                       blocks.columns(grade, weight))


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
    grade step back, at weight w - (d - 2), when both grades are in 0..n.

    Each block is assembled and ranked once, cleared (see the module
    docstring), from one `_Blocks` at the packing width of the
    table's largest source coefficient degree."""
    d, p = check_structure(p), p.scale(lcm(*(
        c.denominator for f in p.terms.values() for c in f.terms.values())))
    step, shift = _STEP[complex_kind], d - 2
    # source coefficient degrees reach max_weight (plus the top grade
    # for multivectors), and one more in rank_in blocks of a constant p
    top = max_weight + max(step * min(max_grade, p.n), 0) + int(d == 0)
    blocks = _Blocks(p, complex_kind, d, _table_width(d, top + d - 1))
    cells = [(k, w) for k in range(max_grade + 1)
             for w in range(-step * k, max_weight + 1)]
    need = set(cells) | {(k - step, w - shift) for k, w in cells
                         if step <= k <= p.n}
    # along each weight line in the differential's direction, so that a
    # block's incoming block, when needed, is ranked first
    pivots = {}
    for k, w in sorted(need, key=lambda kw: (step * kw[0], kw[1])):
        cols = blocks.columns(k, w, pivots.get((k - step, w - shift), ()))
        pivots[k, w] = set(linalg._pivots_in_place(cols))
    rows = []
    for k, w in cells:
        idxs, mons = blocks.parts(k, w)
        dim_c, rank_out = len(idxs) * len(mons), len(pivots[k, w])
        rank_in = len(pivots.get((k - step, w - shift), ()))
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
