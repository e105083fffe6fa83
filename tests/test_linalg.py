import copy
import random
from fractions import Fraction
from math import gcd

import pytest

from pforge import linalg
from pforge.homology import (block_matrix, poisson_cohomology_dims,
                             canonical_homology_dims, structure_degree,
                             LICHNEROWICZ, CANONICAL)
from pforge.multivec import Multivector
from pforge.ratpoly import Poly
from conftest import assert_normal_form, bivector, rng_for
from test_homology import (_lie_poisson_h, STRUCTURES, jacobian_structure,
                           seeded_phi)


def F(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rank():
    assert linalg.rank(F([[1, 2], [2, 4]])) == 1
    assert linalg.rank(F([[1, 0], [0, 1]])) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank(F([[0, 0]])) == 0


def _integer_rows(mat):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in mat:
        d = 1
        for x in row:
            f = Fraction(x)
            d = d // gcd(d, f.denominator) * f.denominator
        out.append([int(Fraction(x) * d) for x in row])
    return out


def bareiss_rank(mat):
    """Reference rank: dense fraction-free (Bareiss) elimination."""
    if not mat or not mat[0]:
        return 0
    m = _integer_rows(mat)
    rows, cols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def _random_matrix(rng):
    """Sparse Fraction matrix with zero rows and columns, and rows that
    are combinations of other rows."""
    rows, cols = rng.randint(1, 10), rng.randint(0, 10)
    density = rng.random()
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
          if rng.random() < density else Fraction(0) for _ in range(cols)]
         for _ in range(rows)]
    if cols and rng.random() < 0.5:
        dead = rng.randrange(cols)
        for row in m:
            row[dead] = Fraction(0)
    if rows and rng.random() < 0.5:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    for _ in range(rng.randint(0, 3)):
        if rows < 2:
            break
        i, j, k = (rng.randrange(rows) for _ in range(3))
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(2))
        m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
    return m


def _as_dicts(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def test_rank_matches_bareiss_on_random_matrices():
    rng = random.Random(20260)
    shapes = [[], [[]], [[], []], [[Fraction(0)] * 4]]
    for m in shapes + [_random_matrix(rng) for _ in range(400)]:
        want = bareiss_rank(m)
        snapshot = [list(row) for row in m]
        assert linalg.rank(m) == want, m
        assert linalg.rank(_as_dicts(m)) == want, m
        assert m == snapshot


def _hidden_block_diagonal(rng):
    """Random blocks on the diagonal, with zero rows and zero columns,
    under a random row and column permutation; returns the matrix, its
    width and the blocks."""
    blocks = [_random_matrix(rng) for _ in range(rng.randint(0, 6))]
    height = sum(len(b) for b in blocks) + rng.randint(0, 3)
    width = sum(len(b[0]) for b in blocks) + rng.randint(0, 3)
    m = [[Fraction(0)] * width for _ in range(height)]
    r = c = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[r + i][c:c + len(row)] = row
        r, c = r + len(b), c + len(b[0])
    rng.shuffle(m)
    perm = list(range(width))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in m], width, blocks


def test_rank_splits_hidden_block_diagonal_matrices():
    rng = random.Random(8088)
    for m, width in [([], 0), ([[]], 0), ([[], [], []], 0),
                     ([[Fraction(0)] * 3] * 2, 3)]:
        assert linalg.rank(m) == linalg.rank(_as_dicts(m)) == 0
    for _ in range(300):
        m, width, blocks = _hidden_block_diagonal(rng)
        want = sum(bareiss_rank(b) for b in blocks)
        assert bareiss_rank(m) == want
        snapshot = [list(row) for row in m]
        dicts = _as_dicts(m)
        assert linalg.rank(m) == linalg.rank(dicts) == want, m
        assert m == snapshot and dicts == _as_dicts(snapshot)


def _so3_copies(copies):
    """so(3)^copies on Q^(3 copies), one so(3) per block of variables."""
    table = {}
    for k in range(copies):
        a, b, c = 3 * k, 3 * k + 1, 3 * k + 2
        table.update({(a, b): "x%d" % c, (b, c): "x%d" % a,
                      (a, c): "-x%d" % b})
    return bivector(3 * copies, table)


@pytest.mark.parametrize("copies, max_grade, max_weight, h_g", [
    (2, 3, 2, {0: 1, 3: 2, 6: 1}),
    (3, 2, 1, {0: 1, 3: 3, 6: 3, 9: 1}),
], ids=["so3^2", "so3^3"])
def test_rank_gates_match_lie_algebra_cohomology(copies, max_grade,
                                                 max_weight, h_g):
    # H of the Lie-Poisson structure of so(3)^copies is H(g) (x) Cas(g),
    # with H(so(3)^copies) the tensor power of H(so(3)) = (1, 0, 0, 1)
    rows = poisson_cohomology_dims(_so3_copies(copies), max_grade,
                                   max_weight)
    for r in rows:
        assert r["dim_H"] == _lie_poisson_h(h_g, (2,) * copies, r["grade"],
                                            r["weight"]), r


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_rank_matches_bareiss_on_blocks(name, request):
    p = request.getfixturevalue(name)
    for kind in (LICHNEROWICZ, CANONICAL):
        for k in range(4):
            for w in range(-k, 5):
                blk = block_matrix(p, kind, k, w)
                m = blk.matrix
                snapshot = copy.deepcopy(blk.columns)
                assert linalg.rank(blk.columns) == bareiss_rank(m) \
                    == linalg.rank(m), (kind, k, w)
                linalg.nullspace(blk.columns, len(blk.target_basis))
                assert blk.columns == snapshot, (kind, k, w)


def _log_canonical(rng, n):
    """{x_i, x_j} = c_ij x_i x_j with seeded c_ij = a/b: Poisson for
    every choice of the c_ij."""
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                e = tuple(int(v in (i, j)) for v in range(n))
                terms[(i, j)] = Poly(n, {e: c})
    return Multivector(n, 2, terms)


def _rank_oracle_cases():
    """(name, p, max grade, max weight) over the catalog, Jacobian
    structures, e(3) and seeded log-canonical and Jacobian structures."""
    cases = [(name, bivector(*STRUCTURES[name]), 2, 0) if name == "so3+sl2"
             else (name, bivector(*STRUCTURES[name]), 4, 2)
             for name in STRUCTURES]
    e3 = bivector(6, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1",
                      (0, 4): "x5", (0, 5): "-x4", (1, 3): "-x5",
                      (1, 5): "x3", (2, 3): "x4", (2, 4): "-x3"})
    cases.append(("e3", e3, 2, 1))
    for degree in (3, 4):
        cases.append(("jacobian-%d" % degree,
                      jacobian_structure(seeded_phi(degree, degree)), 3, 3))
    for seed in (1, 2):
        rng = rng_for(seed)
        cases.append(("seeded-jacobian-%d" % seed,
                      jacobian_structure(seeded_phi(seed + 10, 3)), 3, 3))
        for n in (3, 4):
            cases.append(("seeded-log-canonical-q%d-%d" % (n, seed),
                          _log_canonical(rng, n), n, 2))
    return cases


@pytest.mark.parametrize("name,p,max_grade,max_weight", _rank_oracle_cases(),
                         ids=[c[0] for c in _rank_oracle_cases()])
def test_dims_ranks_match_the_full_block_ranks(name, p, max_grade,
                                               max_weight):
    # every rank of a dimension row equals the rank of the whole block,
    # and the dense Bareiss rank on blocks of up to 2500 cells, where
    # ranks reach 50 (400 cells cap them at 20): a rank error common to
    # both complexes passes the duality tests, not this
    shift = structure_degree(p) - 2

    def block_rank(kind, k, w):
        if k < 0:
            return 0
        blk = block_matrix(p, kind, k, w)
        got = linalg.rank(blk.columns)
        if len(blk.basis) * len(blk.target_basis) <= 2500:
            assert got == bareiss_rank(blk.matrix), (name, kind, k, w)
        return got

    for dims, kind, step in ((poisson_cohomology_dims, LICHNEROWICZ, 1),
                             (canonical_homology_dims, CANONICAL, -1)):
        weight = max_weight if step == 1 else max_weight + p.n
        for r in dims(p, max_grade, weight):
            k, w = r["grade"], r["weight"]
            assert r["rank_out"] == block_rank(kind, k, w), (name, r)
            assert r["rank_in"] == block_rank(kind, k - step, w - shift), \
                (name, r)


@pytest.mark.parametrize("name,p,max_grade,max_weight", _rank_oracle_cases(),
                         ids=[c[0] for c in _rank_oracle_cases()])
def test_dims_hand_over_int_columns_with_the_copying_pivots(
        name, p, max_grade, max_weight, monkeypatch):
    # every block the dimension tables rank reaches the elimination as
    # dicts of nonzero ints, Fraction coefficients of p included, and
    # the copying route gives the same pivot positions on a deep copy
    real = linalg._pivots_in_place
    ranked = []

    def checked(rows):
        assert all(type(col) is dict and all(type(x) is int and x
                                             for x in col.values())
                   for col in rows), name
        want = linalg.pivots(copy.deepcopy(rows))
        got = real(rows)
        assert got == want, name
        ranked.append(got)
        return got
    monkeypatch.setattr(linalg, "_pivots_in_place", checked)
    for dims, step in ((poisson_cohomology_dims, 1),
                       (canonical_homology_dims, -1)):
        del ranked[:]
        weight = max_weight if step == 1 else max_weight + p.n
        dims(p, max_grade, weight)
        assert any(ranked), name


@pytest.mark.parametrize("c", [Fraction(1, 2), -3, Fraction(7, 5)])
def test_dims_are_invariant_under_scaling_p(c):
    # c p has the differentials of p times c, so every rank holds; the
    # dimension tables clear the denominators of p before they rank
    for p in (bivector(*STRUCTURES["so3"]), _log_canonical(rng_for(3), 4)):
        for dims, weight in ((poisson_cohomology_dims, 2),
                             (canonical_homology_dims, 2 + p.n)):
            assert dims(p.scale(c), p.n, weight) == dims(p, p.n, weight)


def dense_rref(mat):
    """Reference reduced row echelon form: dense Fraction Gauss-Jordan,
    column by column, with every row kept."""
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
        m[r] = [x / inv if x else x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def oracle_nullspace(mat, ncols):
    red, pivots = dense_rref(mat)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def oracle_solve(mat, rhs, ncols):
    red, pivots = dense_rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def oracle_invert(mat):
    n = len(mat)
    red, pivots = dense_rref([list(row) + linalg.unit_vector(i, n)
                              for i, row in enumerate(mat)])
    return [row[n:] for row in red] if pivots == list(range(n)) else None


def oracle_subspace(rows, n):
    """(basis, pivots, combos, complement indices, quotient matrix) of
    span(rows), from dense eliminations of [rows | I] and [basis^T | I]."""
    m = len(rows)
    red, pivots = dense_rref([list(row) + linalg.unit_vector(i, m)
                              for i, row in enumerate(rows)])
    k = sum(1 for p in pivots if p < n)
    basis = [row[:n] for row in red[:k]]
    red2, piv2 = dense_rref([[b[r] for b in basis] + linalg.unit_vector(r, n)
                             for r in range(n)])
    return (basis, pivots[:k], [row[n:] for row in red[:k]],
            [p - k for p in piv2[k:]], [row[k:] for row in red2[k:]])


def oracle_intersect(rows_a, rows_b):
    def basis(rows):
        red, pivots = dense_rref(rows)
        return red[:len(pivots)]
    a, b = basis(rows_a), basis(rows_b)
    if not a or not b:
        return []
    n = len(a[0])
    mat = [[a[i][c] for i in range(len(a))] + [-b[j][c] for j in range(len(b))]
           for c in range(n)]
    return basis([[sum(k[i] * a[i][c] for i in range(len(a)))
                   for c in range(n)]
                  for k in oracle_nullspace(mat, len(a) + len(b))])


def _dot(row, v):
    return sum((a * b for a, b in zip(row, v)), Fraction(0))


def _compare_with_oracle(m, rng):
    """rref, nullspace, solve, Subspace and intersect of m, given
    as lists and as dicts, against the dense oracle; every answer is in
    normal form."""
    n = len(m[0]) if m else 0
    snapshot = [list(row) for row in m]
    dicts = _as_dicts(m)
    want = dense_rref(m)
    assert linalg.rref(m) == want == linalg.rref(dicts, n), m
    kernel = oracle_nullspace(m, n)
    assert linalg.nullspace(m) == kernel == linalg.nullspace(dicts, n), m
    assert_normal_form([linalg.rref(m), linalg.nullspace(dicts, n)])
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    for rhs in ([_dot(row, x0) for row in m],
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in m]):
        sol = oracle_solve(m, rhs, n)
        assert linalg.solve(m, rhs) == sol == linalg.solve(dicts, rhs, n)
        assert_normal_form(linalg.solve(m, rhs))
    basis, pivots, combos, comp, quot = oracle_subspace(m, n)
    probes = [[sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0))
               for j in range(n)]
              for coeffs in ([Fraction(rng.randint(-2, 2)) for _ in m]
                             for _ in range(2))]
    probes += [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
               for _ in range(2)]
    answers = []
    for v in probes:
        member = len(dense_rref(basis + [v])[1]) == len(basis)
        coords = None
        if member:
            coords = [Fraction(0)] * len(m)
            for p, combo in zip(pivots, combos):
                coords = [a + v[p] * b for a, b in zip(coords, combo)]
        answers.append((v, member, coords, [_dot(row, v) for row in quot]))
    assert linalg.intersect(m, probes) == oracle_intersect(m, probes) == \
        linalg.intersect(dicts, _as_dicts(probes), n)
    assert_normal_form(linalg.intersect(m, probes))
    for S in (linalg.Subspace(m, n), linalg.Subspace(dicts, n)):
        assert S.basis == basis == linalg.row_space_basis(m)
        assert S.complement == [linalg.unit_vector(i, n) for i in comp]
        assert_normal_form([S.basis, S.complement])
        for v, member, coords, image in answers:
            assert S.contains(v) == member
            assert S.coords(v) == coords
            assert S.project(v) == image
            assert_normal_form([S.coords(v), S.project(v)])
    assert_normal_form([linalg.mat_mul(m, linalg.identity(n)),
                        linalg.mat_vec(m, probes[0]),
                        linalg.mat_sub(m, snapshot)])
    assert m == snapshot


def test_elimination_matches_dense_oracle_on_random_matrices():
    rng = random.Random(6060)
    shapes = [[], [[]], [[], []], [[Fraction(0)] * 4],
              [[Fraction(0)], [Fraction(3)]]]
    for m in shapes + [_random_matrix(rng) for _ in range(320)]:
        _compare_with_oracle(m, rng)


def test_reduced_elimination_on_empty_and_zero_inputs():
    # no rows, all-zero rows, and dict rows with no columns or only
    # explicit zeros: the leftmost-pivot pass meets no live row
    for n in range(4):
        for count in range(4):
            zeros = [[0] * n for _ in range(count)]
            want = dense_rref(zeros)
            kernel = [linalg.unit_vector(i, n) for i in range(n)]
            for rows in (zeros, [{} for _ in range(count)],
                         [{c: 0 for c in range(n)} for _ in range(count)]):
                assert linalg.rref(rows, n) == want, rows
                assert linalg.nullspace(rows, n) == kernel \
                    == oracle_nullspace(zeros, n), rows
                S = linalg.Subspace(rows, n)
                assert S.basis == [] == linalg.row_space_basis(rows, n)
                assert S.complement == kernel
                assert S.coords([0] * n) == [0] * count
                assert all(S.project(v) == v for v in kernel)
    # one nonzero row among zero rows of every kind
    for rows in ([[0, 0, 0], [0, 2, 4], [0, 0, 0]],
                 [{}, {1: 2, 2: 4}, {0: 0}]):
        assert linalg.rref(rows, 3) == dense_rref([[0, 0, 0], [0, 2, 4],
                                                   [0, 0, 0]])
        assert linalg.nullspace(rows, 3) == oracle_nullspace(
            [[0, 2, 4]], 3)
        assert linalg.Subspace(rows, 3).basis == [[0, 1, 2]]


@pytest.mark.parametrize("name", ["so3", "sl2"])
def test_elimination_matches_dense_oracle_on_blocks(name, request):
    p = request.getfixturevalue(name)
    rng = random.Random(name)
    for kind in (LICHNEROWICZ, CANONICAL):
        for k in range(4):
            for w in range(-k, 5):
                blk = block_matrix(p, kind, k, w)
                m = blk.matrix
                mt = [[row[j] for row in m] for j in range(len(blk.basis))]
                _compare_with_oracle(m, rng)
                _compare_with_oracle(mt, rng)
                assert linalg.rref(blk.columns, len(blk.target_basis)) == \
                    dense_rref(mt)


def test_rref_pivots():
    r, pivots = linalg.rref(F([[2, 4, 0], [1, 2, 1]]))
    assert pivots == [0, 2]
    assert r[0][:2] == [Fraction(1), Fraction(2)]
    assert r[1][2] == Fraction(1)


def test_nullspace_orthogonality():
    m = F([[1, 2, 3], [0, 1, 1]])
    for v in linalg.nullspace(m):
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    assert len(linalg.nullspace(m)) == 1


def test_solve():
    m = F([[1, 1], [1, -1]])
    x = linalg.solve(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    assert linalg.solve(F([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]) is None


def test_span_operations():
    a = F([[1, 0, 0], [0, 1, 0]])
    b = F([[1, 1, 0], [0, 0, 1]])
    inter = linalg.intersect(a, b)
    assert len(inter) == 1
    assert linalg.Subspace(a, 3).contains(inter[0]) and \
        linalg.Subspace(b, 3).contains(inter[0])
    comp = linalg.Subspace(a, 3).complement
    assert len(comp) == 1
    assert linalg.rank(a + comp) == 3


def test_coordinates_and_inverse():
    basis = F([[1, 1], [0, 1]])
    c = linalg.Subspace(basis, 2).coords([Fraction(2), Fraction(3)])
    assert c == [Fraction(2), Fraction(1)]


def test_kernel_coords_match_subspace_coordinates():
    """The free-column read over a `nullspace` basis, of dense and of
    dict rows, gives the coordinates `Subspace` solves for, and None for
    a vector outside the kernel."""
    rng = random.Random(1616)
    cases = [[[Fraction(0)] * 4], linalg.identity(3), [[1, 2, 3]]]
    cases += [_random_matrix(rng) for _ in range(300)]
    for m in cases:
        n = len(m[0])
        for rows in (m, _as_dicts(m)):
            basis = linalg.nullspace(rows, ncols=n)
            S = linalg.Subspace(basis, n)
            probes = [[sum(c * b[j] for c, b in zip(coeffs, basis))
                       for j in range(n)]
                      for coeffs in ([Fraction(rng.randint(-3, 3),
                                               rng.randint(1, 2))
                                      for _ in basis] for _ in range(3))]
            probes += [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(2)]
            for v in probes:
                got = linalg.kernel_coords(basis)(v)
                assert got == S.coords(v), (m, v)
                assert_normal_form(got)
            # a unit vector at a pivot column has no free-column entry
            free = {max(k for k, x in enumerate(b) if x) for b in basis}
            for c in set(range(n)) - free:
                assert linalg.kernel_coords(basis)(
                    linalg.unit_vector(c, n)) is None
    assert linalg.nullspace(linalg.identity(3)) == []
    assert linalg.nullspace([[0] * 4]) == linalg.identity(4)
    assert linalg.kernel_coords(linalg.identity(4))([0, 3, 0, -1]) == \
        [0, 3, 0, -1]


def _random_rows(rng, n):
    """Row sets with zero rows, duplicate rows and dependent rows; a
    quarter of them span all of Q^n."""
    m = rng.randint(0, 6)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
            for _ in range(m)]
    if rows and rng.random() < 0.3:
        rows.append([Fraction(0)] * n)
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if len(rows) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(rows, 2)
        rows.append([2 * x - y for x, y in zip(a, b)])
    if rng.random() < 0.25:
        rows += [linalg.unit_vector(i, n) for i in range(n)]
        rng.shuffle(rows)
    return rows


def test_subspace_matches_rank_criterion():
    rng = random.Random(4242)
    cases = [([], 0), ([[], []], 0), ([], 3), ([[Fraction(0)] * 3], 3)]
    for _ in range(300):
        n = rng.randint(0, 6)
        cases.append((_random_rows(rng, n), n))
    for rows, n in cases:
        S = linalg.Subspace(rows, n)
        r = linalg.rank(rows)
        assert len(S.basis) == r
        assert S.basis == linalg.row_space_basis(rows)
        assert len(S.basis) + len(S.complement) == n
        assert linalg.rank(S.basis + S.complement) == n
        inside = [[sum(c * row[j] for c, row in zip(coeffs, rows))
                   for j in range(n)]
                  for coeffs in ([Fraction(rng.randint(-2, 2))
                                  for _ in rows] for _ in range(3))]
        probes = inside + [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                           for _ in range(3)]
        for v in probes:
            member = linalg.rank(rows + [v]) == r
            assert S.contains(v) == member, (rows, v)
            c = S.coords(v)
            if not member:
                assert c is None
                continue
            assert len(c) == len(rows)
            assert [sum(x * row[j] for x, row in zip(c, rows))
                    for j in range(n)] == v
            assert not any(S.project(v))
        for row in rows + S.basis:
            assert not any(S.project(row))
        # the complement coordinates of a complement vector are its own
        q = len(S.complement)
        for i, e in enumerate(S.complement):
            assert S.project(e) == linalg.unit_vector(i, q)
