import random
from fractions import Fraction
from itertools import product

import pytest

from pforge import linalg
from pforge.ncalg import (AlgebraSC, BadAlgebra, NotAnIdeal, NotASubalgebra,
                          NotASplitting, center, validate_algebra,
                          derivations, check_ideal, check_subalgebra,
                          quotient_algebra, submanifold_check,
                          quotient_check,
                          splitting_curvature, bott_quotient, bott_forms,
                          bott_integral, LieAlgebraSC, BadLieAlgebra)
from pforge.superalg import standard_algebra


def F(rows):
    return [[Fraction(x) for x in r] for r in rows]


def matrix_algebra_2x2():
    # basis E11, E12, E21, E22
    def mul(a, b):
        (i, j), (k, l) = a, b
        return (i, l) if j == k else None
    names = [(0, 0), (0, 1), (1, 0), (1, 1)]
    pos = {x: i for i, x in enumerate(names)}
    table = []
    for a in names:
        row = []
        for b in names:
            v = [Fraction(0)] * 4
            r = mul(a, b)
            if r is not None:
                v[pos[r]] = Fraction(1)
            row.append(v)
        table.append(row)
    unit = [Fraction(0)] * 4
    unit[pos[(0, 0)]] = unit[pos[(1, 1)]] = Fraction(1)
    return AlgebraSC(4, table, unit)


def truncated3():
    # Q[t]/(t^3), basis 1, t, t^2
    def mul(i, j):
        v = [Fraction(0)] * 3
        if i + j < 3:
            v[i + j] = Fraction(1)
        return v
    return AlgebraSC(3, [[mul(i, j) for j in range(3)] for i in range(3)],
                     [Fraction(1), Fraction(0), Fraction(0)])


def qxq():
    def mul(i, j):
        v = [Fraction(0)] * 2
        if i == j:
            v[i] = Fraction(1)
        return v
    return AlgebraSC(2, [[mul(i, j) for j in range(2)] for i in range(2)],
                     [Fraction(1), Fraction(1)])


def tensor6():
    # Q[s]/(s^2) tensor Q[t]/(t^3); basis 1, s, t, t^2, st, st^2
    names = [(0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (1, 2)]
    pos = {v: i for i, v in enumerate(names)}
    def mul(a, b):
        si, ti = names[a][0] + names[b][0], names[a][1] + names[b][1]
        v = [Fraction(0)] * 6
        if si < 2 and ti < 3:
            v[pos[(si, ti)]] = Fraction(1)
        return v
    return AlgebraSC(6, [[mul(i, j) for j in range(6)] for i in range(6)],
                     [Fraction(1)] + [Fraction(0)] * 5)


def test_associativity_validated():
    z = [Fraction(0), Fraction(0)]
    e0 = [Fraction(1), Fraction(0)]
    e1 = [Fraction(0), Fraction(1)]
    # e0*e0 = e1, e1*e0 = e0, all else zero: (e0 e0) e0 != e0 (e0 e0)
    bad = [[e1, z], [e0, z]]
    with pytest.raises(BadAlgebra):
        AlgebraSC(2, bad)


def test_center_of_matrix_algebra():
    A = matrix_algebra_2x2()
    z = center(A)
    assert len(z) == 1
    assert linalg.Subspace(z, A.dim).contains(A.unit)


def test_derivations_matrix_algebra_all_inner():
    rep = derivations(matrix_algebra_2x2())
    assert len(rep["basis"]) == 3
    assert len(rep["inner"]) == 3
    flat = lambda m: [x for r in m for x in r]
    assert linalg.subspace_equal([flat(m) for m in rep["basis"]],
                                 [flat(m) for m in rep["inner"]])


def test_derivations_truncated3():
    rep = derivations(truncated3())
    assert len(rep["basis"]) == 2
    assert len(rep["inner"]) == 0


def test_ideal_and_subalgebra_witnesses():
    A = truncated3()
    assert check_ideal(A, F([[0, 0, 1]])) is None          # (t^2)
    assert check_ideal(A, F([[0, 1, 0]])) is not None      # span{t} alone
    assert check_subalgebra(A, F([[1, 0, 0], [0, 0, 1]])) is None
    # t * t = t^2 falls outside span{t}, so it is not a subalgebra
    assert check_subalgebra(A, F([[0, 1, 0]])) is not None


def test_quotient_algebra():
    A = truncated3()
    Q = quotient_algebra(A, F([[0, 0, 1]]))
    assert Q.dim == 2
    # t * t = 0 in the quotient
    t = linalg.Subspace(F([[0, 0, 1]]), 3).project(
        [Fraction(0), Fraction(1), Fraction(0)])
    assert any(t) and Q.multiply(t, t) == [Fraction(0), Fraction(0)]


def test_submanifold_truncated3():
    rep = submanifold_check(truncated3(), F([[0, 0, 1]]))
    assert rep["submanifold"]
    assert len(rep["der_I"]) == 2
    assert len(rep["der_I_0"]) == 1
    assert rep["rank_r_I"] == 1 and rep["dim_der_quotient"] == 1


def test_quotient_check_diagonal_in_qxq():
    rep = quotient_check(qxq(), F([[1, 1]]))
    assert (rep["q1"], rep["q2"], rep["q3"]) == (True, True, False)
    assert not rep["quotient_manifold_algebra"]


def test_quotient_check_truncated3_even_part():
    rep = quotient_check(truncated3(), F([[1, 0, 0], [0, 0, 1]]))
    assert (rep["q1"], rep["q2"], rep["q3"]) == (True, True, True)
    assert len(rep["Q_B"]) == 2 and len(rep["V_B"]) == 1
    assert len(rep["der_B"]) == 1


def test_quotient_check_tensor6():
    B = F([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    rep = quotient_check(tensor6(), B)
    assert rep["quotient_manifold_algebra"]
    assert len(rep["Q_B"]) == 5 and len(rep["V_B"]) == 3
    assert len(rep["der_B"]) == 2


def _op(dim, cols):
    m = [[Fraction(0)] * dim for _ in range(dim)]
    for j, v in cols.items():
        for i, c in v:
            m[i][j] = Fraction(c)
    return m


def _tensor6_splitting():
    A = tensor6()
    B = F([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    # derivations of A restricting to t d/dt and t^2 d/dt on B
    tddt = _op(6, {2: [(2, 1)], 3: [(3, 2)], 4: [(4, 1)], 5: [(5, 2)]})
    t2ddt = _op(6, {2: [(3, 1)], 4: [(5, 1)]})
    stdds = _op(6, {1: [(4, 1)], 4: [(5, 1)]})
    info = quotient_check(A, B)
    flat = lambda m: [x for r in m for x in r]
    sel = [0, 2, 3]
    restrict = lambda X: [[X[r][c] for c in sel] for r in sel]
    basis = [flat(restrict(tddt)), flat(restrict(t2ddt))]
    s_ops = []
    for Xb in info["der_B"]:
        c = linalg.Subspace(basis, len(Xb) ** 2).coords(flat(Xb))
        s_ops.append([[c[0] * tddt[i][j] + c[1] * t2ddt[i][j]
                       for j in range(6)] for i in range(6)])
    return A, B, s_ops, stdds


def test_splitting_curvature_flat_and_not():
    A, B, s_ops, stdds = _tensor6_splitting()
    assert splitting_curvature(A, B, s_ops)["flat"]
    # perturbing one lift by st d/ds (zero on B) keeps the splitting
    # property but breaks flatness: R(X0, X1) = st^2 d/ds
    pert = [s_ops[0],
            [[s_ops[1][i][j] + stdds[i][j] for j in range(6)]
             for i in range(6)]]
    rep = splitting_curvature(A, B, pert)
    assert not rep["flat"]
    R = rep["curvature"][(0, 1)]
    nz = {(i, j): R[i][j] for i in range(6) for j in range(6) if R[i][j]}
    assert nz == {(5, 1): Fraction(1)}


def test_splitting_validation():
    A, B, s_ops, stdds = _tensor6_splitting()
    with pytest.raises(NotASplitting):
        splitting_curvature(A, B, [s_ops[0]])
    with pytest.raises(NotASplitting):
        splitting_curvature(A, B, [s_ops[1], s_ops[0]])


def so3_lie():
    def e(i, s=1):
        v = [Fraction(0)] * 3
        v[i] = Fraction(s)
        return v
    z = [Fraction(0)] * 3
    c = [[z, e(2), e(1, -1)],
         [e(2, -1), z, e(0)],
         [e(1), e(0, -1), z]]
    return LieAlgebraSC(3, c)


def heisenberg():
    def e(i, s=1):
        v = [Fraction(0)] * 3
        v[i] = Fraction(s)
        return v
    z = [Fraction(0)] * 3
    c = [[z, e(2), z], [e(2, -1), z, z], [z, z, z]]
    return LieAlgebraSC(3, c)


def test_bott_quotient_so3():
    table = bott_quotient(so3_lie(), F([[0, 0, 1]]))
    assert table["matrices"] == [F([[0, -1], [1, 0]])]
    assert table["curvature"] == {}


def test_bott_forms_so3_and_heisenberg():
    rep = bott_forms(so3_lie(), F([[0, 0, 1]]))
    assert rep["flat"]
    assert rep["matrices"] == [F([[0, -1], [1, 0]])]
    rep = bott_forms(heisenberg(), F([[0, 0, 1]]))
    assert rep["flat"]
    assert all(all(x == 0 for r in m for x in r)
               for m in rep["matrices"])


def gl2():
    """gl(2) on E00, E01, E10, E11: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    names = [(0, 0), (0, 1), (1, 0), (1, 1)]
    c = [[[int(j == k and z == (i, l)) - int(l == i and z == (k, j))
           for z in names] for (k, l) in names] for (i, j) in names]
    return LieAlgebraSC(4, c)


@pytest.mark.parametrize("case", ["gl2-borel", "so3-line"])
def test_bott_connections_share_keys_and_flatness(case):
    if case == "gl2-borel":
        g, sub = gl2(), F([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    else:
        g, sub = so3_lie(), F([[0, 0, 1]])
    quotient, forms = bott_quotient(g, sub), bott_forms(g, sub)
    assert quotient.keys() == forms.keys() == {
        "module_basis", "acting_basis", "matrices", "curvature", "flat"}
    for rep in (quotient, forms):
        assert rep["flat"] is all(not any(x for row in m for x in row)
                                  for m in rep["curvature"].values())


def test_bott_quotient_rejects_non_subalgebra():
    with pytest.raises(NotASubalgebra):
        bott_quotient(so3_lie(), F([[1, 0, 0], [0, 1, 0]]))


def test_bott_integral_truncated3():
    A = truncated3()
    tddt = _op(3, {1: [(1, 1)], 2: [(2, 2)]})
    rep = bott_integral(A, [tddt], F([[0, 1, 0], [0, 0, 1]]))
    assert rep["integral"]
    assert rep["gamma_dim"] == 0
    assert rep["d_I_dim"] == 1


def test_bott_integral_zero_ideal():
    # I = 0: the quotient module is all of Omega^1_D and the connection
    # is the Lie derivative; the distribution is not surjective onto
    # Der(A/I) = Der(A), so the integral flag is off
    A = truncated3()
    t2ddt = _op(3, {1: [(2, 1)]})
    rep = bott_integral(A, [t2ddt], [])
    assert not rep["integral"]
    assert rep["gamma_dim"] == 1 and rep["d_I_dim"] == 0
    assert rep["matrices"] == [[[Fraction(0)]]]
    # the full derivation algebra is integral for the zero ideal
    tddt = _op(3, {1: [(1, 1)], 2: [(2, 2)]})
    rep = bott_integral(A, [tddt, t2ddt], [])
    assert rep["integral"]


def test_bott_integral_computes_der_a_once(monkeypatch):
    # bott_integral hands its Der(A) basis to submanifold_check, so
    # Der(A) is solved once; Der(A/I) is solved once more for the quotient
    from pforge import ncalg
    calls = []
    real = ncalg.derivations

    def counted(B):
        calls.append(B)
        return real(B)
    monkeypatch.setattr(ncalg, "derivations", counted)
    A = truncated3()
    tddt = _op(3, {1: [(1, 1)], 2: [(2, 2)]})
    for ideal, ops in ((F([[0, 1, 0], [0, 0, 1]]), [tddt]),
                       (F([[0, 0, 1]]), [tddt]), ([], [tddt])):
        del calls[:]
        rep = bott_integral(A, ops, ideal)
        assert "matrices" in rep
        assert sum(B is A for B in calls) == 1
        assert len(calls) == 2


def _ad(A, u):
    """The inner derivation x -> ux - xu of A as a matrix."""
    cols = linalg.mat_sub([A.multiply(u, e) for e in linalg.identity(A.dim)],
                          [A.multiply(e, u) for e in linalg.identity(A.dim)])
    return [list(row) for row in zip(*cols)]


def test_bott_integral_refuses_each_failed_precondition():
    m2 = matrix_algebra_2x2()
    e11, e12, e21, _ = linalg.identity(4)
    # the matrices whose second column is zero form a left ideal only
    assert check_ideal(m2, [e11, e21]) == ("right", 1, 0)
    dual = standard_algebra("dual_pair")    # basis 1, s, t, st
    s_dds = _op(4, {1: [(1, 1)], 3: [(3, 1)]})
    cases = [
        # [ad E12, ad E21] = ad(E11 - E22) leaves span{ad E12, ad E21}
        (m2, [_ad(m2, e12), _ad(m2, e21)], [],
         ["D not involutive at pair (0,1)"]),
        # s d/ds maps s + t to s, outside span{s + t, st}
        (dual, [s_dds], F([[0, 1, 1, 0], [0, 0, 0, 1]]),
         ["D[0] does not preserve I"]),
        (dual, derivations(dual)["basis"][:1], F([[0, 0, 0, 1]]),
         ["A/I is not a submanifold algebra"]),
        (truncated3(), [linalg.identity(3)], F([[0, 0, 1]]),
         ["D[0] is not a derivation"])]
    for A, ops, ideal, problems in cases:
        assert bott_integral(A, ops, ideal) == {"integral": False,
                                               "problems": problems}


def _full_jacobi_verdict(dim, c):
    """The message of the check over all d^3 ordered triples, run after
    the antisymmetry check, as LieAlgebraSC once did; None if it passes."""
    for i, j in product(range(dim), repeat=2):
        if any(a + b for a, b in zip(c[i][j], c[j][i])):
            return "not antisymmetric at (%d,%d)" % (i, j)
    for i, j, k in product(range(dim), repeat=3):
        jac = [Fraction(0)] * dim
        for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
            for s, x in enumerate(c[a][b]):
                if x:
                    jac = [y + x * z for y, z in zip(jac, c[s][t])]
        if any(jac):
            return "Jacobi fails at (%d,%d,%d)" % (i, j, k)
    return None


def _verdict(dim, c):
    try:
        LieAlgebraSC(dim, c)
    except BadLieAlgebra as exc:
        return str(exc)
    return None


def _random_table(rng, dim):
    """Antisymmetric table: a direct sum of so(3), sl(2), Heisenberg and
    abelian summands, with a few seeded antisymmetric perturbations
    (none on some tables) and rarely one asymmetric entry."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]

    def put(i, j, k, x):
        c[i][j][k] += x
        c[j][i][k] -= x
    at = 0
    while dim - at >= 3 and rng.random() < 0.8:
        kind = rng.choice(["so3", "sl2", "heis"])
        a, b, d = at, at + 1, at + 2
        if kind == "so3":
            put(a, b, d, 1), put(b, d, a, 1), put(d, a, b, 1)
        elif kind == "sl2":
            put(a, b, b, 2), put(a, d, d, -2), put(b, d, a, 1)
        else:
            put(a, b, d, 1)
        at += 3
    for _ in range(rng.choice([0, 0, 1, 2, 4]) if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        put(i, j, rng.randrange(dim),
            rng.choice([1, -1, Fraction(1, 2), Fraction(-3, 2)]))
    if rng.random() < 0.1:
        i, j, k = (rng.randrange(dim) for _ in range(3))
        c[i][j][k] += 1
    return c


def test_jacobi_check_on_sorted_triples_matches_the_full_check():
    rng = random.Random(91)
    verdicts = []
    for _ in range(300):
        dim = rng.randint(1, 7)
        c = _random_table(rng, dim)
        want = _full_jacobi_verdict(dim, c)
        assert _verdict(dim, c) == want
        verdicts.append(want)
    kinds = {v.split(" at ")[0] if v else None for v in verdicts}
    assert kinds == {None, "not antisymmetric", "Jacobi fails"}
