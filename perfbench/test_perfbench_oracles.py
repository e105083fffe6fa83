"""Each oracle of the benchmark accepts a right answer and rejects a
wrong one; the workloads are a function of the seed alone."""

from fractions import Fraction

import pytest

import oracles as o
import workloads

F = Fraction


def lie_poisson_rows(kind, n, m, max_grade, max_weight):
    """Rows that H(g) (x) Cas(g) predicts, with ranks filled in so that
    dim_H = dim_C - rank_in - rank_out holds."""
    rows = []
    for k in range(max_grade + 1):
        for w in range((-k if kind == o.LICH else k), max_weight + 1):
            deg = o.row_degree(kind, k, w)
            dim_c = o.chain_dim(n, k, deg)
            h = o.lie_poisson_dim(m, k if kind == o.LICH else n - k, deg)
            rows.append({"grade": k, "weight": w, "dim_C": dim_c,
                         "rank_in": 0, "rank_out": dim_c - h, "dim_H": h})
    return rows


def test_lie_poisson_closed_form():
    # so(3): H^0 and H^3 carry Q[C] with C quadratic
    assert [o.lie_poisson_dim(1, 0, d) for d in range(5)] == [1, 0, 1, 0, 1]
    assert o.lie_poisson_dim(1, 3, 2) == 1 and o.lie_poisson_dim(1, 1, 2) == 0
    # so(3) + sl(2): H^3 at degree 2 is C(2,1) * 2 monomials
    assert o.lie_poisson_dim(2, 3, 2) == 4
    assert o.lie_poisson_dim(2, 6, 0) == 1


def test_rows_and_lie_poisson_reject_wrong_tables():
    rows = lie_poisson_rows(o.LICH, 3, 1, 3, 3)
    table = o.check_rows(rows, o.LICH, 3, 3, 3)
    o.check_lie_poisson(table, o.LICH, 3, 1)
    wrong = dict(table)
    wrong[(3, 1)] += 1
    with pytest.raises(o.CheckFailed):
        o.check_lie_poisson(wrong, o.LICH, 3, 1)
    bad_dim = [dict(r) for r in rows]
    bad_dim[4]["dim_C"] += 1
    with pytest.raises(o.CheckFailed):
        o.check_rows(bad_dim, o.LICH, 3, 3, 3)
    bad_sum = [dict(r) for r in rows]
    bad_sum[4]["dim_H"] += 1
    with pytest.raises(o.CheckFailed):
        o.check_rows(bad_sum, o.LICH, 3, 3, 3)
    with pytest.raises(o.CheckFailed):
        o.check_rows(rows[:-1], o.LICH, 3, 3, 3)


def test_chain_dim():
    # grade-1 fields with linear coefficients on Q^3: 3 * 3
    assert o.chain_dim(3, 1, 1) == 9
    assert o.chain_dim(6, 2, 2) == 315 and o.chain_dim(6, 3, 2) == 420
    assert o.chain_dim(3, 4, 0) == 0 and o.chain_dim(3, 1, -1) == 0


def test_duality_rejects_mismatch():
    lich = o.check_rows(lie_poisson_rows(o.LICH, 3, 1, 3, 3), o.LICH, 3, 3, 3)
    can = o.check_rows(lie_poisson_rows(o.CAN, 3, 1, 3, 6), o.CAN, 3, 3, 6)
    assert o.check_duality(lich, can, 3) == len(lich)
    can[(3, 5)] += 1
    with pytest.raises(o.CheckFailed):
        o.check_duality(lich, can, 3)
    with pytest.raises(o.CheckFailed):
        o.check_duality(lich, {}, 3)


def so3():
    n, p = 3, {}
    for i, j, k, c in workloads.SO3:
        a, b, c = (i, j, c) if i < j else (j, i, -c)
        p[(a, b)] = {tuple(int(v == k) for v in range(n)): F(c)}
    return p


def test_casimirs_reject_wrong_bases():
    p = so3()
    o.check_casimirs(3, p, ["1", "x0^2 + x1^2 + x2^2"], 2)
    with pytest.raises(o.CheckFailed):          # not a Casimir
        o.check_casimirs(3, p, ["1", "x0^2"], 2)
    with pytest.raises(o.CheckFailed):          # count off the H^0 sum
        o.check_casimirs(3, p, ["1"], 2)
    with pytest.raises(o.CheckFailed):          # dependent
        o.check_casimirs(3, p, ["1", "2"], 2)
    phi = {(1, 1, 0): F(1)}
    with pytest.raises(o.CheckFailed):          # potential missing
        o.check_casimirs(3, p, ["1", "x0^2 + x1^2 + x2^2"], 2,
                         must_contain=phi)


def test_jacobian_structures_are_poisson_with_phi_casimir():
    phi = {(3, 0, 0): F(2), (0, 3, 0): F(-1), (0, 0, 3): F(3),
           (1, 1, 1): F(1)}
    p = o.jacobian_bivector(phi)
    assert o.jacobi_cyclic(3, p) == {}
    assert o.is_casimir(3, p, phi)


def test_jacobiator_against_cyclic_sum():
    # {x0,x1} = x2^2, {x1,x2} = x0 x1: by hand J_012 = x0 x2^2
    p = {(0, 1): {(0, 0, 2): F(1)}, (1, 2): {(1, 1, 0): F(1)}}
    assert o.jacobi_cyclic(3, p) == {(0, 1, 2): {(1, 0, 2): F(1)}}
    right = {"n": 3, "grade": 3,
             "terms": [{"idx": [0, 1, 2], "coeff": "-2*x0*x2^2"}]}
    o.check_jacobiator(right, 3, p)
    for coeff in ("2*x0*x2^2", "-2*x0*x2^2 + x1"):
        wrong = {"n": 3, "grade": 3,
                 "terms": [{"idx": [0, 1, 2], "coeff": coeff}]}
        with pytest.raises(o.CheckFailed):
            o.check_jacobiator(wrong, 3, p)


def test_polynomial_text_round_trip():
    a = {(2, 1, 0): F(-3, 2), (0, 0, 1): F(1), (0, 0, 0): F(5)}
    assert o.parse_poly(o.format_poly(a), 3) == a
    assert o.parse_poly("-3/2*x0^2*x1 + x2 + 5", 3) == a
    assert o.format_poly({}) == "0" and o.parse_poly("0", 3) == {}


def field(n, grade, terms, form=False):
    return o.field_to_json(n, grade, terms, form)


def test_bracket_identities_reject_wrong_results():
    x0, x1 = {(1, 0): F(1)}, {(0, 1): F(1)}
    uv = field(2, 2, {(0, 1): x0})
    o.check_graded_symmetry(uv, uv, 2, 1)             # (-1)^2 = +1
    with pytest.raises(o.CheckFailed):
        o.check_graded_symmetry(uv, uv, 1, 1)         # (-1)^1 = -1
    o.check_zero(field(2, 1, {}), "zero")
    with pytest.raises(o.CheckFailed):
        o.check_zero(field(2, 1, {(0,): x1}), "nonzero")
    # plane: {f, g} = f_0 g_1 - f_1 g_0; f = x0^2, g = x1 gives 2 x0
    p = {(0, 1): {(0, 0): F(1)}}
    f, g = {(2, 0): F(1)}, x1
    o.check_exact_bracket(field(2, 1, {(0,): {(0, 0): F(2)}}, True),
                          2, p, f, g)
    with pytest.raises(o.CheckFailed):
        o.check_exact_bracket(field(2, 1, {(0,): {(0, 0): F(-2)}}, True),
                              2, p, f, g)
    assert not o.field_equal(field(2, 1, {(0,): x0}),
                             field(2, 1, {(0,): x1}))


def test_schouten_oracle():
    # vector fields: [x1 d0, x0 d1] = x1 d1 - x0 d0
    X, Y = {(0,): {(0, 1): F(1)}}, {(1,): {(1, 0): F(1)}}
    assert o.schouten(X, 1, Y, 1) == {(0,): {(1, 0): F(-1)},
                                      (1,): {(0, 1): F(1)}}
    # the README's symmetry [u, v] = (-1)^{mk} [v, u], for mk even and odd
    shape = workloads.random.Random(0)
    rng = workloads.random.Random(1)
    for m, k in ((2, 3), (1, 3), (2, 2)):
        u = workloads.random_field(rng, shape, 5, m, 2, 3)
        v = workloads.random_field(rng, shape, 5, k, 1, 3)
        uv = o.schouten(u, m, v, k)
        assert uv and uv == {idx: {e: (-1) ** (m * k) * c
                                   for e, c in f.items()}
                             for idx, f in o.schouten(v, k, u, m).items()}


def test_koszul_delta_oracle():
    p = {(0, 1): {(0, 0): F(1)}}                   # the plane
    # delta(x0^2 dx1) = {x0^2, x1} = 2 x0
    assert o.koszul_delta(2, p, {(1,): {(2, 0): F(1)}}) == {
        (): {(1, 0): F(2)}}
    # delta(x0 x1 dx0 ^ dx1) = -d i_p(x0 x1 dx0 ^ dx1) = -d(x0 x1)
    assert o.koszul_delta(2, p, {(0, 1): {(1, 1): F(1)}}) == {
        (0,): {(0, 1): F(-1)}, (1,): {(1, 0): F(-1)}}
    # delta^2 = 0 for the Poisson so(3), by the oracle alone
    a = {(0, 1, 2): {(1, 2, 0): F(1), (0, 0, 3): F(2)}}
    once = o.koszul_delta(3, so3(), a)
    assert once and o.koszul_delta(3, so3(), once) == {}


def test_field_check_rejects_zero_and_wrong_answers():
    want = {(0,): {(1, 0): F(-1)}, (1,): {(0, 1): F(1)}}
    o.check_field(field(2, 1, want), 1, want, "[X, Y]")
    for got in ({}, {(0,): {(1, 0): F(1)}, (1,): {(0, 1): F(1)}},
                {(0,): {(1, 0): F(-1)}}):
        with pytest.raises(o.CheckFailed):
            o.check_field(field(2, 1, got), 1, want, "[X, Y]")
    with pytest.raises(o.CheckFailed):             # wrong grade
        o.check_field(field(2, 2, {(0, 1): {(0, 0): F(1)}}), 1, want, "")
    with pytest.raises(o.CheckFailed):             # a zero oracle checks nothing
        o.check_field(field(2, 1, {}), 1, {}, "[X, Y]")


def test_derivation_checks_reject_wrong_bases():
    mult, unit, _ = workloads.truncated(2, 2)   # Q[x]/x^2 (x) Q[y]/y^2
    # basis 1, y, x, xy: x d/dx and y d/dy
    xddx = [[F(int(r == c and c in (2, 3))) for c in range(4)]
            for r in range(4)]
    yddy = [[F(int(r == c and c in (1, 3))) for c in range(4)]
            for r in range(4)]
    assert o.leibniz_defect(mult, xddx) is None
    bad = [row[:] for row in xddx]
    bad[0][0] = F(1)                      # moves the unit
    assert o.leibniz_defect(mult, bad) is not None
    with pytest.raises(o.CheckFailed):    # count off theory: 2ab-a-b = 4
        o.check_derivation_basis(mult, [xddx, yddy], o.der_dim_truncated(2, 2))
    with pytest.raises(o.CheckFailed):    # dependent
        o.check_derivation_basis(mult, [xddx, xddx], 2)
    with pytest.raises(o.CheckFailed):    # not a derivation
        o.check_derivation_basis(mult, [xddx, bad], 2)
    o.check_derivation_basis(mult, [xddx, yddy], 2, "a subspace")
    assert o.der_dim_matrix(3) == 8 and o.der_dim_triangular(4) == 9
    # M_2 is central simple: its inner derivations span a 3-space
    m2, _ = workloads.matrix_algebra(2)
    assert o.rank(o.inner_derivations(m2)) == 3


def test_bott_connection_rejects_wrong_matrices():
    c, names = workloads.gl_lie(2)        # E00, E01, E10, E11
    borel = [o.unit(k, 4) for k, (i, j) in enumerate(names) if i <= j]
    module = [o.unit(2, 4)]               # E10 spans gl(2) / b
    # [x, E10] mod b: E00 -> -E10, E01 -> E11 - E00 = 0, E11 -> E10
    right = [[[F(-1)]], [[F(0)]], [[F(1)]]]
    o.check_bott(c, borel, module, right, "quotient")
    with pytest.raises(o.CheckFailed):
        o.check_bott(c, borel, module, [[[F(1)]], [[F(0)]], [[F(1)]]],
                     "quotient")
    # the annihilator of b is the dual vector of E10; grad_x a = -a([x, .])
    dual = [o.unit(2, 4)]
    o.check_bott(c, borel, dual, [[[F(1)]], [[F(0)]], [[F(-1)]]], "forms")
    with pytest.raises(o.CheckFailed):
        o.check_bott(c, borel, dual, right, "forms")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_depend_on_the_seed_alone(name):
    def argvs(seed):
        return [job.argv if not callable(job.argv) else job.key
                for job in workloads.WORKLOADS[name](seed)]
    # run.py seeds each round with "<seed>/<round>"
    assert argvs("7/0") == argvs("7/0")
    assert argvs("7/0") != argvs("7/1") != argvs("8/1")
    keys = [job.key for job in workloads.WORKLOADS[name]("7/0")]
    assert keys == [job.key for job in workloads.WORKLOADS[name]("8/3")]
    assert len(keys) == len(set(keys))
