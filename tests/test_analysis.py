from fractions import Fraction

import pytest

from pforge.ratpoly import Poly, parse_poly
from pforge.forms import d_poly
from pforge.analysis import (sharp, hamiltonian, pbracket, rank_at,
                             integrability_at, is_casimir, casimir_basis,
                             momentum_cocycle, ideal_check)
from pforge.multivec import Multivector, schouten
from pforge.ncalg import LieAlgebraSC, BadLieAlgebra
import reference_routes as ref
from conftest import (bivector, random_form, random_multivector, random_poly,
                      rng_for, assert_normal_form)


def so3_p():
    return bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})


def so3_lie():
    z = [Fraction(0)] * 3
    def e(i, s=1):
        v = [Fraction(0)] * 3
        v[i] = Fraction(s)
        return v
    c = [[z, e(2), e(1, -1)],
         [e(2, -1), z, e(0)],
         [e(1), e(0, -1), z]]
    return LieAlgebraSC(3, c)


def test_lie_algebra_validation():
    g = so3_lie()
    assert g.bracket([Fraction(1), Fraction(0), Fraction(0)],
                     [Fraction(0), Fraction(1), Fraction(0)]) == \
        [Fraction(0), Fraction(0), Fraction(1)]
    bad = [[[Fraction(0)], [Fraction(1)]], [[Fraction(1)], [Fraction(0)]]]
    with pytest.raises(BadLieAlgebra):
        LieAlgebraSC(2, [[[Fraction(0)] * 2] * 2,
                         [[Fraction(1), Fraction(0)], [Fraction(0)] * 2]])


def test_hamiltonian_fields():
    p = so3_p()
    x0 = parse_poly("x0", 3)
    h = hamiltonian(p, x0)
    # {x0, .} rotates around the x0 axis
    assert str(h.terms.get((1,), parse_poly("0", 3))) == "x2"
    assert str(h.terms.get((2,), parse_poly("0", 3))) == "-x1"
    assert (0,) not in h.terms


def test_sharp_is_chain_map():
    from pforge.multivec import lichnerowicz_dp
    from pforge.forms import form_d
    from conftest import random_form
    for p in (so3_p(), bivector(2, {(0, 1): "1"})):
        rng = rng_for(41)
        for _ in range(10):
            a = random_form(p.n, rng.randint(0, p.n - 1), rng)
            assert sharp(p, form_d(a)) == lichnerowicz_dp(p, sharp(p, a))


def test_sharp_identity_on_functions():
    p = so3_p()
    f = parse_poly("x0*x1", 3)
    from pforge.forms import Form
    assert sharp(p, Form.from_poly(f)).terms.get((), None) == f


def test_pbracket_antisymmetry_and_jacobi():
    p = so3_p()
    rng = rng_for(42)
    for _ in range(10):
        f, g, h = (random_poly(3, rng) for _ in range(3))
        assert pbracket(p, f, g) == -pbracket(p, g, f)
        s = pbracket(p, pbracket(p, f, g), h) + \
            pbracket(p, pbracket(p, g, h), f) + \
            pbracket(p, pbracket(p, h, f), g)
        assert s.is_zero()


def test_rank_report():
    p = so3_p()
    rep = rank_at(p, [Fraction(1), Fraction(0), Fraction(0)])
    assert rep["rank"] == 2
    assert rep["integrable_here"]
    origin = rank_at(p, [Fraction(0)] * 3)
    assert origin["rank"] == 0
    assert len(rep["image_basis"]) == 2


def test_rank_report_is_in_normal_form():
    rep = rank_at(so3_p(), [Fraction(1, 2), Fraction(3), "-2/3"])
    assert_normal_form(rep)
    assert rep["point"] == [Fraction(1, 2), 3, Fraction(-2, 3)]
    assert rep["rank"] == 2 and len(rep["image_basis"]) == 2


def test_integrability_catalog_and_counterexample():
    plane = bivector(2, {(0, 1): "1"})
    assert integrability_at(plane, [Fraction(1), Fraction(2)])
    assert integrability_at(so3_p(), [Fraction(1), Fraction(1), Fraction(1)])
    non_jacobi = bivector(3, {(0, 1): "1", (0, 2): "-x0"})
    assert not integrability_at(non_jacobi, [Fraction(0)] * 3)


def test_casimir_sphere():
    p = so3_p()
    c = parse_poly("x0^2 + x1^2 + x2^2", 3)
    assert is_casimir(p, c)
    assert not is_casimir(p, parse_poly("x0", 3))
    basis = casimir_basis(p, 2)
    assert [str(b) for b in basis] == ["1", "x0^2 + x1^2 + x2^2"]


def test_casimir_only_constants():
    p1 = bivector(2, {(0, 1): "x0"})
    basis = casimir_basis(p1, 6)
    assert [str(b) for b in basis] == ["1"]


def test_momentum_cocycle_translations():
    plane = bivector(2, {(0, 1): "1"})
    z = [Fraction(0)] * 2
    g = LieAlgebraSC(2, [[z, z], [z, z]])
    lam = [parse_poly("x0", 2), parse_poly("x1", 2)]
    rep = momentum_cocycle(plane, g, lam)
    assert str(rep["table"][0][1]) == "-1"
    # with lam reversed the off-diagonal entry is +1
    rep2 = momentum_cocycle(plane, g, list(reversed(lam)))
    assert str(rep2["table"][0][1]) == "1"
    assert rep["cyclic_identity"]
    # the cocycle is nontrivial yet the hamiltonian map is still a
    # homomorphism: constant brackets have zero hamiltonian field
    assert rep["hamiltonian_homomorphism"]


def test_momentum_cocycle_coadjoint_so3():
    rep = momentum_cocycle(so3_p(), so3_lie(),
                           [parse_poly(s, 3) for s in ("x0", "x1", "x2")])
    assert all(c.is_zero() for row in rep["table"] for c in row)
    assert rep["cyclic_identity"]
    assert rep["hamiltonian_homomorphism"]


def _check_certificates(p, gens, rep):
    """multipliers is None exactly when {g_i, x_j} = 0, and otherwise
    sum h_k g_k == {g_i, x_j}."""
    assert len(rep["certificates"]) == len(gens) * p.n
    for c in rep["certificates"]:
        br = pbracket(p, gens[c["generator"]], Poly.var(p.n, c["coordinate"]))
        if c["multipliers"] is None:
            assert br.is_zero()
            continue
        assert not br.is_zero()
        total = Poly.zero(p.n)
        for h, g in zip(c["multipliers"], gens):
            total = total + h * g
        assert total == br


def test_ideal_check_verdicts():
    so3 = so3_p()
    plane = bivector(2, {(0, 1): "1"})
    gens = [parse_poly("x0^2 + x1^2 + x2^2 - 1", 3)]
    sphere = ideal_check(so3, gens, 2)
    assert sphere["verdict"] == "poisson" and sphere["poisson_ideal"]
    _check_certificates(so3, gens, sphere)
    # {x0, x1} = x1 with g = x1: {g, x0} = -x1 = -1 * g, {g, x1} = 0
    affine = bivector(2, {(0, 1): "x1"})
    gens = [parse_poly("x1", 2)]
    line = ideal_check(affine, gens, 1)
    assert line["verdict"] == "poisson" and line["poisson_ideal"]
    _check_certificates(affine, gens, line)
    assert [c["multipliers"] for c in line["certificates"]] == \
        [[Poly.const(2, -1)], None]
    axis = ideal_check(plane, [parse_poly("x0", 2)], 2)
    assert axis["verdict"] == "refuted" and axis["poisson_ideal"] is False
    assert axis["failures"][0]["witness_point"] == [Fraction(0), Fraction(0)]
    cone = ideal_check(plane, [parse_poly("x0^2 + x1^2", 2)], 2)
    assert cone["verdict"] == "undecided"
    assert cone["poisson_ideal"] is None


def test_ideal_without_generators_is_poisson():
    assert ideal_check(so3_p(), [], 2) == {
        "verdict": "poisson", "poisson_ideal": True,
        "certificates": [], "failures": []}


# -- the one route per operator against the hand-written routes --------

def _catalog():
    """so(3), sl(2), aff(1), a Jacobian structure and a log-canonical
    structure, all Poisson."""
    phi = parse_poly("x0^3 + 2*x0*x1*x2 - x2^2 + x1", 3)
    return {
        "so3": so3_p(),
        "sl2": bivector(3, {(0, 1): "2*x1", (0, 2): "-2*x2", (1, 2): "x0"}),
        "aff1": bivector(2, {(0, 1): "x1"}),
        "jacobian": Multivector(3, 2, {(0, 1): phi.diff(2),
                                       (1, 2): phi.diff(0),
                                       (0, 2): -phi.diff(1)}),
        "log-canonical": bivector(3, {(0, 1): "x0*x1", (0, 2): "-x0*x2",
                                      (1, 2): "x1*x2"}),
    }


def _seeded_bivectors(seed, count):
    """Random bivectors on Q^2..Q^4 whose coefficients mix degrees 0-2,
    so many are neither homogeneous nor Poisson."""
    rng = rng_for(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 4)
        out.append(random_multivector(n, 2, rng, max_degree=2))
    return out


def _structures():
    return list(_catalog().values()) + _seeded_bivectors(61, 12)


def test_seeded_bivectors_include_non_homogeneous_ones():
    degrees = [{sum(e) for c in p.terms.values() for e in c.terms}
               for p in _seeded_bivectors(61, 12)]
    assert sum(len(d) > 1 for d in degrees) >= 6


def test_hamiltonian_matches_the_hand_route():
    rng = rng_for(62)
    for p in _structures():
        for _ in range(6):
            f = random_poly(p.n, rng, max_degree=3, terms=3)
            assert hamiltonian(p, f) == ref.hamiltonian(p, f), (p, f)
        for i in range(p.n):
            x = Poly.var(p.n, i)
            assert hamiltonian(p, x) == ref.hamiltonian(p, x)


def test_sharp_matches_the_wedge_of_hamiltonian_fields():
    rng = rng_for(65)
    for p in _structures():
        for grade in range(p.n + 1):
            for _ in range(3):
                a = random_form(p.n, grade, rng, max_degree=2)
                got = sharp(p, a)
                assert got.grade == grade
                assert got == ref.sharp(p, a), (p, a)


def test_field_brackets_match_the_hand_commutator():
    rng = rng_for(63)
    for p in _structures():
        fields = [hamiltonian(p, random_poly(p.n, rng, max_degree=3))
                  for _ in range(4)]
        for x in fields:
            for y in fields:
                got = schouten(x, y)
                assert got.grade == 1
                assert got == ref.vf_bracket(x, y), (p, x, y)


def test_casimir_basis_matches_the_per_monomial_route():
    for name, p in _catalog().items():
        for degree in range(4):
            got = casimir_basis(p, degree)
            assert got == ref.casimir_basis(p, degree), (name, degree)
    for p in _seeded_bivectors(64, 12):
        for degree in range(3):
            assert casimir_basis(p, degree) == ref.casimir_basis(p, degree), p


def test_casimirs_of_a_non_homogeneous_structure():
    # p = (1 + x2^2) d0^d1 on Q^3: X_f = (1 + x2^2)(f_0 d1 - f_1 d0)
    # vanishes iff f depends on x2 alone
    p = bivector(3, {(0, 1): "1 + x2^2"})
    for degree in range(6):
        want = ["1"] + ["x2" if k == 1 else "x2^%d" % k
                        for k in range(1, degree + 1)]
        assert [str(f) for f in casimir_basis(p, degree)] == want
