from fractions import Fraction

import pytest

from pforge.superalg import (MultiMap, comp_product, supercomm, dmu,
                             random_multimap, super_axiom_report,
                             koszul_check, standard_algebra,
                             NonInvolutiveElement, ArityMismatch)
from pforge.ncalg import AlgebraSC, BadAlgebra, derivations
from conftest import rng_for


def so3_mu():
    # structure tensor of so(3) as an arity-2 element of L(Q^3)
    return MultiMap(3, 2, {(0, 1): [Fraction(0), Fraction(0), Fraction(1)],
                           (0, 2): [Fraction(0), Fraction(-1), Fraction(0)],
                           (1, 2): [Fraction(1), Fraction(0), Fraction(0)]})


def test_antisymmetric_read():
    mu = so3_mu()
    assert mu.value((1, 0)) == [Fraction(0), Fraction(0), Fraction(-1)]
    assert mu.value((0, 0)) == [Fraction(0)] * 3


def test_comp_product_arity():
    rng = rng_for(31)
    a = random_multimap(4, 2, rng)
    b = random_multimap(4, 3, rng)
    assert comp_product(a, b).arity == 4


def test_comp_product_needs_arity():
    rng = rng_for(32)
    a = random_multimap(3, 0, rng)
    b = random_multimap(3, 2, rng)
    with pytest.raises(ArityMismatch):
        comp_product(a, b)


def test_super_axioms_random():
    rep = super_axiom_report(3, seed=2024, trials=40)
    assert rep["ok"]
    assert rep["s1_failures"] == 0 and rep["s2_failures"] == 0


def test_dmu_is_adjoint_action_on_points():
    mu = so3_mu()
    e0 = MultiMap(3, 0, {(): [Fraction(1), Fraction(0), Fraction(0)]})
    out = dmu(mu, e0)
    assert out.arity == 1
    assert out.value((1,)) == [Fraction(0), Fraction(0), Fraction(1)]
    assert out.value((2,)) == [Fraction(0), Fraction(-1), Fraction(0)]
    assert out.value((0,)) == [Fraction(0)] * 3


def test_dmu_squares_to_zero():
    mu = so3_mu()
    rng = rng_for(33)
    for arity in (0, 1, 2):
        a = random_multimap(3, arity, rng)
        assert dmu(mu, dmu(mu, a)).is_zero()


def test_dmu_rejects_non_involutive():
    e = lambda i: [Fraction(1 if j == i else 0) for j in range(3)]
    bad = MultiMap(3, 2, {(0, 1): e(0), (1, 2): e(1)})
    assert not supercomm(bad, bad).is_zero()
    rng = rng_for(34)
    with pytest.raises(NonInvolutiveElement):
        dmu(bad, random_multimap(3, 1, rng))


def test_standard_algebras_are_valid():
    for name in ("Q", "QxQ", "truncated3", "dual_pair"):
        A = standard_algebra(name)
        assert isinstance(A, AlgebraSC)
        # the oracle's algebras are commutative and unital
        assert A.unit is not None
        assert all(A.mult[i][j] == A.mult[j][i]
                   for i in range(A.dim) for j in range(A.dim))


def test_derivation_dimensions():
    assert len(derivations(standard_algebra("Q"))["basis"]) == 0
    assert len(derivations(standard_algebra("QxQ"))["basis"]) == 0
    assert len(derivations(standard_algebra("truncated3"))["basis"]) == 2
    assert len(derivations(standard_algebra("dual_pair"))["basis"]) == 4


KOSZUL_GOLD = {
    "Q": (1, 0, {0: 1, 1: 0, 2: 0}),
    "QxQ": (2, 0, {0: 2, 1: 0, 2: 0}),
    "truncated3": (3, 2, {0: 3, 1: 2, 2: 1}),
    "dual_pair": (4, 4, {0: 4, 1: 4, 2: 6}),
}


@pytest.mark.parametrize("name", sorted(KOSZUL_GOLD))
def test_koszul_supercommutator_identity(name):
    rep = koszul_check(standard_algebra(name))
    dim_a, dim_der, dims = KOSZUL_GOLD[name]
    assert rep["ok"]
    assert rep["counterexample"] is None
    assert rep["dim_algebra"] == dim_a
    assert rep["dim_der"] == dim_der
    assert rep["form_dims"] == dims


def test_koszul_check_refuses_an_algebra_without_a_unit():
    # on Q with e0 e0 = 0, L_{e0} is the zero map, a derivation, so the
    # basis of Der(A) + A is dependent and no verdict means anything
    A = AlgebraSC(1, [[[0]]])
    assert derivations(A)["basis"] == [[[1]]]
    with pytest.raises(BadAlgebra, match="unital"):
        koszul_check(A)
    with pytest.raises(BadAlgebra, match="unital"):
        koszul_check(AlgebraSC(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]))
