"""superalg's one accumulating kernel against the whole-map routes.

`superalg` adds both products of a supercommutator, the (s1) and (s2)
residues of the axiom report and [mu, w] + dw of the Koszul check into
one dict accumulator each, and reads only nonzero module-action
coordinates and Der(A) structure constants.  The routes in
`reference_routes` build every supercommutator as whole `MultiMap`s
from the literal shuffle sum, add them up, and visit every derivation
index.  Both must give the same maps and the same reports, and the
checks must still fail when a sign in the kernel is flipped.
"""

import random

import pytest

from pforge import serialize, superalg
from pforge.ncalg import AlgebraSC
from pforge.superalg import (MultiMap, OperatorSpace, KOSZUL_MAX_GRADE,
                             koszul_check, standard_algebra,
                             super_axiom_report)
import reference_routes as ref
from test_exact_algebras import CASES, truncated
from test_golden import truncated as signed_truncated
from test_l4_kernels import identical, random_map


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_supercomm_matches_whole_map_route_on_random_maps(fractions):
    rng = random.Random(2601 + fractions)
    arities = set()
    for _ in range(60):
        dim, m, n = rng.randint(1, 5), rng.randint(0, 3), rng.randint(0, 3)
        arities.update((m, n))
        a = random_map(rng, dim, m, fractions)
        b = random_map(rng, dim, n, fractions)
        identical(superalg.supercomm(a, b), ref.supercomm(a, b))
    assert arities == {0, 1, 2, 3}


@pytest.mark.parametrize("dim, seed, trials", [(3, 2024, 40), (4, 1, 20),
                                               (5, 2, 10), (6, 0, 5)])
def test_super_axiom_report_matches_whole_map_route(dim, seed, trials):
    got = super_axiom_report(dim, seed, trials)
    assert got == ref.super_axiom_report(dim, seed, trials)
    assert got["ok"] is True


def signed(a, b, seed):
    """Q[x]/x^a (x) Q[y]/y^b on a seeded signed permutation of x^i y^j."""
    return serialize.algebra_from_json(signed_truncated(a, b, seed=seed)[0])


KOSZUL_CASES = [(name, standard_algebra(name)) for name in
                ("Q", "QxQ", "Q[t]/t^3", "Q[s,t]/(s^2,t^2)")] + \
    [(c[0], c[1]) for c in CASES if c[0][:4] in ("x2y2", "x3y1")] + \
    [("x3y2", AlgebraSC(6, *truncated(3, 2)[:2]))] + \
    [("x%dy%d-signed-%d" % (a, b, seed), signed(a, b, seed))
     for a, b in ((2, 2), (3, 1), (3, 2)) for seed in (26, 2026)]


@pytest.mark.parametrize("name, A", KOSZUL_CASES,
                         ids=[c[0] for c in KOSZUL_CASES])
def test_koszul_check_matches_whole_map_route(name, A):
    rep = koszul_check(A)
    assert rep == ref.koszul_check(A)
    assert rep["ok"] is True
    space = OperatorSpace(A)
    for n in range(KOSZUL_MAX_GRADE + 1):
        basis = superalg._form_basis(space, n)
        assert basis == ref.form_basis(space, n)
        for table in basis:
            dw = superalg._koszul_d(space, table, n, {})
            identical(MultiMap._trusted(space.dim, n + 1, dw),
                      ref.embed(space, ref.koszul_d(space, table, n), n + 1))


def test_flipped_supercommutator_sign_fails_both_axioms(monkeypatch):
    compose = superalg._compose

    def flipped(alpha, beta, acc, scale=1):
        # `_supercomm` with the sign of its second term flipped
        m, n = alpha.arity, beta.arity
        if m >= 1:
            compose(alpha, beta, acc, scale * (-1) ** ((m + 1) * n))
        if n >= 1:
            compose(beta, alpha, acc, -scale * (-1) ** m)
        return acc
    monkeypatch.setattr(superalg, "_supercomm", flipped)
    for dim, seed in ((3, 2024), (4, 0)):
        rep = super_axiom_report(dim, seed, 20)
        assert rep["ok"] is False
        assert rep["s1_failures"] > 0 and rep["s2_failures"] > 0


def test_flipped_koszul_sign_gives_a_counterexample(monkeypatch):
    koszul_d = superalg._koszul_d

    def flipped(space, table, n, acc):
        # adds -dw where `_koszul_d` adds dw
        for key, vec in koszul_d(space, table, n, {}).items():
            out = acc.setdefault(key, [0] * space.dim)
            for r, x in enumerate(vec):
                out[r] -= x
        return acc
    monkeypatch.setattr(superalg, "_koszul_d", flipped)
    for name in ("Q[t]/t^3", "Q[s,t]/(s^2,t^2)"):
        rep = koszul_check(standard_algebra(name))
        assert rep["ok"] is False
        assert rep["counterexample"] == "grade 0, basis element 1"


def test_superalg_work_counts(monkeypatch):
    # counts, not timings: `sort_sign` calls of the Koszul check on
    # Q[x]/x^3 (x) Q[y]/y^2 (18,696 when a sign was found for every
    # derivation index and zero constant), and validated MultiMap
    # constructions in the dim-6 axiom report (2,632 when every
    # supercommutator was built from scaled and added whole maps)
    signs = [0]
    sort_sign = superalg.sort_sign

    def counted_sign(idx):
        signs[0] += 1
        return sort_sign(idx)
    monkeypatch.setattr(superalg, "sort_sign", counted_sign)
    assert koszul_check(AlgebraSC(6, *truncated(3, 2)[:2]))["ok"]
    assert 0 < signs[0] < 2000
    built = [0]
    init = MultiMap.__init__

    def counted_init(self, *args):
        built[0] += 1
        init(self, *args)
    monkeypatch.setattr(MultiMap, "__init__", counted_init)
    assert super_axiom_report(6, 0)["ok"]
    # one validated construction per drawn map
    assert built[0] == 3 * 50


def test_koszul_check_solves_each_module_action_once(monkeypatch):
    # the form bases of grades 1 and 2 share one table of the m * d
    # module actions e_a . X_t (2 * m * d solves when each grade made
    # its own)
    calls = []
    module_action = OperatorSpace.module_action

    def counted(self, a, t):
        calls.append((a, t))
        return module_action(self, a, t)
    monkeypatch.setattr(OperatorSpace, "module_action", counted)
    for name, A in KOSZUL_CASES:
        del calls[:]
        rep = koszul_check(A)
        assert sorted(calls) == [(a, t) for a in range(A.dim)
                                 for t in range(rep["dim_der"])], name
