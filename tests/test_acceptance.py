"""Acceptance suite: twelve exact, seeded criteria, one report line each.

Every check is literal rational equality; nothing is approximated.  Each
test prints `ACCEPTANCE nn PASS|FAIL: <summary>` on the terminal even
under captured output, then asserts.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from pforge import linalg, serialize
from pforge.ratpoly import Poly, parse_poly
from pforge.multivec import (Multivector, all_index_tuples, jacobiator,
                             lichnerowicz_dp, schouten, wedge)
from pforge.forms import (Form, form_d, delta)
from pforge.symplectic import SymplecticContext
from pforge.homology import (monomials, poisson_cohomology_dims)
from pforge.analysis import (sharp, integrability_at, casimir_basis,
                             momentum_cocycle)
from pforge.superalg import (random_multimap, supercomm, super_axiom_report,
                             koszul_check, standard_algebra)
from pforge.ncalg import (LieAlgebraSC, derivations, submanifold_check,
                          bott_forms)
from reference_routes import schouten_identity_residual
from conftest import (bivector, random_multivector, random_form, random_poly,
                      rng_for)


def report(capsys, num, ok, desc):
    with capsys.disabled():
        print("ACCEPTANCE %02d %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, desc


PLANE = bivector(2, {(0, 1): "1"})
SO3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
SL2 = bivector(3, {(0, 1): "2*x1", (0, 2): "-2*x2", (1, 2): "x0"})
NON_JACOBI = bivector(3, {(0, 1): "1", (0, 2): "-x0"})
CATALOG = [PLANE, SO3, SL2]


def form_basis(n, grade, max_degree):
    for idx in all_index_tuples(n, grade):
        for d in range(max_degree + 1):
            for e in monomials(n, d):
                yield Form(n, grade, {idx: Poly(n, {e: Fraction(1)})})


def multivector_basis(n, grade, max_degree):
    for idx in all_index_tuples(n, grade):
        for d in range(max_degree + 1):
            for e in monomials(n, d):
                yield Multivector(n, grade, {idx: Poly(n, {e: Fraction(1)})})


def test_01_superalgebra_axioms(capsys):
    ok = True
    rng = rng_for(101)
    # 100 multivector pairs for graded symmetry (s1)
    for _ in range(100):
        n = rng.randint(1, 3)
        m, k = rng.randint(0, n), rng.randint(0, n)
        u = random_multivector(n, m, rng)
        v = random_multivector(n, k, rng)
        ok &= schouten(u, v) == schouten(v, u).scale(Fraction((-1) ** (m * k)))
    # 100 multivector triples for the signed cyclic identity (s2)
    for _ in range(100):
        n = rng.randint(1, 3)
        m, k, l = (rng.randint(0, n) for _ in range(3))
        a = random_multivector(n, m, rng, max_degree=1)
        b = random_multivector(n, k, rng, max_degree=1)
        c = random_multivector(n, l, rng, max_degree=1)
        s = (schouten(schouten(a, b), c).scale(Fraction((-1) ** (m * l)))
             + schouten(schouten(b, c), a).scale(Fraction((-1) ** (m * k)))
             + schouten(schouten(c, a), b).scale(Fraction((-1) ** (k * l))))
        ok &= s.is_zero()
    # 100 dense random multilinear-map triples, dim <= 4, arity <= 3
    for dim, trials, seed in ((2, 34, 2101), (3, 33, 2102), (4, 33, 2103)):
        rep = super_axiom_report(dim, seed, trials=trials)
        ok &= rep["ok"]
    report(capsys, 1, ok, "superalgebra axioms (s1)/(s2), 300 seeded draws")


def test_02_involutivity_and_coboundaries(capsys):
    ok = jacobiator(PLANE).is_zero() and jacobiator(SO3).is_zero() \
        and jacobiator(SL2).is_zero()
    two = Multivector(3, 3, {(0, 1, 2): parse_poly("2", 3)})
    ok &= jacobiator(NON_JACOBI) == two
    for p in CATALOG:
        n = p.n
        for k in range(n + 1):
            for u in multivector_basis(n, k, 3):
                ok &= lichnerowicz_dp(p, lichnerowicz_dp(p, u)).is_zero()
            for a in form_basis(n, k, 3):
                ok &= delta(p, delta(p, a)).is_zero()
                ok &= (form_d(delta(p, a)) + delta(p, form_d(a))).is_zero()
    report(capsys, 2, ok, "jacobiators, d_P^2 = 0, delta^2 = 0, "
           "d delta + delta d = 0 on catalog bases")


def test_03_star_identities(capsys):
    ok = True
    r4 = bivector(4, {(0, 1): "1", (2, 3): "1"})
    for p in (PLANE, r4):
        ctx = SymplecticContext(p)
        one = Form.from_poly(parse_poly("1", p.n))
        ok &= ctx.star(one) == ctx.vol and ctx.star(ctx.vol) == one
        for k in range(p.n + 1):
            for a in form_basis(p.n, k, 3):
                ok &= ctx.star(ctx.star(a)) == a
                if k >= 1:
                    ok &= delta(p, a) == \
                        ctx.star(form_d(ctx.star(a))).scale((-1) ** k)
                else:
                    ok &= delta(p, a).is_zero()
    report(capsys, 3, ok, "star involution and delta = (-1)^k star d star "
           "on R^2 and R^4")


def test_04_chain_map(capsys):
    ok = True
    for p in (PLANE, SO3):
        for k in range(3):
            if k > p.n:
                continue
            for a in form_basis(p.n, k, 2):
                ok &= sharp(p, form_d(a)) == lichnerowicz_dp(p, sharp(p, a))
    report(capsys, 4, ok, "sharp is a chain map d -> d_P on grades <= 2")


def test_05_cohomology_dimensions(capsys):
    ok = True
    rows = poisson_cohomology_dims(PLANE, 2, 4)
    for r in rows:
        want = 1 if (r["grade"], r["weight"]) == (0, 0) else 0
        ok &= r["dim_H"] == want
    rows = poisson_cohomology_dims(SO3, 0, 4)
    got = tuple(r["dim_H"] for r in rows if r["grade"] == 0)
    ok &= got == (1, 0, 1, 0, 1)
    report(capsys, 5, ok, "plane H = Q in degree 0 only; so(3) H^0 weights "
           "= (1,0,1,0,1)")


def test_06_casimirs_only_constants(capsys):
    p1 = bivector(2, {(0, 1): "x0"})
    basis = casimir_basis(p1, 6)
    ok = [str(b) for b in basis] == ["1"]
    report(capsys, 6, ok, "x0 d0^d1: Casimirs up to degree 6 are the "
           "constants")


def test_07_pointwise_integrability(capsys):
    ok = True
    rng = rng_for(107)
    structures = CATALOG + [bivector(2, {(0, 1): "x0"})]
    for p in structures:
        for _ in range(20):
            pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(p.n)]
            ok &= integrability_at(p, pt)
    ok &= not integrability_at(NON_JACOBI, [Fraction(0)] * 3)
    report(capsys, 7, ok, "integrability at 20 random rational points per "
           "structure; non-Jacobi origin refuted")


def test_08_momentum_cocycle(capsys):
    z = [Fraction(0)] * 2
    translations = LieAlgebraSC(2, [[z, z], [z, z]])
    lam = [parse_poly("x1", 2), parse_poly("x0", 2)]
    rep = momentum_cocycle(PLANE, translations, lam)
    ok = str(rep["table"][0][1]) == "1" and rep["cyclic_identity"]

    def e(i, s=1):
        v = [Fraction(0)] * 3
        v[i] = Fraction(s)
        return v
    z3 = [Fraction(0)] * 3
    so3_g = LieAlgebraSC(3, [[z3, e(2), e(1, -1)],
                             [e(2, -1), z3, e(0)],
                             [e(1), e(0, -1), z3]])
    rep = momentum_cocycle(SO3, so3_g,
                           [parse_poly(s, 3) for s in ("x0", "x1", "x2")])
    ok &= all(c.is_zero() for row in rep["table"] for c in row)
    ok &= rep["cyclic_identity"] and rep["hamiltonian_homomorphism"]
    report(capsys, 8, ok, "translation cocycle c[1][2] = 1; so(3) coadjoint "
           "cocycle vanishes")


def _lie(dim, entries):
    z = [Fraction(0)] * dim
    c = [[list(z) for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in entries.items():
        for t, val in vec:
            c[i][j][t] = Fraction(val)
            c[j][i][t] = Fraction(-val)
    return LieAlgebraSC(dim, c)


def _lie_catalog():
    def rows(dim, idxs):
        out = []
        for i in idxs:
            v = [Fraction(0)] * dim
            v[i] = Fraction(1)
            out.append(v)
        return out

    abelian = lambda d: _lie(d, {})
    heis = _lie(3, {(0, 1): [(2, 1)]})
    so3 = _lie(3, {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]})
    sl2 = _lie(3, {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]})
    r2 = _lie(2, {(0, 1): [(1, 1)]})
    r3 = _lie(3, {(0, 1): [(1, 1)], (0, 2): [(2, 1)]})
    r3m = _lie(3, {(0, 1): [(1, 1)], (0, 2): [(2, -1)]})
    eucl = _lie(3, {(0, 1): [(2, 1)], (0, 2): [(1, -1)]})
    heis_q = _lie(4, {(0, 1): [(2, 1)]})
    r2_q = _lie(3, {(0, 1): [(1, 1)]})
    r2_r2 = _lie(4, {(0, 1): [(1, 1)], (2, 3): [(3, 1)]})
    so3_q = _lie(4, {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]})
    sl2_q = _lie(4, {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]})
    return [
        (abelian(2), rows(2, [0])),
        (abelian(3), rows(3, [0, 1])),
        (abelian(4), rows(4, [1])),
        (heis, rows(3, [2])),
        (heis, rows(3, [1, 2])),
        (so3, rows(3, [0])),
        (so3, rows(3, [2])),
        (sl2, rows(3, [0])),
        (sl2, rows(3, [0, 1])),
        (r2, rows(2, [1])),
        (r2, rows(2, [0])),
        (r3, rows(3, [1, 2])),
        (r3, rows(3, [0])),
        (r3m, rows(3, [1])),
        (eucl, rows(3, [1, 2])),
        (heis_q, rows(4, [2, 3])),
        (r2_q, rows(3, [1, 2])),
        (r2_r2, rows(4, [1, 3])),
        (so3_q, rows(4, [2, 3])),
        (sl2_q, rows(4, [0, 3])),
    ]


def test_09_noncommutative_calculus(capsys):
    from test_ncalg import matrix_algebra_2x2, truncated3
    rep = derivations(matrix_algebra_2x2())
    flat = lambda m: [x for r in m for x in r]
    ok = len(rep["basis"]) == 3 and \
        linalg.subspace_equal([flat(m) for m in rep["basis"]],
                              [flat(m) for m in rep["inner"]])
    ok &= len(derivations(truncated3())["basis"]) == 2
    ok &= submanifold_check(
        truncated3(),
        [[Fraction(0), Fraction(0), Fraction(1)]])["submanifold"]
    catalog = _lie_catalog()
    ok &= len(catalog) == 20
    for g, sub in catalog:
        ok &= bott_forms(g, sub)["flat"]
    report(capsys, 9, ok, "Der(M2) = inner, dim 3; Der(Q[t]/t^3) dim 2; "
           "(t^2) submanifold; 20 Bott connections flat")


def test_10_koszul_supercommutator(capsys):
    ok = True
    for name in ("Q", "QxQ", "truncated3", "dual_pair"):
        rep = koszul_check(standard_algebra(name))
        ok &= rep["ok"] and rep["counterexample"] is None
    report(capsys, 10, ok, "[mu, omega] = -d omega on Q, QxQ, Q[t]/t^3, "
           "Q[s,t]/(s^2,t^2)")


def test_11_invariant_schouten_identity(capsys):
    ok = True
    rng = rng_for(111)
    count = 0
    while count < 200:
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        k = rng.randint(1, 2)
        if m + k - 1 > n:
            continue
        u = random_multivector(n, m, rng, max_degree=1)
        v = random_multivector(n, k, rng, max_degree=1)
        w = random_form(n, m + k - 1, rng, max_degree=1)
        ok &= schouten_identity_residual(w, u, v).is_zero()
        count += 1
    report(capsys, 11, ok, "invariant bracket identity residual = 0 on 200 "
           "seeded instances")


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "pforge.cli"] + list(args),
                          capture_output=True, text=True)


def test_12_cli_determinism_and_round_trips(capsys):
    so3_json = json.dumps(serialize.multivector_to_json(SO3))
    commands = [
        ("check", "-i", so3_json),
        ("cohomology", "-i", so3_json, "--complex", "lich",
         "--max-grade", "1", "--max-weight", "2"),
        ("casimir", "-i", so3_json, "--max-degree", "2"),
    ]
    ok = True
    for cmd in commands:
        a, b = _cli(*cmd), _cli(*cmd)
        ok &= a.returncode == 0 and a.stdout == b.stdout
    # parse/print round trips across the golden corpus
    rng = rng_for(112)
    corpus = list(CATALOG) + [NON_JACOBI] + \
        [random_multivector(3, g, rng) for g in range(4)]
    for u in corpus:
        ok &= serialize.multivector_from_json(
            json.loads(json.dumps(serialize.multivector_to_json(u)))) == u
    for g in range(4):
        a = random_form(3, g, rng)
        ok &= serialize.form_from_json(
            json.loads(json.dumps(serialize.form_to_json(a)))) == a
    report(capsys, 12, ok, "byte-identical reruns; corpus parse/print "
           "round trips")
