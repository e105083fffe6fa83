"""Structure analysis of a bivector field.

Sharp map, Hamiltonian fields, pointwise rank and integrability,
Casimir search, momentum cocycles, and bounded-degree Poisson-ideal
checks.  Point computations are exact: points are rational, membership
questions are decided by exact rank comparisons, and every verdict
carries enough data to re-check it.
"""

from bisect import bisect_left
from fractions import Fraction
from itertools import product

from . import linalg
from .ratpoly import Poly, DimensionMismatch
from .multivec import (Multivector, wedge, schouten, lichnerowicz_dp,
                       check_bivector, add_term, _width, _degree, _pack,
                       _coordinate_fields)
from .forms import pbracket_of as pbracket, _check_pair
from .homology import (monomials, LICHNEROWICZ, _leibniz_tables,
                       _packed_monomials, _column)


def sharp(p, a):
    """Bivector-induced map from forms to multivectors, grade-preserving.

    On functions it is the identity; on dx_i it gives the field
    S_i = sum_j {x_i, x_j} d_j; on higher forms the wedge of those.
    """
    _check_pair(a, check_bivector(p))
    n = p.n
    if a.grade == 0:
        return Multivector.from_poly(a.as_poly())
    # each field S_i has coefficients of p's degree, and a term on dx_I
    # multiplies its coefficient by |I| of them
    w = _width(_degree(a) + a.grade * _degree(p))
    fields = _coordinate_fields(_pack(p, w), n)
    # the wedge S_I = S_{i1} ^ ... ^ S_{ik} of each index tuple extends
    # its prefix's, and the coefficient of dx_I multiplies S_I once.  In
    # lexicographic order the tuples that share a prefix are adjacent, so
    # keeping only the wedges along the last tuple's prefixes (path[j] is
    # S of last[:j]) still builds each prefix once
    path, last = [{(): {0: 1}}], ()
    acc = {}
    for idx, c in sorted(_pack(a, w).items()):
        j = 0
        while j < len(last) and last[j] == idx[j]:
            j += 1
        del path[j + 1:]
        for i in idx[j:]:
            path.append(_wedge_field(path[-1], fields[i]))
        last = idx
        for key, h in path[-1].items():
            add_term(acc, key, 1, c, h)
    return Multivector.build(n, a.grade, acc, w)


def _wedge_field(pu, px):
    """Packed u ^ X for a packed vector field X: each d_j of X moves left
    past the indices of u above j, found by bisection in the sorted iu."""
    acc = {}
    for iu, cu in pu.items():
        for (j,), cx in px.items():
            b = bisect_left(iu, j)
            if b < len(iu) and iu[b] == j:
                continue
            add_term(acc, iu[:b] + (j,) + iu[b:],
                     -1 if (len(iu) - b) & 1 else 1, cu, cx)
    return acc


def hamiltonian(p, f):
    """Hamiltonian field X_f = [p, f], with X_f(g) = {f, g}
    (Lichnerowicz 1977)."""
    return lichnerowicz_dp(p, Multivector.from_poly(f))


def bivector_matrix_at(p, point):
    """Antisymmetric matrix P(x) with P[i][j] = {x_i, x_j}(x)."""
    n = p.n
    if len(point) != n:
        raise DimensionMismatch("point length %d != n=%d" % (len(point), n))
    m = [[0] * n for _ in range(n)]
    for (i, j), c in p.terms.items():
        v = linalg.exact(c.eval(point))
        m[i][j] = v
        m[j][i] = -v
    return m


def _wedge_power_rank(p, point):
    """2k with p(x)^k != 0 and p(x)^(k+1) = 0, on the evaluated bivector."""
    n = p.n
    px = Multivector(n, 2, {idx: c.eval(point) for idx, c in p.terms.items()})
    power, k = Multivector.from_poly(Poly.const(n, 1)), 0
    while not (power := wedge(power, px)).is_zero():
        k += 1
    return 2 * k


def rank_at(p, point):
    """Pointwise rank by both the wedge-power criterion and matrix rank
    (the length of the reduced echelon basis of p(x)'s image), with that
    basis and whether p is involutive at x."""
    point = linalg.exact_vector(point)
    image = linalg.row_space_basis(bivector_matrix_at(p, point))
    rank, r_wedge = len(image), _wedge_power_rank(p, point)
    if rank != r_wedge:
        raise AssertionError(
            "rank criteria disagree: matrix %d vs wedge %d" % (rank, r_wedge))
    return {"point": point, "rank": rank, "image_basis": image,
            "integrable_here": integrability_at(p, point)}


def integrability_at(p, point):
    """Pointwise involutivity: [S_i, S_j](x) must lie in the image of p(x)."""
    point = [Fraction(x) for x in point]
    n = p.n
    m = bivector_matrix_at(p, point)
    image = linalg.Subspace(m, n)
    fields = [hamiltonian(p, Poly.var(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = schouten(fields[i], fields[j])
            vec = [br.coeff((t,)).eval(point) for t in range(n)]
            if not image.contains(vec):
                return False
    return True


def is_casimir(p, f):
    """True iff the Hamiltonian field of f vanishes identically."""
    return hamiltonian(p, f).is_zero()


def casimir_basis(p, max_degree):
    """Exact basis of Casimir polynomials of total degree <= max_degree.

    The Casimirs are the kernel of f -> X_f = [p, f].  The column of
    each monomial x^e is read off the grade-0 Leibniz table of [p, .]
    (`homology._column`), and its packed keys are the nullspace rows.
    p need not be homogeneous."""
    n = check_bivector(p).n
    w = _width(max_degree + _degree(p))
    mons = [m for deg in range(max_degree + 1)
            for m in _packed_monomials(n, deg, w)]
    table = _leibniz_tables(p, LICHNEROWICZ, 0, w)[()]
    rows = {}
    for j, (e, pe) in enumerate(mons):
        for key, v in _column(table, e, pe, w).items():
            if v:
                rows.setdefault(key, {})[j] = v
    return [Poly(n, {e: c for (e, _), c in zip(mons, v) if c})
            for v in linalg.nullspace(list(rows.values()), ncols=len(mons))]


def momentum_cocycle(p, g, lam):
    """Cocycle table c[i][j] = lam([e_i,e_j]) - {lam(e_i), lam(e_j)}.

    Returns the table plus two reported checks: the cyclic identity on
    the bilinear extension of c, and whether the Hamiltonian fields of
    lam realize the bracket homomorphically.
    """
    d = g.dim
    if len(lam) != d:
        raise DimensionMismatch("lambda must cover all %d basis elements" % d)
    n = p.n

    def lam_of(vec):
        out = Poly.zero(n)
        for k, c in enumerate(vec):
            if c:
                out = out + lam[k] * c
        return out

    c = [[lam_of(g.c[i][j]) - pbracket(p, lam[i], lam[j]) for j in range(d)]
         for i in range(d)]

    def c_of(u, v):
        out = Poly.zero(n)
        for i in range(d):
            if not u[i]:
                continue
            for j in range(d):
                if v[j]:
                    out = out + c[i][j] * (u[i] * v[j])
        return out

    basis = [linalg.unit_vector(i, d) for i in range(d)]
    cyclic_ok = all((c_of(g.c[i][j], basis[k]) + c_of(g.c[j][k], basis[i])
                     + c_of(g.c[k][i], basis[j])).is_zero()
                    for i, j, k in product(range(d), repeat=3))
    fields = [hamiltonian(p, f) for f in lam]
    ham_ok = all(schouten(fields[i], fields[j])
                 == hamiltonian(p, lam_of(g.c[i][j]))
                 for i in range(d) for j in range(d))
    return {"table": c, "cyclic_identity": cyclic_ok,
            "hamiltonian_homomorphism": ham_ok}


def _membership(target, gens, degree_bound):
    """Express target = sum h_k * g_k with deg h_k <= degree_bound.

    Returns the list of multipliers h_k or None.
    """
    n = target.n
    mons = [e for deg in range(degree_bound + 1) for e in monomials(n, deg)]
    per = len(mons)
    # one row per monomial: the coefficients it gets from each h_k g_k
    rows = {ee: {} for ee in target.terms}
    for k, gk in enumerate(gens):
        for m, e in enumerate(mons):
            for ee, v in (Poly(n, {e: 1}) * gk).terms.items():
                rows.setdefault(ee, {})[k * per + m] = v
    sol = linalg.solve(list(rows.values()),
                       [target.terms.get(ee, 0) for ee in rows],
                       ncols=len(gens) * per)
    if sol is None:
        return None
    mults = []
    for k in range(len(gens)):
        seg = sol[k * per:(k + 1) * per]
        mults.append(Poly(n, {e: c for e, c in zip(mons, seg) if c}))
    return mults


def _zero_witness(gens, target, n):
    """Rational point where all generators vanish but the target does not."""
    values = [0, 1, -1, 2, Fraction(1, 2)]
    if n > 3:
        values = values[:3]
    for pt in product(values, repeat=n):
        if all(g.eval(pt) == 0 for g in gens) and target.eval(pt) != 0:
            return list(pt)
    return None


def ideal_check(p, generators, degree_bound):
    """Bounded-degree check that the generators span a Poisson ideal.

    Each bracket {g_i, x_j} is tested for membership in the ideal with
    multiplier degrees <= degree_bound.  A failed membership is refuted
    outright when a rational common zero of the generators where the
    bracket is nonzero is found; otherwise the verdict is undecided.
    """
    n = p.n
    certificates = []
    failures = []
    for gi, g in enumerate(generators):
        for j in range(n):
            br = pbracket(p, g, Poly.var(n, j))
            if br.is_zero():
                certificates.append({"generator": gi, "coordinate": j,
                                     "multipliers": None})
                continue
            mults = _membership(br, generators, degree_bound)
            if mults is not None:
                certificates.append({"generator": gi, "coordinate": j,
                                     "multipliers": mults})
                continue
            witness = _zero_witness(generators, br, n)
            failures.append({"generator": gi, "coordinate": j,
                             "witness_point": witness})
    if any(f["witness_point"] is not None for f in failures):
        verdict, flag = "refuted", False
    elif failures:
        verdict, flag = "undecided", None
    else:
        verdict, flag = "poisson", True
    return {"verdict": verdict, "poisson_ideal": flag,
            "certificates": certificates, "failures": failures}
