"""The three workloads: seeded pforge jobs and the checks on their outputs.

A workload is a fixed list of `Job`s made from a seed.  Each job is one
`pforge` command line; a job may build its input from the output of an
earlier job of the same round (a chain such as delta then delta again).
After a round, each job's `check` runs against the parsed outputs of
that round and raises `oracles.CheckFailed` on a wrong answer.

The seed is anything `random.Random` takes; `run.py` passes
"<seed>/<round>", so that every round gets its own inputs.  The seed
changes the inputs but not their size or sparsity: Lie-Poisson
structures and finite algebras get a seeded signed permutation of their
basis, and random polynomials get seeded coefficients on a support that
does not depend on the seed, so every seed asks for the same work.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import oracles as o

F = Fraction


class Job:
    """One pforge invocation.

    `argv` is a list, or a function of the outputs so far (key -> parsed
    JSON) that returns one.  `check(outputs)` runs after the round.
    `part` groups jobs for the traced per-part breakdown.
    """

    __slots__ = ("key", "part", "argv", "check")

    def __init__(self, key, part, argv, check=None):
        self.key = key
        self.part = part
        self.argv = argv
        self.check = check


def _json(obj):
    return json.dumps(obj, separators=(",", ":"))


# -- seeded inputs ----------------------------------------------------


def signed_permutation(rng, d):
    perm = list(range(d))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(d)]


# {x_i, x_j} = c * x_k for each (i, j, k, c)
SO3 = [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]
SL2 = [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]


def lie_poisson(rng, summands):
    """Direct sum of rank-one Lie-Poisson structures in seeded signed,
    permuted coordinates; returns (n, bivector dict)."""
    n = 3 * len(summands)
    perm, sign = signed_permutation(rng, n)
    p = {}
    for s, table in enumerate(summands):
        for i, j, k, c in table:
            a, b, t = (perm[3 * s + x] for x in (i, j, k))
            c *= sign[a] * sign[b] * sign[t]
            if a > b:
                a, b, c = b, a, -c
            p[(a, b)] = o.padd(p.get((a, b), {}),
                               {tuple(int(v == t) for v in range(n)): F(c)})
    return n, p


def monomials(n, degree):
    return sorted(e for e in _compositions(n, degree))


def _compositions(n, degree):
    if n == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _compositions(n - 1, degree - first):
            yield (first,) + rest


def nonzero(rng, bound=3):
    return F(rng.choice([c for c in range(-bound, bound + 1) if c]))


def random_poly(rng, shape, n, degree, terms):
    """`terms` monomials of one degree drawn by `shape`, which does not
    depend on the seed, with nonzero coefficients drawn by `rng`."""
    chosen = shape.sample(monomials(n, degree),
                          min(terms, len(monomials(n, degree))))
    return {e: nonzero(rng) for e in sorted(chosen)}


def random_field(rng, shape, n, grade, degree, terms):
    return {idx: random_poly(rng, shape, n, degree, terms)
            for idx in combinations(range(n), grade)}


def unipotent(rng, n):
    """Unit upper-triangular, with seeded signs above the diagonal."""
    return [[F(1) if i == j else F(rng.choice((-1, 1))) if i < j else F(0)
             for j in range(n)] for i in range(n)]


def log_canonical(rng, n):
    """A dense quadratic Poisson bivector on Q^n: {y_i, y_j} = a_ij y_i y_j
    pushed through the unipotent change of coordinates x = U y."""
    u = unipotent(rng, n)
    # y = U^{-1} x, by back substitution on the unit upper-triangular U
    y = [None] * n
    for i in reversed(range(n)):
        acc = o.pvar(n, i)
        for j in range(i + 1, n):
            if u[i][j]:
                acc = o.padd(acc, y[j], -u[i][j])
        y[i] = acc
    p = {}
    for i, j in combinations(range(n), 2):
        a = nonzero(rng)
        # {x_k, x_l} = sum_ij U_ki U_lj a_ij y_i y_j
        yy = o.pmul(y[i], y[j])
        for k in range(n):
            for l in range(k + 1, n):
                c = u[k][i] * u[l][j] - u[k][j] * u[l][i]
                if c:
                    p[(k, l)] = o.padd(p.get((k, l), {}), yy, c * a)
    return {idx: c for idx, c in p.items() if c}


def symplectic_constant(rng, m):
    """Constant nondegenerate bivector M J M^T on Q^{2m}, M unipotent."""
    n = 2 * m
    M = unipotent(rng, n)
    J = [[F(0)] * n for _ in range(n)]
    for i in range(m):
        J[2 * i][2 * i + 1], J[2 * i + 1][2 * i] = F(1), F(-1)
    P = o.mat_mul(o.mat_mul(M, J), [list(r) for r in zip(*M)])
    const = (0,) * n
    return {(i, j): {const: P[i][j]}
            for i, j in combinations(range(n), 2) if P[i][j]}


# -- poisson-cohomology -----------------------------------------------


def _cohomology(p_json, kind, grade, weight):
    return ["cohomology", "-i", p_json, "--complex", kind,
            "--max-grade", str(grade), "--max-weight", str(weight)]


def _lie_poisson_jobs(name, part, rng, summands, grade, weight):
    n, p = lie_poisson(rng, summands)
    m = len(summands)
    p_json = _json(o.field_to_json(n, 2, p))
    lich, can = name + "-lich", name + "-can"
    # on Q^3 the canonical side reaches every lich block's dual, weight
    # W + 3; on Q^6 those duals are far too large, so it stops at W + 2
    can_weight = weight + 3 if n == 3 else weight + 2
    cas_degree = max(weight, 2)

    def check_lich(out):
        t = o.check_rows(out[lich]["rows"], o.LICH, n, grade, weight)
        o.check_lie_poisson(t, o.LICH, n, m)

    def check_can(out):
        t = o.check_rows(out[can]["rows"], o.CAN, n, grade, can_weight)
        o.check_lie_poisson(t, o.CAN, n, m)
        if n == 3:
            lt = o.check_rows(out[lich]["rows"], o.LICH, n, grade, weight)
            o.check_duality(lt, t, n)

    def check_cas(out):
        total = sum(o.lie_poisson_dim(m, 0, d) for d in range(cas_degree + 1))
        o.check_casimirs(n, p, out[name + "-cas"]["basis"], total)

    return [
        Job(lich, part, _cohomology(p_json, "lich", grade, weight),
            check_lich),
        Job(can, part, _cohomology(p_json, "can", grade, can_weight),
            check_can),
        Job(name + "-cas", part, ["casimir", "-i", p_json, "--max-degree",
                                  str(cas_degree)], check_cas),
    ]


# fixed supports, so that every seed asks for the same work; the pure
# powers make the singularity of a generic member isolated
PHI_SUPPORT = {3: [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)],
               4: [(4, 0, 0), (0, 4, 0), (0, 0, 4), (2, 1, 1), (0, 2, 2)]}


def _jacobian_jobs(name, rng, degree, grade, weight, with_can=True):
    """{x_i,x_j} = eps_ijk dphi/dx_k, phi of `degree` with seeded
    coefficients on a fixed support."""
    phi = {e: nonzero(rng) for e in PHI_SUPPORT[degree]}
    p = o.jacobian_bivector(phi)
    p_json = _json(o.field_to_json(3, 2, p))
    lich, can, cas = name + "-lich", name + "-can", name + "-cas"

    def check_lich(out):
        t = o.check_rows(out[lich]["rows"], o.LICH, 3, grade, weight)
        for w in range(0, weight + 1, degree):
            o.need(t[(0, w)] >= 1, "H^0(%d) misses phi^%d", w, w // degree)

    def check_can(out):
        lt = o.check_rows(out[lich]["rows"], o.LICH, 3, grade, weight)
        ct = o.check_rows(out[can]["rows"], o.CAN, 3, 3, weight + 3)
        o.check_duality(lt, ct, 3)

    def check_cas(out):
        lt = o.check_rows(out[lich]["rows"], o.LICH, 3, grade, weight)
        h0 = sum(lt[(0, w)] for w in range(weight + 1))
        o.check_casimirs(3, p, out[cas]["basis"], h0, must_contain=phi)

    jobs = [Job(lich, "q3", _cohomology(p_json, "lich", grade, weight),
                check_lich)]
    if with_can:
        jobs.append(Job(can, "q3", _cohomology(p_json, "can", 3, weight + 3),
                        check_can))
    jobs.append(Job(cas, "q3", ["casimir", "-i", p_json, "--max-degree",
                                str(weight)], check_cas))
    return jobs


def poisson_cohomology(seed):
    rng = random.Random(seed)
    return (_lie_poisson_jobs("so3", "q3", rng, [SO3], 3, 3)
            + _lie_poisson_jobs("sl2", "q3", rng, [SL2], 3, 2)
            + _jacobian_jobs("jac3", rng, 3, 3, 3)
            + _jacobian_jobs("jac4", rng, 4, 1, 4, with_can=False)
            + _lie_poisson_jobs("so3+sl2", "q6", rng, [SO3, SL2], 2, 0))


# -- brackets ---------------------------------------------------------


def brackets(seed):
    rng, shape = random.Random(seed), random.Random(0)
    jobs = []

    # jacobiator of a random cubic bivector on Q^8, and of a Poisson one
    r8 = random_field(rng, shape, 8, 2, 3, 4)
    jobs.append(Job("check-random8", "check",
                    ["check", "-i", _json(o.field_to_json(8, 2, r8))],
                    lambda out: o.check_jacobiator(
                        out["check-random8"]["jacobiator"], 8, r8)))
    q6 = log_canonical(rng, 6)
    q6_json = o.field_to_json(6, 2, q6)

    def check_poisson(out):
        o.need(out["check-poisson6"]["jacobiator_zero"] is True,
               "a Poisson bivector is reported non-involutive")
        o.check_jacobiator(out["check-poisson6"]["jacobiator"], 6, q6)
    jobs.append(Job("check-poisson6", "check",
                    ["check", "-i", _json(q6_json)], check_poisson))

    # graded symmetry, once with m*k even and once with m*k odd
    # [u, v] against the benchmark's own bracket, [v, u] against [u, v]
    for name, n, (m, dm), (k, dk) in (("sym-even", 5, (2, 2), (3, 2)),
                                      ("sym-odd", 7, (1, 3), (3, 1))):
        uf = random_field(rng, shape, n, m, dm, 6)
        vf = random_field(rng, shape, n, k, dk, 6)
        u, v = o.field_to_json(n, m, uf), o.field_to_json(n, k, vf)

        def check_uv(out, name=name, uf=uf, vf=vf, m=m, k=k):
            o.check_field(out[name + "-uv"]["result"], m + k - 1,
                          o.schouten(uf, m, vf, k), "[u, v]")

        def check_vu(out, name=name, m=m, k=k):
            o.check_graded_symmetry(out[name + "-uv"]["result"],
                                    out[name + "-vu"]["result"], m, k)
        jobs.append(Job(name + "-uv", "schouten",
                        ["schouten", "-i", _json({"u": u, "v": v})],
                        check_uv))
        jobs.append(Job(name + "-vu", "schouten",
                        ["schouten", "-i", _json({"u": v, "v": u})],
                        check_vu))

    # [p, [p, u]] = 0 for the Poisson p
    u6f = random_field(rng, shape, 6, 2, 2, 3)
    u6 = o.field_to_json(6, 2, u6f)
    jobs.append(Job("dp-1", "dp",
                    ["dp", "-i", _json({"p": q6_json, "u": u6})],
                    lambda out: o.check_field(out["dp-1"]["result"], 3,
                                              o.schouten(q6, 2, u6f, 2),
                                              "[p, u]")))
    jobs.append(Job("dp-2", "dp", lambda out: [
        "dp", "-i", _json({"p": q6_json, "u": out["dp-1"]["result"]})],
        lambda out: o.check_zero(out["dp-2"]["result"], "[p, [p, u]]")))

    # delta^2 = 0 for the Poisson p
    w6f = random_field(rng, shape, 6, 3, 2, 6)
    w6 = o.field_to_json(6, 3, w6f, form=True)
    jobs.append(Job("delta-1", "delta",
                    ["delta", "-i", _json({"p": q6_json, "form": w6})],
                    lambda out: o.check_field(out["delta-1"]["result"], 2,
                                              o.koszul_delta(6, q6, w6f),
                                              "delta")))
    jobs.append(Job("delta-2", "delta", lambda out: [
        "delta", "-i",
        _json({"p": q6_json, "form": out["delta-1"]["result"]})],
        lambda out: o.check_zero(out["delta-2"]["result"], "delta^2")))

    # [df, dg]_p = d{f, g}
    f = random_poly(rng, shape, 6, 3, 12)
    g = random_poly(rng, shape, 6, 3, 12)
    df = o.field_to_json(6, 1, o.differential(6, f), form=True)
    dg = o.field_to_json(6, 1, o.differential(6, g), form=True)
    jobs.append(Job("bracket", "bracket",
                    ["bracket", "-i", _json({"p": q6_json, "a": df, "b": dg})],
                    lambda out: o.check_exact_bracket(
                        out["bracket"]["result"], 6, q6, f, g)))

    # star(star(a)) = a for a constant symplectic p on Q^6
    s6 = o.field_to_json(6, 2, symplectic_constant(rng, 3))
    a6 = o.field_to_json(6, 2, random_field(rng, shape, 6, 2, 2, 4), form=True)
    jobs.append(Job("star-1", "star",
                    ["star", "-i", _json({"p": s6, "form": a6})],
                    lambda out: o.need(
                        out["star-1"]["result"]["grade"] == 4,
                        "star of a 2-form on Q^6 is not a 4-form")))
    jobs.append(Job("star-2", "star", lambda out: [
        "star", "-i", _json({"p": s6, "form": out["star-1"]["result"]})],
        lambda out: o.need(o.field_equal(out["star-2"]["result"], a6),
                           "star(star(a)) != a")))
    return jobs


# -- finite-algebras --------------------------------------------------


def _table(d, product):
    """mult[i][j] from product(i, j) -> {k: coefficient}."""
    mult = []
    for i in range(d):
        row = []
        for j in range(d):
            v = [F(0)] * d
            for k, c in product(i, j).items():
                v[k] += c
            row.append(v)
        mult.append(row)
    return mult


def matrix_units(n, upper=False):
    """Basis E_ij of M_n (or of the upper-triangular T_n)."""
    return [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]


def matrix_algebra(n, upper=False):
    names = matrix_units(n, upper)
    pos = {x: k for k, x in enumerate(names)}
    mult = _table(len(names), lambda a, b: (
        {pos[(names[a][0], names[b][1])]: F(1)}
        if names[a][1] == names[b][0] else {}))
    unit = [F(int(i == j)) for i, j in names]
    return mult, unit


def gl_lie(n):
    """gl(n) on matrix units: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    names = matrix_units(n)
    pos = {x: k for k, x in enumerate(names)}

    def bracket(a, b):
        (i, j), (k, l) = names[a], names[b]
        out = {}
        if j == k:
            out[pos[(i, l)]] = out.get(pos[(i, l)], 0) + 1
        if l == i:
            out[pos[(k, j)]] = out.get(pos[(k, j)], 0) - 1
        return out
    return _table(len(names), bracket), names


def truncated(a, b):
    """Q[x]/x^a (x) Q[y]/y^b on the basis x^i y^j."""
    names = [(i, j) for i in range(a) for j in range(b)]
    pos = {x: k for k, x in enumerate(names)}

    def product(s, t):
        i, j = names[s][0] + names[t][0], names[s][1] + names[t][1]
        return {pos[(i, j)]: F(1)} if i < a and j < b else {}
    unit = [F(int(x == (0, 0))) for x in names]
    return _table(len(names), product), unit, names


class Basis:
    """A seeded signed permutation f_i = s_i e_{perm[i]} of Q^d."""

    def __init__(self, rng, d):
        self.perm, self.sign = signed_permutation(rng, d)

    def vec(self, v):
        """Coordinates in f of a vector given in e."""
        return [self.sign[i] * v[self.perm[i]] for i in range(len(v))]

    def table(self, mult):
        d = len(mult)
        return [[self.vec([self.sign[i] * self.sign[j] * x
                           for x in mult[self.perm[i]][self.perm[j]]])
                 for j in range(d)] for i in range(d)]

    def op(self, X):
        """Matrix in f of an operator given in e."""
        d = len(X)
        return [[self.sign[r] * self.sign[c] * X[self.perm[r]][self.perm[c]]
                 for c in range(d)] for r in range(d)]


def _algebra_json(mult, unit=None):
    obj = {"dim": len(mult), "mult": [[[str(x) for x in v] for v in row]
                                      for row in mult]}
    if unit is not None:
        obj["unit"] = [str(x) for x in unit]
    return _json(obj)


def _rows_json(rows):
    return _json([[str(x) for x in r] for r in rows])


def _der_job(key, mult, unit, want, inner_want):
    def check(out):
        r = out[key]
        basis = o.fractions(r["der_basis"])
        o.check_derivation_basis(mult, basis, want)
        o.need(r["der_dim"] == want, "der_dim field disagrees")
        inner = o.fractions(r["inner_basis"])
        o.need(r["inner_dim"] == len(inner) == inner_want,
               "%d inner derivations, theory gives %d", len(inner), inner_want)
        ad = o.inner_derivations(mult)
        inner = [o.flatten(X) for X in inner]
        o.need(o.rank(ad) == o.rank(inner) == o.rank(ad + inner)
               == inner_want, "inner basis does not span the ad_a")
        flat = [o.flatten(X) for X in basis]
        o.need(all(o.in_span(flat, v) for v in ad),
               "an inner derivation is missing from Der(A)")
    return Job(key, "der", ["ncalg", "der", "--algebra",
                            _algebra_json(mult, unit)], check)


def _submanifold_job(key, mult, unit, ideal, quotient_der):
    def check(out):
        r = out[key]
        o.need(r["dim_der_quotient"] == quotient_der,
               "Der(A/I) has dimension %d, theory gives %d",
               r["dim_der_quotient"], quotient_der)
        o.need(r["rank_r_I"] == r["dim_der_I"] - r["dim_der_I_0"],
               "rank r_I differs from dim Der_I - dim Der_I_0")
        o.need(o.rank(o.fractions(r["r_I"])) == r["rank_r_I"],
               "rank of the returned r_I differs from rank_r_I")
        o.need(r["submanifold"] == (r["rank_r_I"] == quotient_der),
               "submanifold verdict contradicts the ranks")
    return Job(key, "submanifold",
               ["ncalg", "submanifold", "--algebra", _algebra_json(mult, unit),
                "--ideal", _rows_json(ideal)], check)


def _quotient_job(key, mult, unit, sub, sub_der):
    d = len(mult)

    def check(out):
        r = out[key]
        o.need(r["dim_der_B"] == sub_der, "Der(B) has dimension %d, theory "
               "gives %d", r["dim_der_B"], sub_der)
        q_b, v_b = o.fractions(r["Q_B"]), o.fractions(r["V_B"])
        o.need(len(q_b) == r["dim_Q_B"] and len(v_b) == r["dim_V_B"],
               "basis lengths disagree with the reported dimensions")
        for X in q_b + v_b:
            o.need(o.leibniz_defect(mult, X) is None,
                   "Q_B or V_B holds a non-derivation")
        for X in q_b:
            o.need(all(o.in_span(sub, o.apply(X, b)) for b in sub),
                   "a Q_B element does not preserve B")
        for X in v_b:
            o.need(all(not any(o.apply(X, b)) for b in sub),
                   "a V_B element does not kill B")
        o.need(o.rank([o.flatten(X) for X in q_b]) == len(q_b)
               and all(o.in_span([o.flatten(X) for X in q_b], o.flatten(X))
                       for X in v_b), "V_B is not a subspace of Q_B")
        inv = o.fractions(r["invariants_of_V_B"])
        o.need(all(not any(o.apply(X, v)) for X in v_b for v in inv),
               "an invariant is moved by V_B")
        o.need(r["q3"] == (o.rank(inv) == o.rank(sub) == o.rank(inv + sub)),
               "q3 verdict contradicts the invariants")
        o.need(r["quotient_manifold_algebra"] == (r["q1"] and r["q2"]
                                                  and r["q3"]),
               "verdict is not the conjunction of q1, q2, q3")
        stacked = [row for X in v_b for row in X]
        o.need(len(inv) == o.rank(inv) == d - o.rank(stacked),
               "invariants are not a basis of the kernel of V_B")
    return Job(key, "quotient",
               ["ncalg", "quotient", "--algebra", _algebra_json(mult, unit),
                "--sub", _rows_json(sub)], check)


def _bott_jobs(key, c, sub):
    g_json = _json({"dim": len(c), "c": [[[str(x) for x in v] for v in row]
                                         for row in c]})

    def check(kind):
        def run(out):
            r = out["%s-%s" % (key, kind)]
            o.need(r["flat"] is True, "Bott connection reported not flat")
            o.check_bott(c, o.fractions(r["acting_basis"]),
                         o.fractions(r["module_basis"]),
                         o.fractions(r["matrices"]), kind)
        return run
    return [Job("%s-%s" % (key, kind), "bott",
                ["ncalg", "bott-" + kind, "--liealg", g_json,
                 "--sub", _rows_json(sub)], check(kind))
            for kind in ("quotient", "forms")]


def _integral_job(key, mult, unit, ops, ideal, integral):
    d = len(mult)

    def check(out):
        r = out[key]
        o.need(r["integral"] == integral, "integral verdict %s, theory gives "
               "%s", r["integral"], integral)
        # D_I: combinations of the distribution mapping A into I
        images = [o.flatten([o.apply(X, o.unit(j, d)) for j in range(d)])
                  for X in ops]
        ideal_span = [o.flatten([v if t == j else [F(0)] * d
                                 for t in range(d)])
                      for j in range(d) for v in ideal]
        base = o.rank(ideal_span)
        d_i = len(ops) - (o.rank(ideal_span + images) - base)
        o.need(r["d_I_dim"] == d_i, "D_I has dimension %d, expected %d",
               r["d_I_dim"], d_i)
        o.need(len(r["acting_reps"]) == len(ops) - d_i,
               "acting representatives do not span D / D_I")
        g = r["gamma_dim"]
        o.need(len(r["gamma_basis"]) == g and len(r["matrices"]) ==
               len(r["acting_reps"]) and all(
                   len(m) == g and all(len(row) == g for row in m)
                   for m in r["matrices"]), "connection matrices misshapen")
    return Job(key, "bott", ["ncalg", "bott-integral",
                             "--algebra", _algebra_json(mult, unit),
                             "--dist", _json([[[str(x) for x in row]
                                               for row in X] for X in ops]),
                             "--ideal", _rows_json(ideal)], check)


def _koszul_job(key, mult, unit, der_dim):
    def check(out):
        r = out[key]
        o.need(r["ok"] is True, "Koszul identity reported failing")
        o.need(r["dim_algebra"] == len(mult) and r["dim_der"] == der_dim,
               "Koszul report has dim_der %s, theory gives %d",
               r["dim_der"], der_dim)
        o.need(int(r["form_dims"]["0"]) == len(mult),
               "grade-0 forms are not the algebra")
    return Job(key, "koszul", ["oracle", "koszul",
                               "--algebra", _algebra_json(mult, unit)], check)


def finite_algebras(seed):
    rng = random.Random(seed)
    jobs = []

    def seeded(mult, unit):
        b = Basis(rng, len(mult))
        return b, b.table(mult), b.vec(unit)

    for name, n, upper in (("M2", 2, False), ("M3", 3, False),
                           ("T3", 3, True), ("T4", 4, True)):
        _, mult, unit = seeded(*matrix_algebra(n, upper))
        want = o.der_dim_triangular(n) if upper else o.der_dim_matrix(n)
        jobs.append(_der_job("der-" + name, mult, unit, want, want))

    for a, b in ((2, 2), (2, 3)):
        base_mult, base_unit, names = truncated(a, b)
        basis, mult, unit = seeded(base_mult, base_unit)
        key = "x%dy%d" % (a, b)
        jobs.append(_der_job("der-" + key, mult, unit,
                             o.der_dim_truncated(a, b), 0))
        # I = (y): A/I = Q[x]/x^a; B = Q[x]/x^a (x) 1 is a subalgebra
        ideal = [basis.vec(o.unit(k, len(names)))
                 for k, (i, j) in enumerate(names) if j >= 1]
        sub = [basis.vec(o.unit(k, len(names)))
               for k, (i, j) in enumerate(names) if j == 0]
        jobs.append(_submanifold_job("sub-" + key, mult, unit, ideal,
                                     o.der_dim_truncated(a, 1)))
        jobs.append(_quotient_job("quo-" + key, mult, unit, sub,
                                  o.der_dim_truncated(a, 1)))
        # Euler derivations x d/dx and y d/dy preserve (y); the image of
        # D in Der(Q[x]/x^a) is x d/dx alone, all of it only when a = 2
        euler = [[[F(names[c][t]) if r == c else F(0)
                   for c in range(len(names))] for r in range(len(names))]
                 for t in (0, 1)]
        jobs.append(_integral_job("int-" + key, mult, unit,
                                  [basis.op(X) for X in euler], ideal,
                                  a == 2))

    # the Koszul oracle grows fast with dim Der(A): dimension 4 only
    for a, b in ((2, 2), (4, 1)):
        base_mult, base_unit, _ = truncated(a, b)
        _, mult, unit = seeded(base_mult, base_unit)
        jobs.append(_koszul_job("koszul-x%dy%d" % (a, b), mult, unit,
                                o.der_dim_truncated(a, b)))

    for n in (2, 3):
        c, names = gl_lie(n)
        basis = Basis(rng, len(c))
        borel = [basis.vec(o.unit(k, len(names)))
                 for k, (i, j) in enumerate(names) if i <= j]
        jobs.extend(_bott_jobs("gl%d" % n, basis.table(c), borel))
    return jobs


WORKLOADS = {
    "poisson-cohomology": poisson_cohomology,
    "brackets": brackets,
    "finite-algebras": finite_algebras,
}
