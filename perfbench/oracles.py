"""Checks on pforge's answers that do not use pforge's code.

Everything here is written from the mathematics alone: a small kit of
dict polynomials and Fraction matrices, the closed forms the workloads
are checked against, and the identities a correct answer must satisfy.
Every check raises `CheckFailed` with a message naming what went wrong.

Polynomials are dicts {exponent tuple: Fraction} without zero entries.
Multivectors and forms are dicts {increasing index tuple: polynomial}.
Matrices are lists of rows of Fractions.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import comb


class CheckFailed(Exception):
    """An answer contradicts the theory or an identity it must satisfy."""


def need(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args if args else message)


# -- polynomials ------------------------------------------------------


def padd(a, b, scale=1):
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pdiff(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ne] = out.get(ne, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def pvar(n, i):
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?((?:x\d+(?:\^\d+)?\*?)*)$")
_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text, n):
    """Read a polynomial as pforge prints it, e.g. '-3/2*x0^2*x1 + x2'."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    out = {}
    for chunk in re.split(r"(?=[+-])", s):
        if not chunk:
            continue
        m = _TERM.match(chunk)
        need(m is not None and (m.group(2) or m.group(3)),
             "unreadable polynomial term %r", chunk)
        c = Fraction(m.group(2) or 1) * (-1 if m.group(1) == "-" else 1)
        e = [0] * n
        for idx, power in _FACTOR.findall(m.group(3)):
            need(int(idx) < n, "variable x%s out of range", idx)
            e[int(idx)] += int(power or 1)
        out = padd(out, {tuple(e): c})
    return out


def format_poly(a):
    """Polynomial text in pforge's input grammar ('0' when zero)."""
    parts = []
    for e in sorted(a, key=lambda e: (-sum(e), [-x for x in e])):
        c = a[e]
        factors = ["x%d^%d" % (i, k) if k > 1 else "x%d" % i
                   for i, k in enumerate(e) if k]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if factors and mag == 1:
            parts.append(sign + "*".join(factors))
        else:
            parts.append(sign + "*".join([str(mag)] + factors))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else (text or "0")


# -- multivectors and forms -------------------------------------------


def field_from_json(obj):
    """(n, grade, {idx: poly}) from pforge's wire format."""
    n, grade = obj["n"], obj["grade"]
    terms = {}
    for t in obj["terms"]:
        idx = tuple(t["idx"])
        need(list(idx) == sorted(set(idx)) and len(idx) == grade,
             "index tuple %r is not increasing of length %d", idx, grade)
        c = parse_poly(t["coeff"], n)
        if c:
            terms[idx] = c
    return n, grade, terms


def field_to_json(n, grade, terms, form=False):
    obj = {"n": n, "grade": grade,
           "terms": [{"idx": list(idx), "coeff": format_poly(c)}
                     for idx, c in sorted(terms.items()) if c]}
    if form:
        obj["kind"] = "form"
    return obj


def field_equal(a, b):
    """Equality of two wire-format fields, read back as dicts."""
    return field_from_json(a) == field_from_json(b)


def field_scaled(obj, c):
    n, grade, terms = field_from_json(obj)
    return n, grade, {idx: {e: c * v for e, v in p.items()}
                      for idx, p in terms.items()}


def bivector_entry(p, i, j):
    """{x_i, x_j} of a bivector dict, with antisymmetry."""
    if i < j:
        return p.get((i, j), {})
    if i > j:
        return {e: -c for e, c in p.get((j, i), {}).items()}
    return {}


def poisson_bracket(n, p, f, g):
    """{f, g} = sum_{i<j} p_ij (f_i g_j - f_j g_i)."""
    out = {}
    for (i, j), c in p.items():
        cross = padd(pmul(pdiff(f, i), pdiff(g, j)),
                     pmul(pdiff(f, j), pdiff(g, i)), -1)
        out = padd(out, pmul(c, cross))
    return out


def jacobi_cyclic(n, p):
    """J_ijk = {x_i,{x_j,x_k}} + {x_j,{x_k,x_i}} + {x_k,{x_i,x_j}}."""
    out = {}
    for i, j, k in combinations(range(n), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            bc = bivector_entry(p, b, c)
            for l in range(n):
                acc = padd(acc, pmul(bivector_entry(p, a, l), pdiff(bc, l)))
        if acc:
            out[(i, j, k)] = acc
    return out


def differential(n, f):
    """df as a 1-form dict."""
    return {(i,): pdiff(f, i) for i in range(n) if pdiff(f, i)}


def jacobian_bivector(phi):
    """{x_i, x_j} = eps_ijk dphi/dx_k on Q^3."""
    return {idx: c for idx, c in
            {(0, 1): pdiff(phi, 2), (1, 2): pdiff(phi, 0),
             (0, 2): {e: -v for e, v in pdiff(phi, 1).items()}}.items() if c}


def is_casimir(n, p, f):
    return all(not poisson_bracket(n, p, f, pvar(n, i)) for i in range(n))


# -- matrices ---------------------------------------------------------


def rank(rows):
    """Exact rank by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows if any(r)]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def in_span(rows, vec):
    return rank(list(rows) + [vec]) == rank(rows)


def coordinates(basis, vec):
    """x with sum_i x_i basis[i] = vec, for independent basis rows."""
    k = len(basis)
    aug = [[basis[i][c] for i in range(k)] + [vec[c]]
           for c in range(len(vec))]
    m = [[Fraction(x) for x in r] for r in aug]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    need(len(pivots) == k, "basis rows are dependent")
    need(all(not row[k] for row in m[r:]), "vector is not in the span")
    x = [Fraction(0)] * k
    for row, c in zip(m, pivots):
        x[c] = row[k]
    return x


def mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def flatten(m):
    return [x for row in m for x in row]


def fractions(x):
    """Nested lists of numbers or number strings, as Fractions."""
    if isinstance(x, list):
        return [fractions(v) for v in x]
    return Fraction(x)


# -- structure-constant algebras --------------------------------------


def multiply(mult, u, v):
    """Product of coordinate vectors in an algebra given by mult[i][j]."""
    d = len(mult)
    out = [Fraction(0)] * d
    for i in range(d):
        if u[i]:
            for j in range(d):
                if v[j]:
                    c = u[i] * v[j]
                    out = [a + c * b for a, b in zip(out, mult[i][j])]
    return out


def apply(m, v):
    return [sum((m[r][c] * v[c] for c in range(len(v))), Fraction(0))
            for r in range(len(m))]


def unit(i, d):
    return [Fraction(int(j == i)) for j in range(d)]


def leibniz_defect(mult, X):
    """First (i, j) where X(e_i e_j) != X(e_i) e_j + e_i X(e_j), or None."""
    d = len(mult)
    cols = [apply(X, unit(i, d)) for i in range(d)]
    for i in range(d):
        for j in range(d):
            lhs = apply(X, mult[i][j])
            rhs = [a + b for a, b in zip(multiply(mult, cols[i], unit(j, d)),
                                         multiply(mult, unit(i, d), cols[j]))]
            if lhs != rhs:
                return (i, j)
    return None


def check_derivation_basis(mult, basis, want_dim, what="Der(A)"):
    """Each matrix is a derivation, they are independent, and count right."""
    need(len(basis) == want_dim, "%s has dimension %d, theory gives %d",
         what, len(basis), want_dim)
    for k, X in enumerate(basis):
        bad = leibniz_defect(mult, X)
        need(bad is None, "%s element %d breaks Leibniz at %r", what, k, bad)
    need(rank([flatten(X) for X in basis]) == len(basis),
         "%s basis is dependent", what)


def inner_derivations(mult):
    """Flattened ad_{e_i} = L_{e_i} - R_{e_i} for every basis element."""
    d = len(mult)
    out = []
    for i in range(d):
        ad = [[Fraction(0)] * d for _ in range(d)]
        for j in range(d):
            col = [a - b for a, b in zip(mult[i][j], mult[j][i])]
            for r in range(d):
                ad[r][j] = col[r]
        out.append(flatten(ad))
    return out


def lie_bracket(c, u, v):
    return multiply(c, u, v)


# -- closed forms -----------------------------------------------------


def monomial_count(m, degree):
    """Monomials of the given degree in m variables."""
    if degree < 0:
        return 0
    return comb(degree + m - 1, m - 1) if m else int(degree == 0)


def chain_dim(n, grade, degree):
    """dim of grade-k fields with degree-D coefficients: C(n,k) C(n+D-1,D)."""
    if degree < 0 or not 0 <= grade <= n:
        return 0
    return comb(n, grade) * monomial_count(n, degree)


def lie_poisson_dim(m, k, degree):
    """dim H^k at coefficient degree D for m copies of so(3) or sl(2).

    H(g) (x) Cas(g): the cohomology of g is exterior on m generators of
    degree 3, the Casimirs polynomial on m generators of degree 2.
    """
    if k % 3 or degree % 2 or degree < 0:
        return 0
    return comb(m, k // 3) * monomial_count(m, degree // 2)


def der_dim_matrix(n):
    return n * n - 1


def der_dim_triangular(n):
    return n * (n + 1) // 2 - 1


def der_dim_truncated(a, b):
    """Derivations of Q[x]/x^a (x) Q[y]/y^b, for a, b >= 2."""
    return 2 * a * b - a - b


# -- (co)homology tables ----------------------------------------------


LICH, CAN = "lich", "can"


def row_degree(kind, grade, weight):
    return weight + grade if kind == LICH else weight - grade


def check_rows(rows, kind, n, max_grade, max_weight):
    """Row set complete and each row consistent: dim_C closed form,
    dim_H = dim_C - rank_in - rank_out, nothing negative."""
    want = [(k, w) for k in range(max_grade + 1)
            for w in range((-k if kind == LICH else k), max_weight + 1)]
    got = [(r["grade"], r["weight"]) for r in rows]
    need(got == want, "%s rows cover %s, expected %s", kind, got, want)
    table = {}
    for r in rows:
        k, w = r["grade"], r["weight"]
        dim_c = chain_dim(n, k, row_degree(kind, k, w))
        need(r["dim_C"] == dim_c, "%s (%d,%d): dim_C %d, closed form %d",
             kind, k, w, r["dim_C"], dim_c)
        need(min(r["rank_in"], r["rank_out"], r["dim_H"]) >= 0,
             "%s (%d,%d): negative entry", kind, k, w)
        need(r["dim_H"] == dim_c - r["rank_in"] - r["rank_out"],
             "%s (%d,%d): dim_H does not equal dim_C - ranks", kind, k, w)
        table[(k, w)] = r["dim_H"]
    return table


def check_lie_poisson(table, kind, n, m):
    """Every dim_H against H(g) (x) Cas(g) for m simple summands of rank
    one; the canonical side through H_k(w) = H^{n-k}(w-n)."""
    for (k, w), h in table.items():
        degree = row_degree(kind, k, w)
        cograde = k if kind == LICH else n - k
        want = lie_poisson_dim(m, cograde, degree)
        need(h == want, "%s (%d,%d): dim_H %d, H(g) (x) Cas(g) gives %d",
             kind, k, w, h, want)


def check_duality(lich, can, n):
    """Unimodular duality H^k(w) = H_{n-k}(w+n) wherever both are known;
    returns how many pairs were compared."""
    pairs = 0
    for (k, w), h in lich.items():
        other = can.get((n - k, w + n))
        if other is not None:
            need(h == other, "duality fails: H^%d(%d) = %d, H_%d(%d) = %d",
                 k, w, h, n - k, w + n, other)
            pairs += 1
    need(pairs > 0, "no pair of blocks to compare for duality")
    return pairs


def check_casimirs(n, p, texts, h0_total, must_contain=None):
    """A Casimir basis: each element Poisson-commutes with every
    coordinate, the elements are independent, their count is the sum of
    dim H^0 over the same degrees, and `must_contain` lies in the span."""
    basis = [parse_poly(t, n) for t in texts]
    for f, t in zip(basis, texts):
        need(is_casimir(n, p, f), "basis element %r is not a Casimir", t)
    need(len(basis) == h0_total, "%d Casimirs, but the H^0 sum is %d",
         len(basis), h0_total)
    monos = sorted({e for f in basis for e in f} |
                   set(must_contain or {}))
    vecs = [[f.get(e, Fraction(0)) for e in monos] for f in basis]
    need(rank(vecs) == len(basis), "Casimir basis is dependent")
    if must_contain is not None:
        need(in_span(vecs, [must_contain.get(e, Fraction(0)) for e in monos]),
             "the structure's potential is not among the Casimirs")


# -- brackets ---------------------------------------------------------


def merge(a, b):
    """xi_a xi_b = sign * xi_idx for increasing index tuples of
    anticommuting symbols; (0, None) when they share an index."""
    if set(a) & set(b):
        return 0, None
    inv = sum(1 for x in a for y in b if x > y)
    return (-1) ** inv, tuple(sorted(a + b))


def _bracket_half(out, A, B, scale):
    """out += scale * sum_i (A d/dxi_i, from the right) (dB/dx_i)."""
    for I, a in A.items():
        m = len(I)
        for t, i in enumerate(I):
            rest = I[:t] + I[t + 1:]
            for J, b in B.items():
                db = pdiff(b, i)
                if not db:
                    continue
                sign, idx = merge(rest, J)
                if sign:
                    out[idx] = padd(out.get(idx, {}), pmul(a, db),
                                    scale * sign * (-1) ** (m - 1 - t))


def schouten(P, m, Q, k):
    """pforge's graded bracket of a grade-m and a grade-k field, m, k >= 1.

    Computed in the superfunction picture, a multivector being a
    polynomial in x and the odd symbols xi_i = d/dx_i:
    [P, Q]_S = sum_i (P d/dxi_i)(dQ/dx_i)
               - (-1)^{(m-1)(k-1)} (Q d/dxi_i)(dP/dx_i),
    with the xi-derivative taken from the right.  [P, Q]_S is the
    Lie bracket on vector fields and X(g) on a field and a function.
    pforge's double-sum expansion is (-1)^{m-1} [P, Q]_S, which turns
    the symmetry [P, Q]_S = -(-1)^{(m-1)(k-1)} [Q, P]_S into the
    [u, v] = (-1)^{mk} [v, u] its README states.
    """
    out = {}
    _bracket_half(out, P, Q, (-1) ** (m - 1))
    _bracket_half(out, Q, P, -(-1) ** ((m - 1) * (k - 1) + m - 1))
    return {idx: c for idx, c in out.items() if c}


def koszul_delta(n, p, form):
    """delta = i_p d - d i_p by Koszul's formula, term by term on
    c dx_a1 ^ ... ^ dx_ak = f0 df1 ^ ... ^ dfk with f0 = c, fi = x_ai:
    sum_i (-1)^{i+1} {f0, fi} df1..^dfi..dfk
    + sum_{i<j} (-1)^{i+j} f0 d{fi, fj} ^ df1..^dfi..^dfj..dfk."""
    out = {}
    for A, c in form.items():
        k = len(A)
        for i in range(k):
            rest = A[:i] + A[i + 1:]
            out[rest] = padd(out.get(rest, {}),
                             poisson_bracket(n, p, c, pvar(n, A[i])),
                             (-1) ** i)
            for j in range(i + 1, k):
                rest2 = A[:i] + A[i + 1:j] + A[j + 1:]
                pij = bivector_entry(p, A[i], A[j])
                for l in range(n):
                    dl = pdiff(pij, l)
                    sign, idx = merge((l,), rest2)
                    if dl and sign:
                        out[idx] = padd(out.get(idx, {}), pmul(c, dl),
                                        sign * (-1) ** (i + j))
    return {idx: c for idx, c in out.items() if c}


def check_field(obj, grade, want, what):
    """A wire-format field of the given grade equals `want`, a nonzero
    field dict; a zero answer fails even if `want` were zero."""
    _, got_grade, terms = field_from_json(obj)
    need(got_grade == grade, "%s has grade %d, expected %d", what,
         got_grade, grade)
    need(want, "%s: the oracle's answer is zero, so it checks nothing", what)
    wrong = [idx for idx in set(terms) | set(want)
             if terms.get(idx) != want.get(idx)]
    need(not wrong, "%s differs from the oracle at %s", what,
         sorted(wrong)[:3])


def check_graded_symmetry(uv, vu, m, k):
    """[u, v] = (-1)^{mk} [v, u], the convention the README states."""
    n, grade, a = field_from_json(uv)
    _, _, b = field_scaled(vu, (-1) ** (m * k))
    need(grade == m + k - 1, "bracket has grade %d, expected %d",
         grade, m + k - 1)
    need(a == b, "[u, v] != (-1)^(%d*%d) [v, u]", m, k)


def check_zero(obj, what):
    _, _, terms = field_from_json(obj)
    need(not terms, "%s is not zero (%d nonzero components)", what, len(terms))


def check_jacobiator(obj, n, p):
    """pforge's jacobiator is [p, p]; under its sign convention for the
    graded bracket this is -2 times the Jacobi cyclic sum."""
    _, grade, terms = field_from_json(obj)
    want = {idx: {e: -2 * c for e, c in f.items()}
            for idx, f in jacobi_cyclic(n, p).items()}
    need(grade == 3, "jacobiator has grade %d", grade)
    wrong = [idx for idx in set(terms) | set(want)
             if terms.get(idx) != want.get(idx)]
    need(not wrong, "jacobiator differs from -2 x the cyclic sum at %s",
         sorted(wrong)[:3])


def check_exact_bracket(obj, n, p, f, g):
    """[df, dg]_p = d{f, g}."""
    _, grade, terms = field_from_json(obj)
    need(grade == 1, "bracket of 1-forms has grade %d", grade)
    need(terms == differential(n, poisson_bracket(n, p, f, g)),
         "[df, dg] != d{f, g}")


# -- finite algebras --------------------------------------------------


def check_bott(c, acting, module, matrices, kind):
    """A Bott connection table on a Lie algebra with constants c.

    kind "quotient": module rows u_j span a complement of L0 and
    M_i[:, j] are the coordinates of [x_i, u_j] modulo L0.
    kind "forms": module rows a_j span the annihilator of L0 and
    (grad_x a)(e_t) = -a([x, e_t]).
    Then flatness: [M_i, M_j] = M_{[x_i, x_j]}, with [x_i, x_j]
    expanded in the acting basis.
    """
    d = len(c)
    need(len(matrices) == len(acting), "one matrix per acting element")
    need(rank(acting) == len(acting), "acting basis is dependent")
    for x in acting:
        for y in acting:
            need(in_span(acting, lie_bracket(c, x, y)),
                 "L0 is not closed under the bracket")
    q = len(module)
    for x, M in zip(acting, matrices):
        need(len(M) == q and all(len(r) == q for r in M),
             "connection matrix is not %d x %d", q, q)
        for j, u in enumerate(module):
            if kind == "quotient":
                image = lie_bracket(c, x, u)
                combo = [sum((M[l][j] * module[l][t] for l in range(q)),
                             Fraction(0)) for t in range(d)]
                need(in_span(acting, [a - b for a, b in zip(image, combo)]),
                     "quotient connection matrix column is wrong")
            else:
                image = [-sum((u[r] * lie_bracket(c, x, unit(t, d))[r]
                               for r in range(d)), Fraction(0))
                         for t in range(d)]
                combo = [sum((M[l][j] * module[l][t] for l in range(q)),
                             Fraction(0)) for t in range(d)]
                need(image == combo, "forms connection matrix column is wrong")
    if kind == "quotient":
        need(rank(acting + module) == d, "module is not a complement of L0")
    else:
        for a in module:
            for x in acting:
                need(not sum((a[t] * x[t] for t in range(d)), Fraction(0)),
                     "module form does not annihilate L0")
        need(len(module) == d - len(acting) and rank(module) == len(module),
             "module is not a basis of the annihilator")
    for i in range(len(acting)):
        for j in range(i + 1, len(acting)):
            coords = coordinates(acting, lie_bracket(c, acting[i], acting[j]))
            want = [[Fraction(0)] * q for _ in range(q)]
            for a, M in zip(coords, matrices):
                want = [[w + a * x for w, x in zip(rw, rx)]
                        for rw, rx in zip(want, M)]
            need(commutator(matrices[i], matrices[j]) == want,
                 "Bott connection is not flat at (%d, %d)", i, j)
