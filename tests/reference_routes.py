"""Independent second routes, kept only as test oracles.

Each function here computes, by hand-written `Poly` arithmetic, a value
that pforge computes another way:

* `hamiltonian`, `vf_bracket` and `casimir_basis` are the routes
  `analysis` and `multivec` used before X_f became [p, f] through
  `schouten` and the Casimirs were read off the grade-0 Leibniz table;
* `sharp` wedges the fields X_{x_i} = [p, x_i] that `schouten` gives,
  where `analysis.sharp` reads them off p's packed coefficients;
* `leibniz_tables` runs the differential on x_j e_I and e_I for each
  coordinate j, where `homology._leibniz_tables` wedges or contracts
  e_I with the coordinate fields X_j;
* `delta_coordinate`, `form_bracket_karasev` and
  `schouten_identity_residual` are classical coordinate expansions and
  identities of the form-side calculus;
* `form_bracket_composed` is the form bracket as `forms.form_bracket`
  composed it before it summed its terms into one accumulator: two
  `delta`s, three `wedge`s, `+`, `-` and `scale` on whole forms;
* `evaluate_on_functions` is the determinant rule for a multivector on
  functions;
* `parse_poly` and `poly_str` are the polynomial text parser and printer
  as they were before the one-regex parser and the built-in-sorted
  printer: a chunk regex per term with its error messages, and a Python
  key function for graded lex order;
* `der_brackets` and `operator_space_mu` write dense commutators
  (`commutator`, by `linalg.mat_mul`) of operators over Der(A) and over
  V = Der(A) + A by a `linalg.Subspace` solve, where `ncalg.derivations`
  reads Der(A)'s structure constants off its kernel basis, from sparse
  operator products, and `superalg.OperatorSpace.mu` is the closed form;
* `comp_product` is the literal shuffle sum over every output tuple and
  every shuffle of it, reading each slot through `MultiMap.value`, where
  `superalg.comp_product` meets only nonzero constants;
* `associativity_witness` multiplies dense unit vectors for every basis
  triple, and `leibniz_rows` builds Der(A)'s Leibniz system by a d^4
  loop over every index, where `ncalg` reads the nonzero constants;
* `supercomm`, `super_axiom_report` and `koszul_check` add whole
  `MultiMap`s (`combine`, the arithmetic `MultiMap.__add__` and `scale`
  once did) built from the literal shuffle sum, and `form_basis` and
  `koszul_d` visit every derivation index t, where `superalg` sums both
  products and every residue into one accumulator and reads only nonzero
  module-action coordinates and structure constants;
* `dump` and `dump_lines` print a result as the CLI did before its
  one-pass writer: `str_fractions` builds a stringified copy, which
  `json.dumps` prints, indented or one value per line.

Nothing here is fast; each is only a second road to the same exact
values.
"""

import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from operator import neg

from pforge import linalg
from pforge.ratpoly import Poly, PolyParseError
from pforge.multivec import Multivector, GradeMismatch, sort_sign, \
    schouten, wedge, lichnerowicz_dp, all_index_tuples, _pack, _schouten
from pforge.forms import Form, form_d, d_poly, interior, pair, pbracket_of, \
    delta, _delta
from pforge.homology import monomials, LICHNEROWICZ, _STEP, _index_keys
from pforge.ncalg import derivations, _bilinear, _flatten
from pforge.superalg import MultiMap, OperatorSpace, KOSZUL_MAX_GRADE, \
    MAX_ARITY, random_multimap


# -- the Poisson side by hand ------------------------------------------

def hamiltonian(p, f):
    """X_f with X_f(g) = {f, g}, term by term over p's coefficients."""
    if p.grade != 2:
        raise GradeMismatch("p must be a bivector")
    n = p.n
    terms = {}
    for (i, j), c in p.terms.items():
        fi, fj = f.diff(i), f.diff(j)
        if not fi.is_zero():
            terms[(j,)] = terms.get((j,), Poly.zero(n)) + c * fi
        if not fj.is_zero():
            terms[(i,)] = terms.get((i,), Poly.zero(n)) - c * fj
    return Multivector(n, 1, terms)


def vf_bracket(x, y):
    """Lie bracket of vector fields: [X,Y]_i = sum_j X_j dY_i - Y_j dX_i."""
    x._check(y)
    if x.grade != 1 or y.grade != 1:
        raise GradeMismatch("vf_bracket needs grade-1 arguments")
    n = x.n
    terms = {}
    for i in range(n):
        acc = Poly.zero(n)
        xi, yi = x.coeff((i,)), y.coeff((i,))
        for j in range(n):
            acc = acc + x.coeff((j,)) * yi.diff(j) - y.coeff((j,)) * xi.diff(j)
        if not acc.is_zero():
            terms[(i,)] = acc
    return Multivector(n, 1, terms)


def casimir_basis(p, max_degree):
    """Casimirs of degree <= max_degree: the kernel of f -> X_f, with
    one hand-built Hamiltonian field per monomial."""
    n = p.n
    mons = [e for deg in range(max_degree + 1) for e in monomials(n, deg)]
    rows = {}
    for j, e in enumerate(mons):
        for idx, c in hamiltonian(p, Poly(n, {e: 1})).terms.items():
            for ee, v in c.terms.items():
                rows.setdefault((idx, ee), {})[j] = v
    return [Poly(n, {e: c for e, c in zip(mons, v) if c})
            for v in linalg.nullspace(list(rows.values()), ncols=len(mons))]


def sharp(p, a):
    """sharp(a): each dx_i goes to X_{x_i} = [p, x_i], a wedge of forms
    to the wedge of those fields."""
    n = p.n
    fields = [lichnerowicz_dp(p, Multivector.from_poly(Poly.var(n, i)))
              for i in range(n)]
    out = Multivector.zero(n, a.grade)
    for idx, c in a.terms.items():
        piece = Multivector.from_poly(c)
        for i in idx:
            piece = wedge(piece, fields[i])
        out = out + piece
    return out


def leibniz_tables(p, complex_kind, grade, w):
    """`homology._leibniz_tables` by running the differential D on
    one-term elements: T0 = D(e_I) and T_j = D(x_j e_I) - x_j D(e_I),
    n + 1 packed differentials per index tuple I of the grade."""
    n = p.n
    pp = _pack(p, w)
    if complex_kind == LICHNEROWICZ:
        def image(idx, mono):
            # [p, u] = S(p, u) + S(u, p) for the bivector p
            unit = {idx: {mono: 1}}
            return _schouten(unit, pp, w, _schouten(pp, unit, w, {}))
    else:
        def image(idx, mono):
            return _delta(n, pp, {idx: {mono: 1}}, grade, w, {})
    high = _index_keys(n, grade + _STEP[complex_kind], w)

    def flat(acc):
        return {high[t] + e: v for t, terms in acc.items()
                for e, v in terms.items() if v}
    units = [1 << (w * j) for j in range(n)]
    tables = {}
    for idx in all_index_tuples(n, grade):
        t0 = flat(image(idx, 0))
        firsts = []
        for unit in units:
            tj = flat(image(idx, unit))
            for key, v in t0.items():
                key += unit
                x = tj.get(key, 0) - v
                if x:
                    tj[key] = x
                else:
                    del tj[key]
            firsts.append(tj)
        tables[idx] = t0, firsts
    return tables


# -- the form side by coordinate expansions ----------------------------

def delta_coordinate(p, a0, rest):
    """Coordinate expansion of delta on a0 * d(a1)^...^d(ak).

    Independent of `delta`: the classical two-sum expansion in terms of
    Poisson brackets of the factors.
    """
    n = a0.n
    k = len(rest)
    if k == 0:
        return Form.zero(n, 0)
    out = Form.zero(n, k - 1)
    for i in range(1, k + 1):
        br = pbracket_of(p, a0, rest[i - 1])
        factors = [d_poly(rest[j - 1]) for j in range(1, k + 1) if j != i]
        w = Form.from_poly(br * ((-1) ** (i + 1)))
        for f in factors:
            w = wedge(w, f)
        out = out + w
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            br = pbracket_of(p, rest[i - 1], rest[j - 1])
            w = Form.from_poly(a0 * ((-1) ** (i + j)))
            w = wedge(w, d_poly(br))
            for t in range(1, k + 1):
                if t != i and t != j:
                    w = wedge(w, d_poly(rest[t - 1]))
            out = out + w
    return out


def _interior_p(p, a):
    """i_p with the grade-0/1 edge cases sent to zero (delta's contract)."""
    if a.grade < 2:
        return Form.zero(a.n, max(a.grade - 2, 0))
    return interior(p, a)


def form_bracket_karasev(p, a, b):
    """The form bracket through the bilinear pairing
    P(a,b) = i_p(a^b) - (i_p a)^b - a^(i_p b)."""
    def P(x, y):
        return (_interior_p(p, wedge(x, y))
                - wedge(_interior_p(p, x), y)
                - wedge(x, _interior_p(p, y)))
    return (form_d(P(a, b)) - P(form_d(a), b)
            - P(a, form_d(b)).scale((-1) ** a.grade))


def form_bracket_composed(p, a, b):
    """delta(a) ^ b + (-1)^|a| a ^ delta(b) - delta(a ^ b), each term a
    whole form."""
    da = delta(p, a)
    db = delta(p, b)
    return (wedge(da, b) + wedge(a, db).scale((-1) ** a.grade)
            - delta(p, wedge(a, b)))


def schouten_identity_residual(omega, u, v):
    """Residual of the invariant bracket identity

        omega([u,v]) = (-1)^((m+1) n) (d i_v omega)(u)
                       + (-1)^m (d i_u omega)(v) - (d omega)(u ^ v)

    for |omega| = |u| + |v| - 1.  Contract: identically zero.
    """
    m, k = u.grade, v.grade
    if omega.grade != m + k - 1:
        raise GradeMismatch("need |omega| = |u| + |v| - 1")

    def d_int_paired(x, w, y):
        # (d i_x w)(y), zero when |x| exceeds |w|
        if x.grade > w.grade:
            return Poly.zero(w.n)
        return pair(form_d(interior(x, w)), y)

    lhs = pair(omega, schouten(u, v))
    t1 = d_int_paired(v, omega, u) * ((-1) ** ((m + 1) * k))
    t2 = d_int_paired(u, omega, v) * ((-1) ** m)
    t3 = pair(form_d(omega), wedge(u, v))
    return lhs - (t1 + t2 - t3)


# -- multivectors on functions -----------------------------------------

def evaluate_on_functions(u, funcs):
    """Value of a grade-k multivector on k polynomials (determinant rule)."""
    n = u.n
    if u.grade == 0:
        if funcs:
            raise GradeMismatch("grade-0 multivector takes no arguments")
        return u.as_poly()
    if len(funcs) != u.grade:
        raise GradeMismatch("need exactly %d functions" % u.grade)
    total = Poly.zero(n)
    for idx, c in u.terms.items():
        det = Poly.zero(n)
        for perm_sign, perm in _permutations_signed(len(idx)):
            prod = Poly.const(n, perm_sign)
            for row, col in enumerate(perm):
                prod = prod * funcs[col].diff(idx[row])
            det = det + prod
        total = total + c * det
    return total


def _permutations_signed(k):
    for perm in permutations(range(k)):
        yield sort_sign(perm)[0], perm


# -- polynomial text, chunk by chunk ------------------------------------

def _grlex_key(expts):
    return (sum(expts), tuple(map(neg, expts)))


def poly_str(p):
    """Canonical text of p: graded lex order by a key function."""
    if not p.terms:
        return "0"
    parts = []
    for e, c in sorted(p.terms.items(), key=lambda ec: _grlex_key(ec[0])):
        factors = ["x%d^%d" % (i, k) if k > 1 else "x%d" % i
                   for i, k in enumerate(e) if k > 0]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?
        (?P<coeff>\d+(?:/\d+)?)?
        \*?
        (?P<factors>(?:x\d+(?:\^\d+)?\*?)*)
        $""",
    re.VERBOSE,
)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")


def parse_poly(text, n):
    """The polynomial grammar, one chunk regex match per signed term."""
    s = text.replace("\u2212", "-").replace(" ", "").replace("\t", "")
    if not s:
        raise PolyParseError("empty polynomial text")
    chunks = [c for c in re.split(r"(?=[+-])", s) if c]
    terms = {}
    offset = 0
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and not m.group("factors")):
            raise PolyParseError(
                "malformed term %r at offset %d" % (chunk, offset))
        text = m.group("coeff") or "1"
        if "/" in text:
            num, den = text.split("/")
            if not int(den):
                raise PolyParseError(
                    "zero denominator in %r at offset %d" % (chunk, offset))
            coeff = Fraction(int(num), int(den))
        else:
            coeff = int(text)
        if m.group("sign") == "-":
            coeff = -coeff
        expts = [0] * n
        consumed = 0
        for fm in _FACTOR_RE.finditer(m.group("factors")):
            idx = int(fm.group(1))
            if idx >= n:
                raise PolyParseError(
                    "variable x%d out of range for n=%d" % (idx, n))
            expts[idx] += int(fm.group(2)) if fm.group(2) else 1
            consumed = fm.end()
        leftover = m.group("factors")[consumed:].strip("*")
        if leftover:
            raise PolyParseError(
                "malformed factor %r at offset %d" % (leftover, offset))
        key = tuple(expts)
        terms[key] = terms.get(key, 0) + coeff
        offset += len(chunk)
    return Poly(n, terms)


# -- Der(A) and the Koszul operator space by coordinate solves ---------

def commutator(a, b):
    """ab - ba of dense square matrices, by `linalg.mat_mul`."""
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def der_brackets(basis):
    """brackets[i][j]: coordinates of [X_i, X_j] over the Der(A) basis
    matrices X, each commutator solved for by one `Subspace`."""
    span = linalg.Subspace([_flatten(m) for m in basis],
                           len(basis[0]) ** 2 if basis else 0)
    return [[span.coords(_flatten(commutator(a, b))) for b in basis]
            for a in basis]


def operator_space_mu(A):
    """The commutator tensor on V = Der(A) + A, with basis the Der(A)
    basis and then the left multiplications by A's basis: each
    commutator of two basis operators written over them by a
    `Subspace`."""
    ops = derivations(A)["basis"] + [A.left_mult(linalg.unit_vector(i, A.dim))
                                     for i in range(A.dim)]
    span = linalg.Subspace([_flatten(m) for m in ops], A.dim ** 2)
    table = {}
    for i, j in combinations(range(len(ops)), 2):
        c = span.coords(_flatten(commutator(ops[i], ops[j])))
        if any(c):
            table[(i, j)] = c
    return MultiMap(len(ops), 2, table)


# -- the L4 kernels over every basis index ------------------------------

def eval_first(m, v, rest):
    """m with an arbitrary vector v in the first slot and basis indices
    in the others."""
    out = [0] * m.dim
    for i, c in enumerate(v):
        if c:
            for k, b in enumerate(m.value((i,) + tuple(rest))):
                if b:
                    out[k] += c * b
    return linalg.exact_vector(out)


def _subset_sign(positions):
    """Sign of the shuffle that moves the entries at `positions` (in
    increasing order) to the front."""
    return (-1) ** sum(p - k for k, p in enumerate(positions))


def comp_product(alpha, beta):
    """Compositional product as the shuffle sum over every output tuple."""
    m, n = alpha.arity, beta.arity
    dim = alpha.dim
    out_arity = m + n - 1
    table = {}
    for idx in combinations(range(dim), out_arity):
        acc = [0] * dim
        for pos in combinations(range(out_arity), n):
            inner = tuple(idx[p] for p in pos)
            rest = tuple(idx[p] for p in range(out_arity) if p not in pos)
            sgn = _subset_sign(pos)
            v = beta.value(inner)
            if not any(v):
                continue
            for k, b in enumerate(eval_first(alpha, v, rest)):
                if b:
                    acc[k] += sgn * b
        if any(acc):
            table[idx] = acc
    return MultiMap(dim, out_arity, table)


def associativity_witness(A):
    """The first basis triple (i, j, k), in lexicographic order, where
    (e_i e_j) e_k != e_i (e_j e_k), each product taken against dense
    unit vectors; None when A is associative."""
    e = [linalg.unit_vector(i, A.dim) for i in range(A.dim)]
    m, sc = A.mult, A._sparse
    for i, j, k in product(range(A.dim), repeat=3):
        if _bilinear(sc, m[i][j], e[k]) != _bilinear(sc, e[i], m[j][k]):
            return (i, j, k)
    return None


def leibniz_rows(A):
    """The rows of X(e_i e_j) - X(e_i) e_j - e_i X(e_j) = 0 for every
    (i, j) and output coordinate r, over the unknowns X[r][c] at
    r * d + c, by a loop over every index."""
    d, mult = A.dim, A.mult
    rows = []
    for i in range(d):
        for j in range(d):
            for r in range(d):
                row = {r * d + c: x for c, x in enumerate(mult[i][j]) if x}
                for r2 in range(d):
                    for k, x in ((r2 * d + i, mult[r2][j][r]),
                                 (r2 * d + j, mult[i][r2][r])):
                        if x:
                            row[k] = row.get(k, 0) - x
                rows.append(row)
    return rows


# -- superalg by whole-map arithmetic and every-index loops --------------

def combine(dim, arity, terms):
    """sum of c * m over the (c, m) of terms, as a validated MultiMap of
    the given arity, tuples in increasing order."""
    table = {}
    for c, m in terms:
        for key, vec in m.table.items():
            old = table.get(key, [0] * dim)
            table[key] = [a + c * x for a, x in zip(old, vec)]
    return MultiMap(dim, arity, {k: table[k] for k in sorted(table)})


def supercomm(alpha, beta):
    """[a, b] = (-1)^((m+1) n) a o b + (-1)^m b o a, each product the
    literal shuffle sum, the two added as whole maps."""
    m, n = alpha.arity, beta.arity
    terms = []
    if m >= 1:
        terms.append(((-1) ** ((m + 1) * n), comp_product(alpha, beta)))
    if n >= 1:
        terms.append(((-1) ** m, comp_product(beta, alpha)))
    return combine(alpha.dim, max(m + n - 1, 0), terms)


def super_axiom_report(dim, seed, trials=50):
    """The (s1)/(s2) report on the maps `superalg.super_axiom_report`
    draws, each side a whole supercommutator map."""
    rng = random.Random(seed)
    s1_fail = s2_fail = 0
    for _ in range(trials):
        m, n, k = (rng.randint(0, MAX_ARITY) for _ in range(3))
        a, b, c = (random_multimap(dim, x, rng) for x in (m, n, k))
        s1 = combine(dim, max(m + n - 1, 0),
                     [(1, supercomm(a, b)),
                      (-(-1) ** (m * n), supercomm(b, a))])
        s1_fail += not s1.is_zero()
        s2 = combine(dim, max(m + n + k - 2, 0),
                     [((-1) ** (m * k), supercomm(supercomm(a, b), c)),
                      ((-1) ** (m * n), supercomm(supercomm(b, c), a)),
                      ((-1) ** (n * k), supercomm(supercomm(c, a), b))])
        s2_fail += not s2.is_zero()
    return {"dim": dim, "seed": seed, "trials": trials,
            "s1_failures": s1_fail, "s2_failures": s2_fail,
            "ok": s1_fail == 0 and s2_fail == 0}


def form_basis(space, n):
    """`superalg._form_basis` with a sign found for every derivation
    index t of every row, also where the module-action coordinate is 0."""
    A, d, m = space.A, space.d_der, space.A.dim
    if n == 0:
        return [{(): linalg.unit_vector(a, m)} for a in range(m)]
    keys = list(combinations(range(d), n))
    pos = {key: i * m for i, key in enumerate(keys)}
    rows = []
    for a in range(m):
        la = A.left_mult(linalg.unit_vector(a, m))
        acts = [space.module_action(a, t) for t in range(d)]
        for key, r in product(keys, range(m)):
            row = {pos[key] + c: -x for c, x in enumerate(la[r]) if x}
            for t, x in enumerate(acts[key[0]]):
                sign, srt = sort_sign((t,) + key[1:])
                if x and sign:
                    row[pos[srt] + r] = row.get(pos[srt] + r, 0) + sign * x
            rows.append(row)
    return [{key: vec for key, i in pos.items() if any(vec := v[i:i + m])}
            for v in linalg.nullspace(rows, ncols=len(keys) * m)]


def koszul_d(space, table, n):
    """The Koszul differential dw of an A-valued form w on Der(A), as a
    table, by dense `linalg.mat_vec` and a sign for every derivation
    index t, also where the bracket constant is 0."""
    out = {}
    for key in combinations(range(space.d_der), n + 1):
        acc = [0] * space.A.dim
        for i in range(n + 1):
            val = table.get(key[:i] + key[i + 1:])
            if val is not None:
                xv = linalg.mat_vec(space.der[key[i]], val)
                acc = [a + (-1) ** i * b for a, b in zip(acc, xv)]
        for i, j in combinations(range(n + 1), 2):
            rest = key[:i] + key[i + 1:j] + key[j + 1:]
            for t, b in enumerate(space.brackets[key[i]][key[j]]):
                sign, srt = sort_sign((t,) + rest)
                val = table.get(srt) if b and sign else None
                if val is not None:
                    c = (-1) ** (i + j) * b * sign
                    acc = [a + c * x for a, x in zip(acc, val)]
        if any(acc):
            out[key] = acc
    return out


def embed(space, table, n):
    """An A-valued derivation form as a validated MultiMap on V."""
    return MultiMap(space.dim, n, {key: [0] * space.d_der + list(vec)
                                   for key, vec in table.items()})


def koszul_check(A):
    """The Koszul report with [mu, w] and -dw built as whole maps and
    compared, each form basis and dw from the every-index loops above."""
    space = OperatorSpace(A)
    mu = space.mu()
    if not supercomm(mu, mu).is_zero():
        raise AssertionError("commutator tensor not involutive")
    dims = {}
    counterexample = None
    for n in range(KOSZUL_MAX_GRADE + 1):
        basis = form_basis(space, n)
        dims[n] = len(basis)
        for k, table in enumerate(basis):
            lhs = supercomm(mu, embed(space, table, n))
            rhs = combine(space.dim, n + 1,
                          [(-1, embed(space, koszul_d(space, table, n),
                                      n + 1))])
            if lhs != rhs and counterexample is None:
                counterexample = "grade %d, basis %s %d" % (
                    n, "form" if n else "element", k)
    return {"ok": counterexample is None,
            "dim_algebra": A.dim,
            "dim_der": space.d_der,
            "form_dims": dims,
            "counterexample": counterexample}


# -- printing -----------------------------------------------------------


def str_fractions(x):
    """Recursively stringify exact numbers for JSON output, and print
    polynomials and graded elements by `poly_str`.

    A Fraction prints as a string, and so does an int that is an entry
    of a list or tuple: a coordinate, whether it is held as an int or as
    a Fraction.  An int that is a dict value (a dim, a rank, a count)
    stays a number, and so does a bool."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [str(v) if type(v) is int else str_fractions(v) for v in x]
    if isinstance(x, dict):
        return {str(k): str_fractions(v) for k, v in x.items()}
    if isinstance(x, Poly):
        return poly_str(x)
    if isinstance(x, (Multivector, Form)):
        wire = {"n": x.n, "grade": x.grade,
                "terms": [{"idx": list(idx), "coeff": poly_str(c)}
                          for idx, c in x.sorted_terms()]}
        return dict(wire, kind="form") if isinstance(x, Form) else wire
    return x


def dump(obj):
    """The JSON output of a result, indented by two spaces."""
    return json.dumps(str_fractions(obj), sort_keys=True, indent=2) + "\n"


def dump_lines(payload):
    """The text output of a result dict: one `key: value` line per key."""
    payload = str_fractions(payload)
    return "".join("%s: %s\n" % (key, json.dumps(payload[key],
                                                 sort_keys=True))
                   for key in sorted(payload))
