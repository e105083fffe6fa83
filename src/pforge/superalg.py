"""Finite-dimensional oracle for the graded bracket conventions.

Multilinear antisymmetric maps on a small vector space V are stored as
tables over strictly increasing basis tuples; reads expand signs, so
antisymmetry can't be violated by construction.  The compositional
product is the shuffle sum over nonzero entries alone, the
supercommutator is

    [a, b] = (-1)^((m+1) n) a o b + (-1)^m b o a,

and a o b is taken to vanish when a has arity 0; both add into one
dict accumulator, as do the residues of the axiom report and of the
Koszul check.  Everything here is exact; the work follows the nonzeros
(50 draws of the axiom report on dense random maps take about 0.14 s
at dim 6 on Python 3.11), and the module exists to certify signs and
axioms, not to scale.

The second half treats a commutative unital algebra A given by
structure constants: its derivations, the operator space
V = Der(A) (+) A acting on A, the commutator tensor mu on V, and the
check that [mu, .] restricted to the A-multilinear, A-valued maps that
kill A equals minus the Koszul differential.
"""

from functools import cached_property
from itertools import combinations

from . import linalg
from .multivec import sort_sign
from .ncalg import AlgebraSC, BadAlgebra, derivations, _flatten, _product, \
    _rows, _sparse


class ArityMismatch(ValueError):
    pass


class SpaceMismatch(ValueError):
    pass


class NonInvolutiveElement(ValueError):
    pass


class MultiMap:
    """Antisymmetric multilinear map V^k -> V on basis-index tables."""

    __slots__ = ("dim", "arity", "table")

    def __init__(self, dim, arity, table=None):
        self.dim, self.arity, self.table = dim, arity, {}
        for idx, vec in (table or {}).items():
            idx = tuple(idx)
            if len(idx) != arity:
                raise ArityMismatch("tuple %r for arity %d" % (idx, arity))
            if list(idx) != sorted(set(idx)):
                raise ValueError("indices %r not strictly increasing" % (idx,))
            vec = linalg.exact_vector(vec)
            if len(vec) != dim:
                raise SpaceMismatch("value has wrong length")
            if any(vec):
                self.table[idx] = vec

    @classmethod
    def _trusted(cls, dim, arity, acc):
        """Unchecked constructor from an {increasing tuple: vector} dict
        of valid keys: the tuples sorted, the vectors normalised and the
        zero ones dropped."""
        m = object.__new__(cls)
        m.dim, m.arity, m.table = dim, arity, {}
        for idx in sorted(acc):
            vec = linalg.exact_vector(acc[idx])
            if any(vec):
                m.table[idx] = vec
        return m

    def is_zero(self):
        return not self.table

    def value(self, idx):
        """Signed read at an arbitrary basis-index tuple."""
        sign, key = sort_sign(idx)
        vec = self.table.get(key) if sign else None
        if vec is None:
            return [0] * self.dim
        return [sign * x for x in vec]

    def __eq__(self, other):
        return (self.dim == other.dim and self.table == other.table
                and (self.arity == other.arity
                     or self.is_zero() and other.is_zero()))

    def __repr__(self):
        return "MultiMap(dim=%d, arity=%d, %d entries)" % (
            self.dim, self.arity, len(self.table))


def _compose(alpha, beta, acc, scale):
    """Add scale * (alpha o beta) into acc, a dict from increasing tuples
    to unnormalised vectors, and return acc.  (a o b)(e_I) sums
    sign(J, R) a(b(e_J), e_R) over the shuffles (J, R) of I, from nonzero
    constants alone: alpha's entries are listed under each index i they
    hold, as (K minus i, scale * (-1)^(position of i), nonzero constants),
    and a beta entry (J, v) meets, for each i with v_i != 0, only those
    holding i, adding into sorted(J + R) when J and R are disjoint, with
    the sign `sort_sign(J + R)` found once per (J, R)."""
    dim = alpha.dim
    holding = [[] for _ in range(dim)]
    for key, vec in alpha.table.items():
        nonzero = [(k, x) for k, x in enumerate(vec) if x]
        for p, i in enumerate(key):
            holding[i].append((key[:p] + key[p + 1:], -scale if p % 2
                               else scale, nonzero))
    for inner, v in beta.table.items():
        # (sign, sorted tuple) of the shuffle (inner, rest), per rest
        shuffles = {}
        for i, c in enumerate(v):
            if c:
                for rest, s, nonzero in holding[i]:
                    if rest not in shuffles:
                        shuffles[rest] = sort_sign(inner + rest)
                    sign, idx = shuffles[rest]
                    if sign:
                        out = acc.get(idx) or acc.setdefault(idx, [0] * dim)
                        c2 = sign * s * c
                        for k, x in nonzero:
                            out[k] += c2 * x
    return acc


def _supercomm(alpha, beta, acc, scale=1):
    """Add scale * [alpha, beta] into acc, as `_compose` does."""
    m, n = alpha.arity, beta.arity
    if m >= 1:
        _compose(alpha, beta, acc, scale * (-1) ** ((m + 1) * n))
    if n >= 1:
        _compose(beta, alpha, acc, scale * (-1) ** m)
    return acc


def _vanishes(acc):
    """Whether every vector of an accumulator is zero."""
    return not any(map(any, acc.values()))


def comp_product(alpha, beta):
    """Compositional product alpha o beta, of arity m + n - 1."""
    if alpha.dim != beta.dim:
        raise SpaceMismatch("dim mismatch")
    m, n = alpha.arity, beta.arity
    if m < 1:
        raise ArityMismatch("left factor needs arity >= 1")
    return MultiMap._trusted(alpha.dim, m + n - 1,
                             _compose(alpha, beta, {}, 1))


def supercomm(alpha, beta):
    """Supercommutator [a,b] = (-1)^((m+1)n) a o b + (-1)^m b o a."""
    if alpha.dim != beta.dim:
        raise SpaceMismatch("dim mismatch")
    return MultiMap._trusted(alpha.dim, max(alpha.arity + beta.arity - 1, 0),
                             _supercomm(alpha, beta, {}))


def dmu(mu, alpha):
    """Coboundary [mu, .] of an involutive arity-2 element."""
    if mu.arity != 2:
        raise ArityMismatch("mu must have arity 2")
    if not _vanishes(_supercomm(mu, mu, {})):
        raise NonInvolutiveElement("[mu, mu] != 0")
    return supercomm(mu, alpha)


# random multimaps have entries in [-ENTRY_BOUND, ENTRY_BOUND], and the
# axiom report draws arities from 0..MAX_ARITY
ENTRY_BOUND = 3
MAX_ARITY = 3


def random_multimap(dim, arity, rng):
    return MultiMap(dim, arity, {
        idx: [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(dim)]
        for idx in combinations(range(dim), arity)})


def super_axiom_report(dim, seed, trials=50):
    """Random (s1)/(s2) certification; returns a summary dict."""
    import random
    rng = random.Random(seed)
    s1_fail = s2_fail = 0
    for _ in range(trials):
        m, n, k = (rng.randint(0, MAX_ARITY) for _ in range(3))
        a, b, c = (random_multimap(dim, x, rng) for x in (m, n, k))
        s1 = _supercomm(b, a, _supercomm(a, b, {}), -(-1) ** (m * n))
        s1_fail += not _vanishes(s1)
        s2 = _supercomm(supercomm(a, b), c, {}, (-1) ** (m * k))
        _supercomm(supercomm(b, c), a, s2, (-1) ** (m * n))
        _supercomm(supercomm(c, a), b, s2, (-1) ** (n * k))
        s2_fail += not _vanishes(s2)
    return {"dim": dim, "seed": seed, "trials": trials,
            "s1_failures": s1_fail, "s2_failures": s2_fail,
            "ok": s1_fail == 0 and s2_fail == 0}


# ---------------------------------------------------------------------
# Commutative algebras by structure constants


def _check_commutative(A):
    """Raise BadAlgebra unless e_i e_j = e_j e_i for all basis pairs."""
    for i in range(A.dim):
        for j in range(i + 1, A.dim):
            if A.mult[i][j] != A.mult[j][i]:
                raise BadAlgebra(
                    "not commutative at basis pair (%d,%d)" % (i, j))


class OperatorSpace:
    """V = Der(A) (+) A realised as operators on A.

    Basis: the derivations X_t that `derivations` gives first, then the
    left multiplications L_a by the algebra basis.  A must be
    commutative and unital, BadAlgebra otherwise.  The unit makes the
    sum direct, since L_a(1) = a while every derivation kills 1; without
    one an L_a can be a derivation.
    """

    def __init__(self, A):
        _check_commutative(A)
        if A.unit is None:
            raise BadAlgebra("Der(A) + A needs a unital algebra")
        self.A = A
        der = derivations(A)
        self.der, self.brackets = der["basis"], der["brackets"]
        self.d_der = len(self.der)
        self.dim = self.d_der + A.dim
        self._coords = linalg.kernel_coords([_flatten(m) for m in self.der])
        self._der_rows = [_rows(X) for X in self.der]
        self._brackets = _sparse(self.brackets)

    def mu(self):
        """Commutator tensor on V as an arity-2 MultiMap, in closed form:
        [X_i, X_j] from Der(A)'s structure constants, [X, L_a] = L_{X(a)},
        and [L_a, L_b] = L_{ab - ba} = 0."""
        k, d = self.d_der, self.A.dim
        table = {}
        for i, X in enumerate(self.der):
            for j in range(i + 1, k):
                table[(i, j)] = self.brackets[i][j] + [0] * d
            for a in range(d):
                table[(i, k + a)] = [0] * k + [row[a] for row in X]
        return MultiMap(self.dim, 2, table)

    def module_action(self, a_idx, t):
        """Coordinates over Der(A) of e_a . X_t = L_{e_a} X_t, which is a
        derivation because A is commutative."""
        d = self.A.dim
        la = _rows(self.A.left_mult(linalg.unit_vector(a_idx, d)))
        c = self._coords(_product([0] * (d * d), la, self._der_rows[t], d))
        if c is None:
            raise AssertionError("e_%d . X_%d is not a derivation"
                                 % (a_idx, t))
        return c

    @cached_property
    def actions(self):
        """actions[a][t0]: the nonzero (t, x) of `module_action(a, t0)`,
        each of the m * d solves made once per space."""
        return [[[(t, x) for t, x in enumerate(self.module_action(a, t0))
                  if x] for t0 in range(self.d_der)]
                for a in range(self.A.dim)]


def _form_basis(space, n):
    """Basis of the A-valued, A-multilinear maps on V killing A, arity n:
    at n = 0 the unit vectors of A.

    Each element is a dict: increasing tuple over derivation indices ->
    coordinate vector in A.
    """
    A, d, m = space.A, space.d_der, space.A.dim
    if n == 0:
        return [{(): linalg.unit_vector(a, m)} for a in range(m)]
    keys = list(combinations(range(d), n))
    # omega(key) is unknown at pos[key] .. pos[key] + m - 1
    pos = {key: i * m for i, key in enumerate(keys)}
    rows = []
    for a in range(m):
        la = A.left_mult(linalg.unit_vector(a, m))
        acts = space.actions[a]
        for key in keys:
            # omega(a . X_{k0}, rest) - a * omega(key) = 0, coordinate r,
            # where a . X_{k0} = sum x X_t moves omega(key) to +-omega(srt)
            moved = []
            for t, x in acts[key[0]]:
                sign, srt = sort_sign((t,) + key[1:])
                if sign:
                    moved.append((pos[srt], sign * x))
            for r in range(m):
                row = {pos[key] + c: -x for c, x in enumerate(la[r]) if x}
                for i, x in moved:
                    row[i + r] = row.get(i + r, 0) + x
                rows.append(row)
    return [{key: vec for key, i in pos.items() if any(vec := v[i:i + m])}
            for v in linalg.nullspace(rows, ncols=len(keys) * m)]


def _koszul_d(space, table, n, acc):
    """Add the Koszul differential of an A-valued form w on Der(A) into
    acc, at the A coordinates of V (after the Der(A) ones), and return
    acc:

        dw(X_0..X_n) = sum_i (-1)^i X_i(w(.. no X_i ..))
                       + sum_{i<j} (-1)^(i+j) w([X_i, X_j], .. no X_i, X_j ..),

    so da(X) = X(a) at n = 0.  Only nonzero entries of each X_i and
    nonzero structure constants of Der(A), for [X_i, X_j], are read."""
    k = space.d_der
    for key in combinations(range(k), n + 1):
        out = acc.get(key) or acc.setdefault(key, [0] * space.dim)
        for i in range(n + 1):
            val = table.get(key[:i] + key[i + 1:])
            if val is not None:
                for r, row in enumerate(space._der_rows[key[i]], k):
                    for c, x in row:
                        out[r] += (-1) ** i * x * val[c]
        for i, j in combinations(range(n + 1), 2):
            rest = key[:i] + key[i + 1:j] + key[j + 1:]
            for t, b in space._brackets[key[i]][key[j]]:
                sign, srt = sort_sign((t,) + rest)
                val = table.get(srt) if sign else None
                if val is not None:
                    c = (-1) ** (i + j) * b * sign
                    for r, x in enumerate(val, k):
                        out[r] += c * x
    return acc


# the Koszul oracle checks the forms of grades 0..KOSZUL_MAX_GRADE
KOSZUL_MAX_GRADE = 2


def koszul_check(A):
    """Verify [mu, w] = -(dw) on the derivation-form subspace of L(V).

    V is Der(A) (+) A acting on A, mu its commutator tensor.  Checked
    on a computed basis of each graded piece up to KOSZUL_MAX_GRADE,
    grade 0 being A itself; entrywise over the full V table, which also
    certifies that [mu, w] stays inside the subspace.  A must be
    commutative and unital (see `OperatorSpace`), BadAlgebra otherwise.
    """
    space = OperatorSpace(A)
    mu = space.mu()
    if not _vanishes(_supercomm(mu, mu, {})):
        raise NonInvolutiveElement("commutator tensor not involutive")
    dims = {}
    counterexample = None
    for n in range(KOSZUL_MAX_GRADE + 1):
        basis = _form_basis(space, n)
        dims[n] = len(basis)
        for k, table in enumerate(basis):
            # w lifted to V; [mu, w] + dw vanishes where [mu, w] = -dw
            w = MultiMap._trusted(space.dim, n, {
                key: [0] * space.d_der + vec for key, vec in table.items()})
            acc = _koszul_d(space, table, n, _supercomm(mu, w, {}))
            if counterexample is None and not _vanishes(acc):
                counterexample = "grade %d, basis %s %d" % (
                    n, "form" if n else "element", k)
    return {"ok": counterexample is None,
            "dim_algebra": A.dim,
            "dim_der": space.d_der,
            "form_dims": dims,
            "counterexample": counterexample}


def standard_algebra(name):
    """Small named test algebras for the oracle."""
    if name in ("Q", "field"):
        return AlgebraSC(1, [[[1]]], [1])
    if name in ("QxQ", "product"):
        mult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
        return AlgebraSC(2, mult, [1, 1])
    if name in ("Q[t]/t^3", "truncated3"):
        # basis 1, t, t^2
        z = [0, 0, 0]
        mult = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], z],
            [[0, 0, 1], z, z],
        ]
        return AlgebraSC(3, mult, [1, 0, 0])
    if name in ("Q[s,t]/(s^2,t^2)", "dual_pair"):
        # basis 1, s, t, st
        z = [0, 0, 0, 0]
        e = linalg.unit_vector
        mult = [
            [e(0, 4), e(1, 4), e(2, 4), e(3, 4)],
            [e(1, 4), z, e(3, 4), z],
            [e(2, 4), e(3, 4), z, z],
            [e(3, 4), z, z, z],
        ]
        return AlgebraSC(4, mult, [1, 0, 0, 0])
    raise KeyError("unknown algebra %r" % name)
