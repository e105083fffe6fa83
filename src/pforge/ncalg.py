"""Calculus on finite-dimensional associative and Lie algebras.

Algebras are given by structure constants over Q (`AlgebraSC`,
`LieAlgebraSC`, sharing one length check and one bilinear product);
subspaces (ideals, subalgebras, distributions) by row lists of
coordinate vectors.  All verdicts are backed by witnesses: a violating
triple, a certifying basis, or an explicit matrix — never a bare
boolean.

Quotients are realised concretely: a complement basis of the subspace
is chosen deterministically (`linalg.Subspace`), and `_induced` reads
the matrix of an operator that preserves the subspace on the subspace
or on the quotient.
"""

from itertools import combinations, product

from . import linalg


class BadAlgebra(ValueError):
    """Structure constants fail a length, associativity, unit or
    commutativity check."""


class BadLieAlgebra(ValueError):
    """Structure constants fail a length, antisymmetry or Jacobi check."""


class NotAnIdeal(ValueError):
    pass


class NotASubalgebra(ValueError):
    pass


class NotASplitting(ValueError):
    pass


def _table(dim, table, error):
    """table[i][j] as vectors in normal form (`linalg.exact`), each
    checked to have length dim."""
    out = [[linalg.exact_vector(table[i][j]) for j in range(dim)]
           for i in range(dim)]
    for i, j in product(range(dim), repeat=2):
        if len(out[i][j]) != dim:
            raise error("structure constant vector (%d,%d) has length %d, "
                        "not %d" % (i, j, len(out[i][j]), dim))
    return out


def _sparse(table):
    """The nonzero structure constants of table[i][j], as (k, constant)
    pairs."""
    return [[[(k, x) for k, x in enumerate(vec) if x] for vec in row]
            for row in table]


def _bilinear(sparse, u, v):
    """The product of u and v by the structure constants that `_sparse`
    gives, before `linalg.exact_vector`."""
    out = [0] * len(sparse)
    vs = [(j, y) for j, y in enumerate(v) if y]
    for x, row in zip(u, sparse):
        if x:
            for j, y in vs:
                c = x * y
                for k, b in row[j]:
                    out[k] += c * b
    return out


class AlgebraSC:
    """Associative algebra on Q^dim; mult[i][j] = coordinates of e_i e_j,
    unit (optional) = coordinates of 1."""

    __slots__ = ("dim", "mult", "unit", "_sparse")

    def __init__(self, dim, mult, unit=None):
        self.dim = dim
        self.mult = _table(dim, mult, BadAlgebra)
        self._sparse = _sparse(self.mult)
        self.unit = None if unit is None else linalg.exact_vector(unit)
        if self.unit is not None and len(self.unit) != dim:
            raise BadAlgebra("unit has length %d, not %d"
                             % (len(self.unit), dim))
        bad = self.associativity_witness()
        if bad is not None:
            raise BadAlgebra("not associative at basis triple %r" % (bad,))
        if self.unit is not None:
            for i in range(dim):
                e = linalg.unit_vector(i, dim)
                if self.multiply(self.unit, e) != e or \
                        self.multiply(e, self.unit) != e:
                    raise BadAlgebra("unit axiom fails on basis element %d" % i)

    def multiply(self, u, v):
        return linalg.exact_vector(_bilinear(self._sparse, u, v))

    def associativity_witness(self):
        e = [linalg.unit_vector(i, self.dim) for i in range(self.dim)]
        m, sc = self.mult, self._sparse
        for i, j, k in product(range(self.dim), repeat=3):
            if _bilinear(sc, m[i][j], e[k]) != _bilinear(sc, e[i], m[j][k]):
                return (i, j, k)
        return None

    def left_mult(self, u):
        d = self.dim
        cols = [self.multiply(u, linalg.unit_vector(j, d)) for j in range(d)]
        return _from_columns(cols, d)


class LieAlgebraSC:
    """Lie algebra by structure constants: [e_i, e_j] = sum_k c[i][j][k] e_k."""

    __slots__ = ("dim", "c", "_sparse")

    def __init__(self, dim, c):
        self.dim = dim
        self.c = _table(dim, c, BadLieAlgebra)
        self._sparse = _sparse(self.c)
        for i, j in product(range(dim), repeat=2):
            if any(a + b for a, b in zip(self.c[i][j], self.c[j][i])):
                raise BadLieAlgebra("not antisymmetric at (%d,%d)" % (i, j))
        # With antisymmetry in place the Jacobiator is totally
        # antisymmetric and vanishes on a repeated index, so the sorted
        # triples decide it, and the first failing triple in
        # lexicographic order is a sorted one.
        for i, j, k in combinations(range(dim), 3):
            # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
            jac = [0] * dim
            for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
                for s, x in self._sparse[a][b]:
                    for r, z in self._sparse[s][t]:
                        jac[r] += x * z
            if any(jac):
                raise BadLieAlgebra("Jacobi fails at (%d,%d,%d)" % (i, j, k))

    def bracket(self, u, v):
        return linalg.exact_vector(_bilinear(self._sparse, u, v))


def center(A):
    """Basis of the center: solutions of e_i z = z e_i for all i."""
    return linalg.nullspace(_ad_rows(A), ncols=A.dim)


def _ad_rows(A):
    """Rows r = 0..d-1 of the matrix of z -> e_i z - z e_i, for each i
    in turn, as sparse {k: coefficient of z_k} dicts."""
    d, m = A.dim, A.mult
    return [{k: x for k in range(d) if (x := m[i][k][r] - m[k][i][r])}
            for i in range(d) for r in range(d)]


def validate_algebra(A):
    """Associativity/center report (construction already enforces both)."""
    z = center(A)
    return {"associative": True, "dim": A.dim,
            "center_dim": len(z), "center_basis": z,
            "unital": A.unit is not None}


def derivations(A):
    """Basis of Der(A) as matrices, the inner-derivation sub-basis, and
    Der(A)'s structure constants: brackets[i][j] holds the coordinates
    of [X_i, X_j] over the basis."""
    d, mult = A.dim, A.mult
    rows = []
    for i in range(d):
        for j in range(d):
            for r in range(d):
                # X(e_i e_j) - X(e_i) e_j - e_i X(e_j) = 0, row r, over
                # the unknowns X[r][c] at r * d + c
                row = {r * d + c: x for c, x in enumerate(mult[i][j]) if x}
                for r2 in range(d):
                    for k, x in ((r2 * d + i, mult[r2][j][r]),
                                 (r2 * d + j, mult[i][r2][r])):
                        if x:
                            row[k] = row.get(k, 0) - x
                rows.append(row)
    flat = linalg.nullspace(rows, ncols=d * d)
    basis = [_unflatten(v, d, d) for v in flat]
    ad = _ad_rows(A)
    inner_rows = linalg.row_space_basis(
        [{r * d + k: x for r in range(d) for k, x in ad[i * d + r].items()}
         for i in range(d)], ncols=d * d)
    # closure of Der(A) under commutator, checked exactly
    coords = linalg.kernel_coords(flat)
    brackets = _structure_constants(
        len(basis), lambda i, j: coords(
            _flatten(_commutator(basis[i], basis[j]))),
        AssertionError, "Der(A) not closed under commutator at %r")
    return {"basis": basis, "inner": [_unflatten(r, d, d) for r in inner_rows],
            "brackets": brackets}


def _structure_constants(k, coords, error, message):
    """c[i][j] = coords(i, j) for i < j, c[j][i] = -c[i][j] and a zero
    diagonal: the structure constants of a basis of k elements under an
    antisymmetric bracket.  coords gives None when the bracket leaves
    the span, and the first such pair (i, j) raises error(message % pair)."""
    c = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, j in combinations(range(k), 2):
        v = coords(i, j)
        if v is None:
            raise error(message % ((i, j),))
        c[i][j], c[j][i] = v, [-x for x in v]
    return c


def _flatten(m):
    return [x for row in m for x in row]


def _unflatten(v, d, k):
    """The d x k matrix whose rows, concatenated, are v."""
    return [[v[r * k + c] for c in range(k)] for r in range(d)]


def _from_columns(cols, nrows):
    """The nrows-row matrix whose columns are cols."""
    return [[col[i] for col in cols] for i in range(nrows)]


def _commutator(a, b):
    return linalg.mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def _combination(coeffs, vecs):
    """sum of c * v over coeffs and the equally long vectors vecs."""
    out = [0] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        if c:
            for k, x in enumerate(v):
                if x:
                    out[k] += c * x
    return linalg.exact_vector(out)


def _span(rows, n):
    """Subspace whose coords are taken over its reduced echelon basis."""
    return linalg.Subspace(linalg.row_space_basis(rows), n)


def _induced(X, vecs, read):
    """The matrix whose columns are read(X v) for v in vecs: X on a
    subalgebra S with vecs = S.basis and read = S.coords (X must
    preserve S), or on a quotient by S with vecs = S.complement and
    read = S.project."""
    return _from_columns([read(linalg.mat_vec(X, v)) for v in vecs],
                         len(vecs))


def check_ideal(A, I_rows):
    """Two-sided ideal test; returns a witness (side, i, j) or None."""
    d = A.dim
    ideal = linalg.Subspace(I_rows, d)
    for j, g in enumerate(ideal.basis):
        for i in range(d):
            e = linalg.unit_vector(i, d)
            if not ideal.contains(A.multiply(e, g)):
                return ("left", i, j)
            if not ideal.contains(A.multiply(g, e)):
                return ("right", i, j)
    return None


def check_subalgebra(A, B_rows):
    """Subalgebra test; returns a witness pair (i, j) or None."""
    sub = linalg.Subspace(B_rows, A.dim)
    for i, u in enumerate(sub.basis):
        for j, v in enumerate(sub.basis):
            if not sub.contains(A.multiply(u, v)):
                return (i, j)
    return None


def quotient_algebra(A, I_rows):
    """A/I with projection and section matrices.

    Returns (Q: AlgebraSC, proj, section) where proj maps ambient
    coordinates to quotient coordinates and section lifts them back
    along the chosen complement basis.
    """
    d = A.dim
    ideal = linalg.Subspace(I_rows, d)
    comp = ideal.complement
    q = len(comp)
    # proj as q x d matrix (column r = quotient coords of e_r)
    proj = _from_columns([ideal.project(e) for e in linalg.identity(d)], q)
    section = [[comp[j][r] for j in range(q)] for r in range(d)]
    mult = [[ideal.project(A.multiply(comp[i], comp[j])) for j in range(q)]
            for i in range(q)]
    unit = ideal.project(A.unit) if (A.unit is not None and q) else None
    Q = AlgebraSC(q, mult, unit)
    return Q, proj, section


def _images(vecs, d, reduce):
    """Residual for `_sub_basis`: reduce(X v) for v in vecs, concatenated,
    for X the d x d matrix of a flattened operator."""
    def residual(x):
        X = _unflatten(x, d, d)
        return [c for v in vecs for c in reduce(linalg.mat_vec(X, v))]
    return residual


def _sub_basis(span_rows, residual):
    """Basis of the subspace of span(span_rows) where a linear residual
    vanishes, as combinations of span_rows.  When span_rows is a
    `nullspace` basis, so is the result in `linalg.kernel_coords`'s
    sense: each vector is 1 at its last nonzero place, where the others
    are 0.

    `residual` maps a vector to its constraint-violation vector; an
    empty vector means no constraints.
    """
    if not span_rows:
        return []
    mat = [list(r) for r in zip(*(residual(v) for v in span_rows))]
    return [_combination(c, span_rows)
            for c in linalg.nullspace(mat, ncols=len(span_rows))]


def submanifold_check(A, I_rows, _der=None):
    """Is the restriction r_I: Der_I(A) -> Der(A/I) surjective?  Report
    with ranks and witnesses.

    Der_I preserves the ideal; Der_I_0 maps everything into it.  The
    kernel of r_I is verified to equal Der_I(A)_0 exactly.  `_der` is
    the basis of Der(A) when the caller already has it.
    """
    witness = check_ideal(A, I_rows)
    if witness is not None:
        raise NotAnIdeal("not a two-sided ideal, witness %r" % (witness,))
    d = A.dim
    if _der is None:
        _der = derivations(A)["basis"]
    der = [_flatten(m) for m in _der]
    ideal = linalg.Subspace(I_rows, d)
    der_i = _sub_basis(der, _images(ideal.basis, d, ideal.project))
    der_i0 = _sub_basis(der, _images(linalg.identity(d), d, ideal.project))
    Q = quotient_algebra(A, I_rows)[0]
    der_q = derivations(Q)["basis"]
    q_coords = linalg.kernel_coords([_flatten(m) for m in der_q])
    rI = []
    for x in der_i:
        coords = q_coords(_flatten(_induced(
            _unflatten(x, d, d), ideal.complement, ideal.project)))
        if coords is None:
            raise AssertionError("restriction left Der(A/I)")
        rI.append(coords)
    # kernel(r_I) == Der_I_0
    kernel = [_combination(v, der_i) for v in linalg.nullspace(
        _from_columns(rI, len(der_q)), ncols=len(der_i))]
    if not linalg.subspace_equal(kernel, der_i0):
        raise AssertionError("kernel(r_I) != Der_I(A)_0")
    r = linalg.rank(rI)
    return {"der_I": [_unflatten(x, d, d) for x in der_i],
            "der_I_0": [_unflatten(x, d, d) for x in der_i0], "r_I": rI,
            "quotient": Q, "der_quotient": der_q,
            "submanifold": r == len(der_q), "rank_r_I": r,
            "dim_der_quotient": len(der_q)}


def quotient_check(A, B_rows):
    """The three quotient-manifold-algebra conditions for a subalgebra B."""
    witness = check_subalgebra(A, B_rows)
    if witness is not None:
        raise NotASubalgebra("not a subalgebra, witness %r" % (witness,))
    d = A.dim
    sub = _span(B_rows, d)
    bbase = sub.basis
    der = [_flatten(m) for m in derivations(A)["basis"]]
    # Q_B preserves B: X(b) vanishes modulo B; V_B kills B outright
    q_b = [_unflatten(x, d, d)
           for x in _sub_basis(der, _images(bbase, d, sub.project))]
    v_b = [_unflatten(x, d, d)
           for x in _sub_basis(der, _images(bbase, d, list))]

    # B as an algebra in its own right
    bmult = [[sub.coords(A.multiply(u, v)) for v in bbase] for u in bbase]
    bunit = None if A.unit is None else sub.coords(A.unit)
    B = AlgebraSC(len(bbase), bmult, bunit)

    # q1: Z(B) == B intersect Z(A)
    zb_ambient = [_combination(z, bbase) for z in center(B)]
    inter = linalg.intersect([list(b) for b in bbase], center(A))
    q1 = linalg.subspace_equal(zb_ambient, inter)

    # q2: restriction Q_B -> Der(B) surjective
    der_b = derivations(B)
    b_coords = linalg.kernel_coords([_flatten(m) for m in der_b["basis"]])
    r_b = []
    for X in q_b:
        coords = b_coords(_flatten(_induced(X, bbase, sub.coords)))
        if coords is None:
            raise AssertionError("restriction of Q_B left Der(B)")
        r_b.append(coords)
    q2 = linalg.rank(r_b) == len(der_b["basis"])

    # q3: joint kernel of V_B on A equals B
    inv_rows = [row for X in v_b for row in X]
    invariants = linalg.nullspace(inv_rows, ncols=d)
    q3 = linalg.subspace_equal(invariants, [list(b) for b in bbase])

    return {"q1": q1, "q2": q2, "q3": q3,
            "quotient_manifold_algebra": q1 and q2 and q3,
            "Q_B": q_b, "V_B": v_b, "r_B": r_b, "der_B": der_b["basis"],
            "der_B_brackets": der_b["brackets"],
            "invariants_of_V_B": invariants,
            "B_algebra": B, "B_basis": bbase}


def _curvature(mats, brackets):
    """The curvature R(i, j) = [M_i, M_j] - sum_k brackets[i][j][k] M_k
    for i < j, with brackets the structure constants of the acting basis,
    and whether every R(i, j) is zero."""
    size = len(mats[0]) if mats else 0
    flat = [_flatten(m) for m in mats]
    table = {}
    for i, j in combinations(range(len(mats)), 2):
        nab = _unflatten(_combination(brackets[i][j], flat), size, size)
        table[(i, j)] = linalg.mat_sub(_commutator(mats[i], mats[j]), nab)
    return {"curvature": table,
            "flat": all(not any(_flatten(m)) for m in table.values())}


def splitting_curvature(A, B_rows, s_ops):
    """Curvature of the connection defined by a splitting s.

    s_ops lists one operator matrix per basis element of Der(B); each
    must land in Q_B and restrict back to that basis element.  Returns
    the antisymmetric table R(X_i, X_j) = [s_i, s_j] - s([X_i, X_j])
    and whether it vanishes.
    """
    info = quotient_check(A, B_rows)
    der_b = info["der_B"]
    q_b_coords = linalg.kernel_coords([_flatten(m) for m in info["Q_B"]])
    sub = linalg.Subspace(info["B_basis"], A.dim)
    if len(s_ops) != len(der_b):
        raise NotASplitting("need one operator per Der(B) basis element")
    for i, sx in enumerate(s_ops):
        if q_b_coords(_flatten(sx)) is None:
            raise NotASplitting("s(X_%d) is not in Q_B" % i)
        if _induced(sx, sub.basis, sub.coords) != der_b[i]:
            raise NotASplitting("r_B(s(X_%d)) != X_%d" % (i, i))

    return _curvature(s_ops, info["der_B_brackets"])


# ---------------------------------------------------------------------
# Bott connections


def _connection(module_basis, acting_basis, mats, brackets):
    """A Bott connection: the module basis, the acting basis, the matrix
    M_i of the i-th acting element on the module basis, and the curvature
    of the M_i with its flatness."""
    return dict(_curvature(mats, brackets), module_basis=module_basis,
                acting_basis=acting_basis, matrices=mats)


def _lie_subalgebra(g, rows):
    """span(rows) as a Subspace over its echelon basis, and that basis's
    structure constants, or NotASubalgebra."""
    sub = _span(rows, g.dim)
    base = sub.basis
    return sub, _structure_constants(
        len(base), lambda i, j: sub.coords(g.bracket(base[i], base[j])),
        NotASubalgebra, "L0 not a Lie subalgebra, witness %r")


def bott_quotient(g, L0_rows):
    """Canonical connection of L0 on L/L0: grad_X q(u) = q([X, u])."""
    sub, brackets = _lie_subalgebra(g, L0_rows)
    comp = sub.complement
    mats = [_from_columns([sub.project(g.bracket(x, u)) for u in comp],
                          len(comp))
            for x in sub.basis]
    return _connection(comp, sub.basis, mats, brackets)


def bott_forms(g, L0_rows):
    """Connection of L0 on the annihilator of L0 in the dual space.

    (grad_X a)(u) = -a([X, u]); the annihilator is verified to be
    invariant, and `flat` reports whether the curvature vanishes.
    """
    sub, brackets = _lie_subalgebra(g, L0_rows)
    d = g.dim
    ann = linalg.nullspace(sub.basis, ncols=d)
    ann_coords = linalg.kernel_coords(ann)
    mats = []
    for x in sub.basis:
        ad = [g.bracket(x, e) for e in linalg.identity(d)]
        cols = []
        for alpha in ann:
            # (grad_x alpha)(e_t) = -alpha([x, e_t])
            coords = ann_coords(
                [-sum(a * b for a, b in zip(alpha, col)) for col in ad])
            if coords is None:
                raise AssertionError("annihilator not invariant")
            cols.append(coords)
        mats.append(_from_columns(cols, len(ann)))
    return _connection(ann, sub.basis, mats, brackets)


def _one_forms(A, der):
    """Span of the differentials a db inside Hom(Der(A), A).

    1-forms are stored as (dim A x dim Der) matrices, flattened rows.
    """
    d, k = A.dim, len(der)
    gens = []
    for i in range(d):
        for j in range(d):
            cols = []
            for X in der:
                xj = linalg.mat_vec(X, linalg.unit_vector(j, d))
                cols.append(A.multiply(linalg.unit_vector(i, d), xj))
            gens.append(_flatten(_from_columns(cols, d)))
    return linalg.row_space_basis(gens)


def _new_directions(base, vecs, n):
    """Positions of the vecs not in the span of base and the vecs before
    them: the pivot columns past base of the matrix with these columns."""
    cols = base + vecs
    rows = [{j: v[r] for j, v in enumerate(cols) if v[r]} for r in range(n)]
    return [p - len(base) for p in linalg.pivots(rows) if p >= len(base)]


def bott_integral(A, D_ops, I_rows):
    """Bott connection for the integral submanifold constrained by I.

    D_ops is a list of operator matrices spanning an involutive
    distribution inside Der(A).  The verdict reports every failed
    precondition; when the quotient A/I is integral for D the quotient
    module Gamma = forms vanishing on D modulo I-valued forms is built
    and the connection matrices are returned per basis element of
    D/D_I, with representative independence verified.
    """
    d = A.dim
    D_ops = [[linalg.exact_vector(row) for row in X] for X in D_ops]
    der_info = derivations(A)
    der = der_info["basis"]
    k = len(der)
    der_coords = linalg.kernel_coords([_flatten(m) for m in der])
    d_flat = [_flatten(m) for m in D_ops]
    d_span = linalg.Subspace(d_flat, d * d)
    # coordinates over Der(A) of each D element
    d_coords = [der_coords(x) for x in d_flat]
    problems = ["D[%d] is not a derivation" % i
                for i, c in enumerate(d_coords) if c is None]
    for i, X in enumerate(D_ops):
        for j, Y in enumerate(D_ops):
            if not d_span.contains(_flatten(_commutator(X, Y))):
                problems.append("D not involutive at pair (%d,%d)" % (i, j))
    ideal = linalg.Subspace(I_rows, d)
    for i, X in enumerate(D_ops):
        for gv in ideal.basis:
            if not ideal.contains(linalg.mat_vec(X, gv)):
                problems.append("D[%d] does not preserve I" % i)
    if problems:
        return {"integral": False, "problems": sorted(set(problems))}
    info = submanifold_check(A, I_rows, _der=der)
    if not info["submanifold"]:
        return {"integral": False,
                "problems": ["A/I is not a submanifold algebra"]}
    # integral iff additionally r_I(D) equals Der(A/I); the quotient
    # module and connection only need D-invariance of I, so they are
    # reported either way
    der_q = info["der_quotient"]
    q_coords = linalg.kernel_coords([_flatten(m) for m in der_q])
    images = [q_coords(_flatten(_induced(X, ideal.complement, ideal.project)))
              for X in D_ops]
    integral = all(c is not None for c in images) and \
        linalg.rank(images) == len(der_q)

    # D_I = elements of D mapping all of A into I
    d_i = _sub_basis(d_flat, _images(linalg.identity(d), d, ideal.project))
    reps = _new_directions(d_i, d_flat, d * d)

    omega1 = _one_forms(A, der)

    def vanishes_on_d(v):
        """The values a(X) for X in D, for a flattened 1-form a."""
        form = _unflatten(v, d, k)
        return [sum(c[t] * form[r][t] for t in range(k))
                for c in d_coords for r in range(d)]

    def i_valued(v):
        """Every value column of the 1-form modulo I."""
        form = _unflatten(v, d, k)
        return [x for c in range(k)
                for x in ideal.project([form[r][c] for r in range(d)])]

    omega_d = linalg.row_space_basis(_sub_basis(omega1, vanishes_on_d))
    omega_i = linalg.row_space_basis(_sub_basis(omega1, i_valued))
    inter = linalg.intersect(omega_d, omega_i)
    gamma_reps = [omega_d[i]
                  for i in _new_directions(inter, omega_d, d * k)]

    sparse = _sparse(der_info["brackets"])

    def lie_derivative(X, x):
        """a -> L_X a, (L_X a)(Y) = X(a(Y)) - a([X, Y]), for a vanishing
        on X; forms flattened.  x holds X's coordinates over Der(A), so
        [X, Y_c] is read off Der(A)'s nonzero structure constants."""
        brackets = [[(t, b) for t, b in enumerate(_bilinear(
            sparse, x, linalg.unit_vector(c, k))) if b] for c in range(k)]

        def apply(v):
            form = _unflatten(v, d, k)
            xform = linalg.mat_mul(X, form)
            return [xform[r][c] - sum(b * form[r][t] for t, b in brackets[c])
                    for r in range(d) for c in range(k)]
        return apply

    # representative independence: L_V of a D-vanishing form is I-valued
    omega_i_span = linalg.Subspace(omega_i, d * k)
    for V in d_i:
        lv = lie_derivative(_unflatten(V, d, d), der_coords(V))
        if not all(omega_i_span.contains(lv(v)) for v in omega_d):
            raise AssertionError(
                "representative independence fails for D_I element")

    gamma_span = linalg.Subspace(inter + gamma_reps, d * k)
    mats = []
    for i in reps:
        lx = lie_derivative(D_ops[i], d_coords[i])
        cols = []
        for v in gamma_reps:
            coords = gamma_span.coords(lx(v))
            if coords is None:
                raise AssertionError("Lie derivative left Omega^1_D")
            cols.append(coords[len(inter):])
        mats.append(_from_columns(cols, len(gamma_reps)))
    return {"integral": integral,
            "gamma_basis": gamma_reps,
            "gamma_dim": len(gamma_reps),
            "omega1_D_dim": len(omega_d),
            "acting_reps": [D_ops[i] for i in reps],
            "matrices": mats,
            "d_I_dim": len(d_i)}

