from fractions import Fraction
from math import comb

import pytest

from pforge import homology
from pforge.homology import (structure_degree, check_structure, monomials,
                             block_basis, block_matrix,
                             poisson_cohomology_dims, canonical_homology_dims,
                             NonHomogeneous, LICHNEROWICZ, CANONICAL)
from pforge.forms import Form, NonInvolutive, delta
from pforge.multivec import (Multivector, lichnerowicz_dp, jacobiator,
                             all_index_tuples, _degree)
from pforge.ratpoly import Poly
from conftest import bivector, rng_for
import reference_routes as ref


def rows_by_key(rows):
    return {(r["grade"], r["weight"]): r for r in rows}


def test_structure_degree():
    assert structure_degree(bivector(2, {(0, 1): "1"})) == 0
    assert structure_degree(
        bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})) == 1
    with pytest.raises(NonHomogeneous):
        structure_degree(bivector(2, {(0, 1): "1 + x0"}))


def test_check_structure_rejects_non_involutive():
    p = bivector(3, {(0, 1): "1", (0, 2): "-x0"})
    with pytest.raises((NonInvolutive, NonHomogeneous)):
        check_structure(p)


def test_a_column_outside_its_block_names_the_key_that_left():
    # X_{x1} = -(1 + x0) d0 for p = (1 + x0) d0^d1: as if p were
    # homogeneous of degree 1, the column of x1 in block (0, 1) must land
    # in degree 1, and its constant term leaves at (d0, x^(0, 0))
    p = bivector(2, {(0, 1): "1 + x0"})
    blocks = homology._Blocks(p, LICHNEROWICZ, 1, homology._table_width(1, 1))
    with pytest.raises(AssertionError, match=r"left the expected \(grade, "
                       r"weight\) block at \(\(0,\), \(0, 0\)\) "
                       r"\(lichnerowicz, k=0, w=1\)"):
        blocks.columns(0, 1)


def test_unpack_key_inverts_the_packed_block_keys():
    n, w = 3, 3
    for grade in range(n + 1):
        high = homology._index_keys(n, grade, w)
        for idx in all_index_tuples(n, grade):
            for e, pe in homology._packed_monomials(n, 2, w):
                assert homology._unpack_key(high[idx] + pe, n, grade,
                                            w) == (idx, e)


def test_monomials():
    assert monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials(3, 0) == [(0, 0, 0)]
    assert monomials(2, -1) == []


def test_block_basis_counts():
    # grade 1 multivectors with linear coefficients on n=3: weight 0
    assert len(block_basis(3, LICHNEROWICZ, 1, 0)) == 9
    # grade 2 forms with degree-0 coefficients: weight 2
    assert len(block_basis(3, CANONICAL, 2, 2)) == 3


def test_block_composite_is_zero():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    # shift = deg - 2 = -1
    from pforge import linalg
    b1 = block_matrix(so3, LICHNEROWICZ, 1, 1)
    b2 = block_matrix(so3, LICHNEROWICZ, 2, 0)
    comp = linalg.mat_mul(b2.matrix, b1.matrix)
    assert all(all(x == 0 for x in row) for row in comp)


def _element_from(n, complex_kind, idx, expts):
    coeff = Poly(n, {expts: 1})
    if complex_kind == LICHNEROWICZ:
        return Multivector(n, len(idx), {idx: coeff})
    return Form(n, len(idx), {idx: coeff})


def _decompose(obj, pos, grade, weight, complex_kind):
    """Sparse column {target row: value}; asserts the image lands in
    the block whose basis positions `pos` gives."""
    col = {}
    for idx, c in obj.terms.items():
        for e, v in c.terms.items():
            key = (idx, e)
            if key not in pos:
                raise AssertionError(
                    "differential left the expected (grade, weight) block "
                    "at %r (%s, k=%d, w=%d)" % (key, complex_kind, grade, weight))
            col[pos[key]] = v
    return col


def oracle_columns(p, complex_kind, grade, weight):
    """Block (grade, weight) by the per-column route: one whole
    `lichnerowicz_dp` or `delta` on each one-term basis element."""
    n = p.n
    if complex_kind == LICHNEROWICZ:
        op, tgrade = lichnerowicz_dp, grade + 1
    else:
        op, tgrade = delta, grade - 1
    target = block_basis(n, complex_kind, tgrade,
                         weight + structure_degree(p) - 2)
    pos = {key: i for i, key in enumerate(target)}
    return [_decompose(op(p, _element_from(n, complex_kind, idx, e)), pos,
                       grade, weight, complex_kind)
            for idx, e in block_basis(n, complex_kind, grade, weight)]


def jacobian_structure(phi):
    """{x_i, x_j} = eps_ijk dphi/dx_k on Q^3: Poisson for every phi."""
    return Multivector(3, 2, {(0, 1): phi.diff(2), (1, 2): phi.diff(0),
                              (0, 2): -phi.diff(1)})


def seeded_phi(seed, degree):
    rng = rng_for(seed)
    return Poly(3, {e: rng.randint(-3, 3) for e in monomials(3, degree)})


STRUCTURES = {
    "so3": (3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"}),
    "sl2": (3, {(0, 1): "2*x1", (0, 2): "-2*x2", (1, 2): "x0"}),
    "symplectic-q4": (4, {(0, 1): "1", (2, 3): "1", (0, 2): "2"}),
    "so3+sl2": (6, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1",
                    (3, 4): "2*x4", (3, 5): "-2*x5", (4, 5): "x3"}),
}


@pytest.mark.parametrize("name", ["so3", "sl2", "jacobian-cubic",
                                  "jacobian-quartic", "zero",
                                  "symplectic-q4", "so3+sl2"])
def test_leibniz_columns_match_the_per_column_route(name):
    if name.startswith("jacobian"):
        degree = 3 if name.endswith("cubic") else 4
        p = jacobian_structure(seeded_phi(degree, degree))
    elif name == "zero":
        p = Multivector(3, 2)
    else:
        p = bivector(*STRUCTURES[name])
    d = check_structure(p)
    max_grade = 2 if name == "so3+sl2" else p.n
    for kind in (LICHNEROWICZ, CANONICAL):
        # one engine for every block, at a width that fits them all, as
        # a dimension table uses
        shared = homology._Blocks(p, kind, d, homology._table_width(
            d, 6 + max_grade + d - 1))
        for k in range(max_grade + 1):
            for w in range(-k, 7):
                want = oracle_columns(p, kind, k, w)
                blk = block_matrix(p, kind, k, w)
                assert blk.columns == want, (name, kind, k, w)
                assert blk.basis == block_basis(p.n, kind, k, w)
                assert shared.columns(k, w) == want, (name, kind, k, w)


def test_so3_blocks_match_the_per_column_route_across_widths(monkeypatch):
    # W = 14 takes the target degree of so(3)'s blocks to 17, so the
    # packing width of a standalone block grows from 2 to 5 bits; one
    # engine at the widest of them, as a dimension table uses, must
    # give every block's columns too
    seen = set()
    real = homology._leibniz_tables

    def recorded(p, kind, grade, w):
        seen.add(w)
        return real(p, kind, grade, w)
    monkeypatch.setattr(homology, "_leibniz_tables", recorded)
    p = bivector(*STRUCTURES["so3"])
    for kind, widths in ((LICHNEROWICZ, {2, 3, 4, 5}),
                         (CANONICAL, {2, 3, 4})):
        seen.clear()
        for k in range(p.n + 1):
            for w in range(-k, 15):
                assert block_matrix(p, kind, k, w).columns == \
                    oracle_columns(p, kind, k, w), (kind, k, w)
        assert seen == widths
        shared = homology._Blocks(p, kind, 1, max(widths))
        for k in range(p.n + 1):
            for w in range(-k, 15):
                assert shared.columns(k, w) == \
                    oracle_columns(p, kind, k, w), (kind, k, w)


def _seeded_bivector(rng, n):
    """A bivector on Q^n whose coefficients mix degrees 0-2, with
    values a/b for b in 1..3, so it is in general neither Poisson nor
    homogeneous, and some of its coefficients are not integral."""
    terms = {}
    for idx in all_index_tuples(n, 2):
        coeff = {}
        for _ in range(rng.randint(0, 3)):
            e = [0] * n
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(n)] += 1
            coeff[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        terms[idx] = Poly(n, {e: c for e, c in coeff.items() if c})
    return Multivector(n, 2, terms)


def _table_cases():
    """The catalog and three seeded bivectors on each of Q^2..Q^5."""
    cases = {name: bivector(*STRUCTURES[name]) for name in STRUCTURES}
    cases.update({
        "aff1": bivector(2, {(0, 1): "x1"}),
        "jacobian": jacobian_structure(seeded_phi(3, 3)),
        "log-canonical": bivector(3, {(0, 1): "x0*x1", (0, 2): "-x0*x2",
                                      (1, 2): "x1*x2"}),
        "zero": Multivector(3, 2),
    })
    rng = rng_for(131)
    for n in range(2, 6):
        for i in range(3):
            cases["seeded-q%d-%d" % (n, i)] = _seeded_bivector(rng, n)
    return cases


TABLE_CASES = _table_cases()


def test_seeded_table_cases_are_neither_poisson_nor_homogeneous():
    seeded = [p for name, p in TABLE_CASES.items()
              if name.startswith("seeded")]
    coeffs = [c for p in seeded for c in p.terms.values()]
    assert sum(not jacobiator(p).is_zero() for p in seeded) >= 8
    assert sum(len({sum(e) for c in p.terms.values() for e in c.terms}) > 1
               for p in seeded) >= 8
    assert any(type(v) is Fraction for c in coeffs for v in c.terms.values())


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_leibniz_tables_match_the_kernel_per_entry_route(name):
    # T_j = X_j ^ e_I and i_{X_j} e_I hold for every bivector, Poisson
    # or not, so each entry equals D(x_j e_I) - x_j D(e_I)
    p = TABLE_CASES[name]
    w = homology._table_width(_degree(p), _degree(p))
    for width in (w, w + 3):
        for kind in (LICHNEROWICZ, CANONICAL):
            for k in range(p.n + 1):
                got = homology._leibniz_tables(p, kind, k, width)
                want = ref.leibniz_tables(p, kind, k, width)
                assert got == want, (name, kind, k, width)


def test_tables_run_the_differential_once_per_index_tuple(monkeypatch):
    calls = []
    for name in ("_schouten", "_delta"):
        def counted(*args, _real=getattr(homology, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(homology, name, counted)
    p = bivector(*STRUCTURES["so3+sl2"])
    for kind, op in ((LICHNEROWICZ, "_schouten"), (CANONICAL, "_delta")):
        for k in range(p.n + 1):
            del calls[:]
            homology._leibniz_tables(p, kind, k, 3)
            assert calls == [op] * comb(p.n, k), (kind, k)


def test_dims_build_each_grade_table_once_at_one_width(so3, monkeypatch):
    built = []
    real = homology._leibniz_tables

    def counted(p, kind, grade, w):
        built.append((grade, w))
        return real(p, kind, grade, w)
    monkeypatch.setattr(homology, "_leibniz_tables", counted)
    # H(so3) (x) Cas(so3): H(so3) has dims 1, 0, 0, 1 and the Casimirs
    # are the powers of x0^2 + x1^2 + x2^2
    rows = poisson_cohomology_dims(so3, 3, 14)
    for r in rows:
        assert r["dim_H"] == _lie_poisson_h({0: 1, 3: 1}, (2,),
                                            r["grade"], r["weight"]), r
    assert sorted(g for g, _ in built) == [0, 1, 2, 3]
    assert {w for _, w in built} == {5}
    del built[:]
    canonical_homology_dims(so3, 3, 14)
    assert sorted(g for g, _ in built) == [0, 1, 2, 3]
    assert len({w for _, w in built}) == 1


@pytest.mark.parametrize("name", ["so3", "symplectic-q4"])
def test_dims_above_the_top_grade_add_zero_rows_and_no_monomials(
        name, monkeypatch):
    # grades past n have no index tuples, so their rows are all zero,
    # and no monomial of their coefficient degrees may be enumerated
    built = []
    real = homology.monomials

    def recorded(n, deg):
        built.append(deg)
        return real(n, deg)
    monkeypatch.setattr(homology, "monomials", recorded)
    p = bivector(*STRUCTURES[name])
    n = p.n
    for dims, weight in ((poisson_cohomology_dims, 2),
                         (canonical_homology_dims, 2 + n + 3)):
        del built[:]
        top = dims(p, n, weight)
        top_built = set(built)
        del built[:]
        above = dims(p, n + 3, weight)
        assert above[:len(top)] == top, name
        extra = above[len(top):]
        assert {r["grade"] for r in extra} == {n + 1, n + 2, n + 3}, name
        for r in extra:
            assert r == {"grade": r["grade"], "weight": r["weight"],
                         "dim_C": 0, "rank_in": 0, "rank_out": 0,
                         "dim_H": 0}, (name, r)
        assert set(built) == top_built, name
    del built[:]
    for kind in (LICHNEROWICZ, CANONICAL):
        for k in (-1, n + 1):
            assert block_basis(n, kind, k, 0) == []
    assert not built


def test_dims_check_jacobi_once_and_assemble_each_block_once(so3,
                                                            monkeypatch):
    jacobiators, blocks = [], []
    real_jacobiator = homology.jacobiator
    real_columns = homology._Blocks.columns

    def counted_jacobiator(p):
        jacobiators.append(p)
        return real_jacobiator(p)

    def counted_columns(self, grade, weight, skip=()):
        blocks.append((grade, weight))
        return real_columns(self, grade, weight, skip)

    monkeypatch.setattr(homology, "jacobiator", counted_jacobiator)
    monkeypatch.setattr(homology._Blocks, "columns", counted_columns)
    # so(3) is linear: each differential shifts the weight by -1, so
    # rank_in comes from the neighbouring grade at weight w + 1
    for dims, step in ((poisson_cohomology_dims, -1),
                       (canonical_homology_dims, 1)):
        del jacobiators[:], blocks[:]
        want = set()
        for r in dims(so3, 3, 3):
            k, w = r["grade"], r["weight"]
            want.add((k, w))
            if k + step >= 0:
                want.add((k + step, w + 1))
        assert len(jacobiators) == 1
        assert sorted(blocks) == sorted(want)


def test_jacobi_is_checked_by_the_dims_not_by_block_matrix():
    linear = bivector(3, {(0, 1): "x0", (1, 2): "x1"})
    blk = block_matrix(linear, LICHNEROWICZ, 1, 1)
    assert len(blk.columns) == len(blk.basis) == 18
    for dims in (poisson_cohomology_dims, canonical_homology_dims):
        with pytest.raises(NonInvolutive):
            dims(linear, 1, 1)
    with pytest.raises(NonHomogeneous):
        block_matrix(bivector(2, {(0, 1): "1 + x0"}), LICHNEROWICZ, 0, 0)


def _lie_poisson_h(h_g, casimir_degrees, grade, weight):
    """dim H^grade(weight) of a semisimple Lie-Poisson structure from
    H(g) (x) Cas(g): a class of H^k(g) times a Casimir of degree m sits
    at grade k and weight m - k."""
    m = weight + grade
    if m < 0:
        return 0
    cas = [1] + [0] * m
    for deg in casimir_degrees:
        for i in range(deg, m + 1):
            cas[i] += cas[i - deg]
    return h_g.get(grade, 0) * cas[m]


def test_so3_plus_so3_against_lie_algebra_cohomology():
    so3 = {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"}
    so3_b = {(3, 4): "x5", (4, 5): "x3", (3, 5): "-x4"}
    p = bivector(6, {**so3, **so3_b})
    # H(so3) has dims 1, 0, 0, 1, so H(so3 + so3) = H(so3) (x) H(so3)
    h_g = {0: 1, 3: 2, 6: 1}
    rows = rows_by_key(poisson_cohomology_dims(p, 2, 1))
    assert rows[(2, 1)]["rank_out"] == 560
    assert rows[(2, 1)]["dim_C"] == 840
    for (k, w), r in rows.items():
        assert r["dim_H"] == _lie_poisson_h(h_g, (2, 2), k, w), r
    assert [key for key, r in rows.items() if r["dim_H"]] == [(0, 0)]


PLANE_LICH_H = {(0, 0): 1}
SO3_H0 = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_plane_poisson_cohomology():
    plane = bivector(2, {(0, 1): "1"})
    rows = poisson_cohomology_dims(plane, 2, 4)
    for r in rows:
        want = PLANE_LICH_H.get((r["grade"], r["weight"]), 0)
        assert r["dim_H"] == want, r


def test_so3_h0_by_weight():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rows = rows_by_key(poisson_cohomology_dims(so3, 0, 4))
    got = {w: rows[(0, w)]["dim_H"] for w in range(5)}
    assert got == SO3_H0


def test_plane_canonical_homology():
    plane = bivector(2, {(0, 1): "1"})
    rows = canonical_homology_dims(plane, 2, 4)
    for r in rows:
        want = 1 if (r["grade"], r["weight"]) == (2, 2) else 0
        assert r["dim_H"] == want, r


SO3_CANONICAL = {
    (0, 0): (1, 0, 0, 1), (0, 1): (3, 3, 0, 0), (0, 2): (6, 5, 0, 1),
    (0, 3): (10, 10, 0, 0),
    (1, 1): (3, 3, 0, 0), (1, 2): (9, 6, 3, 0), (1, 3): (18, 13, 5, 0),
    (2, 2): (3, 0, 3, 0), (2, 3): (9, 3, 6, 0),
}


def test_so3_canonical_homology_table():
    so3 = bivector(3, {(0, 1): "x2", (1, 2): "x0", (0, 2): "-x1"})
    rows = canonical_homology_dims(so3, 2, 3)
    got = {(r["grade"], r["weight"]):
           (r["dim_C"], r["rank_in"], r["rank_out"], r["dim_H"])
           for r in rows}
    assert got == SO3_CANONICAL


def test_euler_characteristic_along_weight_orbits():
    # the differential moves weight by deg - 2, so the alternating sum
    # telescopes along orbits (k, w0 + k * (deg - 2)), not at fixed weight
    for p, wmax in [(bivector(2, {(0, 1): "1"}), 4),
                    (bivector(3, {(0, 1): "x2", (1, 2): "x0",
                                  (0, 2): "-x1"}), 3)]:
        deg = structure_degree(p)
        step = deg - 2
        rows = rows_by_key(poisson_cohomology_dims(p, p.n, wmax))
        for w0 in range(0, wmax + 1):
            cs = hs = 0
            complete = True
            for k in range(p.n + 1):
                key = (k, w0 + k * step)
                if key not in rows:
                    complete = False
                    break
                cs += (-1) ** k * rows[key]["dim_C"]
                hs += (-1) ** k * rows[key]["dim_H"]
            if complete:
                assert cs == hs, (w0, cs, hs)


def _duality_mismatches(p, max_weight):
    """(pairs compared, pairs that differ) for unimodular duality
    H^k(w) = H_{n-k}(w+n), over every grade and weights up to
    max_weight on the Lichnerowicz side."""
    n = p.n
    lich = rows_by_key(poisson_cohomology_dims(p, n, max_weight))
    can = rows_by_key(canonical_homology_dims(p, n, max_weight + n))
    pairs = [(k, w) for k, w in lich if (n - k, w + n) in can]
    return len(pairs), sum(1 for k, w in pairs if lich[k, w]["dim_H"]
                           != can[n - k, w + n]["dim_H"])


@pytest.mark.parametrize("name", ["so3", "sl2", "jacobian-cubic"])
def test_unimodular_structures_satisfy_duality(name):
    # a unimodular Poisson structure on Q^n (zero modular class against
    # dx_0 ^ ... ^ dx_{n-1}) has H^k(w) = H_{n-k}(w+n) on every block
    if name == "jacobian-cubic":
        p = jacobian_structure(seeded_phi(3, 3))
    else:
        p = bivector(*STRUCTURES[name])
    assert _duality_mismatches(p, 4) == (26, 0)


def test_duality_fails_on_aff1():
    # {x0, x1} = x1 is not unimodular: its modular field is a nonzero
    # multiple of d/dx0
    assert _duality_mismatches(bivector(2, {(0, 1): "x1"}), 4) == (18, 13)
