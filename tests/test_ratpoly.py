from fractions import Fraction

import pytest

from pforge.ratpoly import (Poly, parse_poly, format_poly, PolyParseError,
                            DimensionMismatch)
import reference_routes as ref
from conftest import rng_for


def test_parse_print_round_trip():
    for text in ["0", "1", "-3/2", "x0", "x1^3", "x0*x1 + 1",
                 "x0^2 - 2*x0*x1 + x1^2", "1/2*x2 - x0^4"]:
        p = parse_poly(text, 3)
        assert parse_poly(str(p), 3) == p


def test_canonical_string_is_graded_lex():
    p = parse_poly("x1 + x0^2 + 1 + x0*x1", 2)
    assert str(p) == "1 + x1 + x0^2 + x0*x1"


def test_arithmetic():
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p == x0 * x0 - x1 * x1
    assert (p - p).is_zero()
    assert (-p + p).is_zero()
    assert p.degree() == 2


def test_diff_and_eval():
    p = parse_poly("x0^3*x1 + 2*x1", 2)
    assert str(p.diff(0)) == "3*x0^2*x1"
    assert str(p.diff(1)) == "2 + x0^3"
    assert p.eval([Fraction(1), Fraction(2)]) == Fraction(6)


def test_integral_products_of_fractions_are_ints():
    half = Poly.const(2, Fraction(1, 2))
    p = parse_poly("1/2*x0 + 3/4*x1^2 + 1/3", 2)
    results = [(half * 2).terms, (2 * half).terms,
               (half * Poly.const(2, 2)).terms,
               (p * Poly.const(2, 12)).terms, (p * 12).terms,
               (p * p * 144).terms, p.diff(1).diff(1).terms]
    assert results[0] == {(0, 0): 1}
    assert results[3] == {(1, 0): 6, (0, 2): 9, (0, 0): 4}
    assert results[6] == {(0, 0): Fraction(3, 2)}
    for terms in results:
        for c in terms.values():
            assert type(c) is int or c.denominator != 1, (terms, c)
    # the all-int path stays int
    q = parse_poly("2*x0 - x1 + 3", 2)
    assert all(type(c) is int for c in (q * q * 5).terms.values())


def test_integral_sums_of_fractions_are_ints():
    half = Poly.const(2, Fraction(1, 2))
    p = parse_poly("1/2*x0 + 1/3*x1 - 5/2", 2)
    q = parse_poly("1/2*x0 + 2/3*x1 + 1/2", 2)
    assert (half + half).terms == {(0, 0): 1}
    assert (half - (-half)).terms == {(0, 0): 1}
    assert (p + q).terms == {(1, 0): 1, (0, 1): 1, (0, 0): -2}
    for terms in ((half + half).terms, (p + q).terms, (p - q).terms):
        for c in terms.values():
            assert type(c) is int or c.denominator != 1, (terms, c)


def test_hash_agrees_with_equality():
    # a constant Poly equals its value, so it must hash like it
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-5, 3)):
        c = Poly.const(2, value)
        assert c == value
        assert value in {c} and c in {value}
        assert {c: "poly"}[value] == "poly" and {value: "num"}[c] == "num"
    for text in ("0", "2", "x0", "x0*x1 + 1", "1/2*x1^2 - 3"):
        a, b = parse_poly(text, 2), parse_poly(text, 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a in {b} and {a: text}[b] == text
    assert parse_poly("x0 + 1", 2) not in {1, parse_poly("x0", 2)}


def test_homogeneous_flag():
    assert parse_poly("x0^2 + x1^2", 2).is_homogeneous()
    assert not parse_poly("x0^2 + x1", 2).is_homogeneous()


def test_parse_errors():
    for bad in ["x0 +", "x9", "x0^", "1//2", "(x0", "y"]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, 2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_poly("x0", 1) + parse_poly("x0", 2)


def test_parse_of_thousands_of_terms_round_trips():
    # 14^3 = 2744 terms with non-integral coefficients; parse is linear
    terms = {(a, b, c): Fraction((a + 2 * b + 3 * c) % 11 - 5, 1 + a % 4)
             for a in range(14) for b in range(14) for c in range(14)}
    p = Poly(3, terms)
    assert len(p.terms) == len([c for c in terms.values() if c])
    text = str(p)
    q = parse_poly(text, 3)
    assert q == p and str(q) == text


def test_parse_sums_repeated_monomials():
    p = parse_poly("1/2*x0 + 1/2*x0 - x1 + x1 + 3", 2)
    assert p.terms == {(1, 0): 1, (0, 0): 3}
    assert type(p.terms[(1, 0)]) is int


def test_zero_denominator_is_a_parse_error():
    with pytest.raises(PolyParseError):
        parse_poly("1/0*x0", 2)


@pytest.mark.parametrize("coeff", [0.1, 0.5, 2.0, "1/2", None, 1j])
def test_non_exact_coefficients_are_rejected(coeff):
    with pytest.raises(TypeError):
        Poly(1, {(1,): coeff})
    with pytest.raises(TypeError):
        Poly.const(2, coeff)


def test_monomial_length_is_checked_before_zero_is_dropped():
    with pytest.raises(DimensionMismatch):
        Poly(2, {(0, 0, 0): 0})
    with pytest.raises(DimensionMismatch):
        Poly(2, {(1,): Fraction(0)})


def test_foreign_operands():
    p = Poly.var(2, 0)
    assert (Poly(2) == "x") is False
    assert (p == 1.5) is False and p != "x0"
    assert Poly.const(2, 3) == 3 and Poly.const(2, Fraction(1, 2)) == Fraction(1, 2)
    for bad in ("x", 1.5, None):
        with pytest.raises(TypeError):
            p + bad
        with pytest.raises(TypeError):
            p - bad
        with pytest.raises(TypeError):
            p * bad
        with pytest.raises(TypeError):
            bad * p


@pytest.mark.parametrize("expts", [(2.5,), (-1,), (True,), ("1",)])
def test_exponents_must_be_nonnegative_ints(expts):
    with pytest.raises(ValueError):
        Poly(1, {expts: 1})


def test_var_power_must_be_a_nonnegative_int():
    assert Poly.var(2, 1, 3) == parse_poly("x1^3", 2)
    for power in (-1, 0.5):
        with pytest.raises(ValueError):
            Poly.var(2, 1, power)


# -- the one-regex parser and the built-in-sorted printer against the
#    chunk-by-chunk oracles of reference_routes --------------------------

_ALPHABET = "x0123456789^*/+- \t\n−"


def _random_term(rng):
    s = rng.choice(["", "+", "-", "−"])
    r = rng.random()
    if r < 0.5:
        s += str(rng.randint(0, 12))
        if r < 0.2:
            s += "/" + str(rng.randint(0, 5))
        if rng.random() < 0.5:
            s += "*"
    for _ in range(rng.randint(0, 3)):
        s += "x%d" % rng.randint(0, 9)
        if rng.random() < 0.3:
            s += "^%d" % rng.randint(0, 4)
        if rng.random() < 0.4:
            s += "*"
    return s


def _random_text(rng):
    """Mostly near-grammatical text: signed terms with a few random
    edits; else any string over the grammar's alphabet."""
    if rng.random() < 0.3:
        return "".join(rng.choice(_ALPHABET)
                       for _ in range(rng.randint(0, 10)))
    s = "".join(_random_term(rng) + rng.choice(["", " ", "+", " + ", " - "])
                for _ in range(rng.randint(1, 4)))
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randint(0, len(s))
        op = rng.random()
        if op < 0.4:
            s = s[:i] + rng.choice(_ALPHABET + "y(٣") + s[i:]
        elif op < 0.7:
            s = s[:i] + s[i + 1:]
        else:
            s = s[:i] + rng.choice(_ALPHABET) + s[i + 1:]
    return s


def _outcome(parse, text, n):
    """("ok", terms with their coefficient types) or (exception type,
    message)."""
    try:
        p = parse(text, n)
    except Exception as exc:
        return type(exc), str(exc)
    return "ok", p.n, {e: (c, type(c)) for e, c in p.terms.items()}


def test_parser_matches_the_chunk_parser_on_random_strings():
    rng = rng_for(1212)
    cases = ["x0*2", "2*", "x0x1", "+-", "1/0", "1/0*x0 + x9", "x9 + 1/0",
             "x0 +", "*", "*x0", "x0**x1", "2**x0", "x0\n", "x0\n+1",
             "x0\n\n", "4/2*x1 - 1/2 - 3/2", "-x0 + x0", "007*x001^02",
             "٣*x١", "", " \t", "1//2", "(x0", "y", "x0^"]
    # a number past int's digit limit raises before a later bad term
    big = "9" * 4400
    cases += [big + "+*", "1/" + big + "+*", "x0^" + big + "+*",
              "x" + big + "+*", "1/0+" + big]
    texts = [(t, n) for t in cases for n in (-1, 0, 1, 2, 8)]
    texts += [(_random_text(rng), rng.randint(0, 8)) for _ in range(100000)]
    # each text is parsed alone and again through one monomial memo
    # that every text at its n shares
    memos = {}
    kinds = set()
    for text, n in texts:
        want = _outcome(ref.parse_poly, text, n)
        assert _outcome(parse_poly, text, n) == want, (text, n)
        memo = memos.setdefault(n, {})
        assert _outcome(lambda t, n: parse_poly(t, n, memo), text, n) == \
            want, (text, n)
        kinds.add(want[0] if want[0] == "ok" else want[1].split()[0])
    assert {"ok", "malformed", "zero", "variable", "empty",
            "monomial"} <= kinds


def _random_poly(n, rng):
    terms = {}
    for _ in range(rng.randint(0, 12)):
        e = tuple(rng.choice([0, 0, 1, 2, 3, 11]) for _ in range(n))
        if rng.random() < 0.2:
            e = (0,) * n
        c = rng.choice([rng.randint(-3, 3), rng.randint(-10**20, 10**20),
                        Fraction(rng.randint(-7, 7), rng.randint(1, 6))])
        terms[e] = c
    return Poly(n, terms)


def test_printer_matches_the_key_sorted_printer():
    rng = rng_for(1213)
    for n in range(1, 9):
        names = {}
        for _ in range(400):
            p = _random_poly(n, rng)
            want = ref.poly_str(p)
            assert str(p) == want == format_poly(p, names), p.terms
            assert parse_poly(want, n) == p
    assert str(Poly.const(3, Fraction(-1, 2))) == "-1/2"
    assert str(Poly(0, {(): 5})) == "5" and str(Poly.zero(2)) == "0"
