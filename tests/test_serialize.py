from fractions import Fraction

import pytest

from pforge import cli, serialize
from pforge.serialize import InputError
from pforge.ratpoly import parse_poly
import reference_routes
from conftest import (bivector, random_form, random_multivector, random_poly,
                      rng_for)
from test_golden import JOBS, WIRE_JOBS


def test_multivector_round_trip():
    rng = rng_for(51)
    for _ in range(15):
        n = rng.randint(1, 3)
        u = random_multivector(n, rng.randint(0, n), rng)
        j = serialize.multivector_to_json(u)
        assert serialize.multivector_from_json(j) == u


def test_form_round_trip():
    rng = rng_for(52)
    for _ in range(15):
        n = rng.randint(1, 3)
        a = random_form(n, rng.randint(0, n), rng)
        j = serialize.form_to_json(a)
        assert j["kind"] == "form"
        assert serialize.form_from_json(j) == a


def test_unsorted_idx_folds_sign():
    u = serialize.multivector_from_json(
        {"n": 2, "grade": 2, "terms": [{"idx": [1, 0], "coeff": "x0"}]})
    assert str(u.terms[(0, 1)]) == "-x0"
    # a repeated index tuple adds its signed coefficient to the first
    u = serialize.multivector_from_json(
        {"n": 2, "grade": 2, "terms": [{"idx": [1, 0], "coeff": "x0"},
                                       {"idx": [0, 1], "coeff": "x1"},
                                       {"idx": [1, 0], "coeff": "1/2"}]})
    assert str(u.terms[(0, 1)]) == "-1/2 - x0 + x1"


def test_repeated_idx_is_dropped():
    u = serialize.multivector_from_json(
        {"n": 2, "grade": 2, "terms": [{"idx": [1, 1], "coeff": "x0"}]})
    assert u.is_zero()


def test_kind_discrimination():
    with pytest.raises(InputError):
        serialize.form_from_json({"n": 2, "grade": 1,
                                  "terms": [{"idx": [0], "coeff": "1"}]})
    with pytest.raises(InputError):
        serialize.multivector_from_json(
            {"kind": "form", "n": 2, "grade": 1, "terms": []})


def test_header_validation():
    for bad in [{"n": -1, "grade": 0, "terms": []},
                {"n": 2, "grade": "x", "terms": []},
                {"n": 2, "grade": 0, "terms": [], "extra": 1},
                []]:
        with pytest.raises(InputError):
            serialize.multivector_from_json(bad)


def test_term_validation():
    with pytest.raises(InputError):
        serialize.multivector_from_json(
            {"n": 2, "grade": 1, "terms": [{"idx": [0, 1], "coeff": "1"}]})
    with pytest.raises(InputError):
        serialize.multivector_from_json(
            {"n": 2, "grade": 1, "terms": [{"idx": [0], "coeff": "x0 +"}]})


def test_point_and_fraction_parsing():
    assert serialize.point_from_text("1, -2, 1/3", 3) == \
        [Fraction(1), Fraction(-2), Fraction(1, 3)]
    with pytest.raises(InputError):
        serialize.point_from_text("1, 2", 3)
    with pytest.raises(InputError):
        serialize.fraction_from_json("a/b")


def test_dump_is_canonical():
    u = bivector(2, {(0, 1): "x0"})
    payload = {"p": u, "c": Fraction(1, 2)}
    text = serialize.dump(payload)
    assert text == serialize.dump(payload)
    assert text.endswith("\n")
    assert '"c": "1/2"' in text


class _Dict(dict):
    pass


class _List(list):
    pass


_STRINGS = ["", "x", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f",
            "\u00e9t\u00e9", "\u2203 \U0001d53c", "\x7f\ud800"]


def _random_tree(rng, depth):
    """A tree of the values a result may hold, with every container
    kind among its inner nodes while depth lasts."""
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice([True, False, None, 0, -1, 7, 10 ** 30,
                           Fraction(-3, 4), Fraction(5), Fraction(0),
                           Fraction(1, 10 ** 20)] + _STRINGS)
    if kind == 1:
        n = rng.randint(1, 3)
        return rng.choice([random_poly(n, rng), random_multivector(
            n, rng.randint(0, n), rng), random_form(n, rng.randint(0, n), rng)])
    if kind == 2:
        return rng.choice([[], (), {}, _List(), _Dict()])
    items = [_random_tree(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    if kind == 3:
        return rng.choice([list, tuple, _List])(items)
    # an int key and its text may meet, and str(k) keeps the last value
    keys = [rng.choice([rng.randint(-2, 3), str(rng.randint(-2, 3))]
                       + _STRINGS) for _ in items]
    return rng.choice([dict, _Dict])(zip(keys, items))


def _captured_payloads(monkeypatch):
    """The raw payload that every golden job hands to the printer."""
    payloads = []

    def capture(args, payload):
        payloads.append(payload)
        return 0

    monkeypatch.setattr(cli, "_emit", capture)
    monkeypatch.setattr(cli, "_error", lambda args, kind, message, code:
                        capture(args, {"error": {"kind": kind,
                                                 "message": str(message)}}))
    for argv in [job[0] for job in list(JOBS.values())
                 + list(WIRE_JOBS.values())]:
        cli.main(argv)
    return payloads


def test_writer_matches_the_reference_route(monkeypatch):
    # the one-pass writer against str_fractions + json.dumps, in both
    # layouts, byte for byte
    payloads = _captured_payloads(monkeypatch)
    assert len(payloads) == len(JOBS) + len(WIRE_JOBS)
    rng = rng_for(57)
    payloads += [_random_tree(rng, 4) for _ in range(300)]
    for x in payloads:
        assert serialize.dump(x) == reference_routes.dump(x)
        lines = x if isinstance(x, dict) else {"tree": x, 0: [x]}
        assert serialize.dump_lines(lines) == \
            reference_routes.dump_lines(lines)


def test_algebra_parsers():
    obj = {"dim": 2,
           "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
           "unit": [1, 0]}
    A = serialize.algebra_from_json(obj)
    assert A.dim == 2
    B = cli._oracle_algebra(obj)
    assert B.dim == 2
    with pytest.raises(InputError):
        serialize.algebra_from_json({"dim": 2})
    g = serialize.liealg_from_json(
        {"dim": 1, "c": [[[0]]]})
    assert g.dim == 1


def _fraction_only(x):
    """The Fraction-only parser: Fraction(str(x)), or None for the
    bad-input error."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        return None


@pytest.mark.parametrize("x", [
    "1_0", " 3 ", "+1", "١", "2/1", "1.0", "--1", True, None, False,
    "-0", "007", "1e2", "0x10", "٣/٤", "3/-4", "1/0", "", "-",
    7, -12, 2.5, "12345678901234567890", "1" * 5000, "-1/2", " -6/4 "],
    ids=lambda x: ascii(x)[:24])
def test_fraction_from_json_agrees_with_fraction(x):
    # the int fast path takes ASCII digits only, so every input parses
    # to the value Fraction gives it on this Python, or fails as it does
    want = _fraction_only(x)
    if want is None:
        with pytest.raises(InputError, match="bad rational number"):
            serialize.fraction_from_json(x)
        return
    got = serialize.fraction_from_json(x)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_decimal_exponents_are_read_up_to_the_bound():
    bound = serialize.EXPONENT_BOUND
    assert serialize.fraction_from_json("1e%d" % bound) == 10 ** bound
    assert serialize.fraction_from_json("-25E-%d" % bound) == \
        Fraction(-25, 10 ** bound)
    for text in ("1e%d" % (bound + 1), "2.5E-%d" % (bound + 1),
                 "1e1_001"):
        with pytest.raises(InputError, match="exponent"):
            serialize.fraction_from_json(text)
