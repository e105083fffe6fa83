"""JSON wire formats and canonical printing.

Multivectors and forms travel as

    {"n": 3, "grade": 2, "terms": [{"idx": [0, 1], "coeff": "x2"}]}

with forms additionally tagged "kind": "form".  Coefficients are
polynomial grammar strings; index tuples may arrive unsorted, in which
case the permutation sign is folded into the coefficient.  Printing is
canonical (sorted index tuples, graded-lex term order inside each
coefficient), so parse/print round-trips are exact and byte-stable.
"""

import json
import re
from fractions import Fraction

from .linalg import exact
from .ratpoly import Poly, parse_poly, format_poly, PolyParseError
from .multivec import Multivector, GradeMismatch, sort_sign
from .forms import Form


class InputError(ValueError):
    """Malformed wire data (shape, types, unknown fields)."""


def _terms_from_json(obj, n, grade):
    terms = {}
    monomials = {}  # factor texts, shared by the element's coefficients
    for entry in obj.get("terms", []):
        if not isinstance(entry, dict) or \
                set(entry) - {"idx", "coeff"}:
            raise InputError("term entries need exactly idx and coeff")
        idx = entry.get("idx", [])
        if not isinstance(idx, list) or \
                not all(type(i) is int for i in idx):
            raise InputError("idx must be a list of integers")
        if len(idx) != grade:
            raise InputError("idx %r does not match grade %d" % (idx, grade))
        try:
            coeff = parse_poly(str(entry.get("coeff", "0")), n, monomials)
        except PolyParseError as exc:
            raise InputError("bad coefficient: %s" % exc)
        sign, key = sort_sign(idx)
        if not sign:
            continue
        coeff = coeff if sign > 0 else -coeff
        old = terms.get(key)
        terms[key] = coeff if old is None else old + coeff
    return terms


def _check_header(obj):
    if not isinstance(obj, dict):
        raise InputError("expected a JSON object")
    extra = set(obj) - {"n", "grade", "terms", "kind"}
    if extra:
        raise InputError("unknown fields: %s" % ", ".join(sorted(extra)))
    n, grade = obj.get("n"), obj.get("grade")
    # type(x) is int, since true and false are bools, and bool is an int
    if type(n) is not int or n < 0:
        raise InputError("n must be a nonnegative integer")
    if type(grade) is not int or grade < 0:
        raise InputError("grade must be a nonnegative integer")
    return n, grade


def _graded_from_json(obj, cls):
    n, grade = _check_header(obj)
    kind = obj.get("kind", "multivector")
    if cls is Form and kind != "form":
        raise InputError('forms require "kind": "form"')
    if cls is Multivector and kind != "multivector":
        raise InputError("expected a multivector, got %r" % kind)
    try:
        return cls(n, grade, _terms_from_json(obj, n, grade))
    except (GradeMismatch, IndexError, ValueError) as exc:
        raise InputError(str(exc))


def multivector_from_json(obj):
    return _graded_from_json(obj, Multivector)


def form_from_json(obj):
    return _graded_from_json(obj, Form)


def multivector_to_json(u):
    names = {}      # monomial texts, shared by u's coefficients
    return {"n": u.n, "grade": u.grade,
            "terms": [{"idx": list(idx), "coeff": format_poly(c, names)}
                      for idx, c in u.sorted_terms()]}


def form_to_json(a):
    return dict({"kind": "form"}, **multivector_to_json(a))


_INTEGER = re.compile("-?[0-9]+")
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
EXPONENT_BOUND = 1000


def fraction_from_json(x):
    """A JSON number or numeric string as an exact value: an int when
    integral, else a Fraction.  Exactly the text that `Fraction` takes
    is accepted, up to a decimal exponent e of +-EXPONENT_BOUND (it
    builds the integer 10^|e|); plain ASCII digits skip it, since `int`
    alone would also take forms such as "1_0" that `Fraction` rejects on
    some Pythons."""
    try:
        text = str(x)
        if _INTEGER.fullmatch(text):
            return int(text)
        exponent = _EXPONENT.search(text)
        if not exponent or abs(int(exponent[1])) <= EXPONENT_BOUND:
            return exact(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise InputError("bad rational number %r" % (x,))
    raise InputError("exponent of %r beyond +-%d" % (x, EXPONENT_BOUND))


def _numbers(xs, memo):
    """[fraction_from_json(x) for x in xs], reading each distinct str(x)
    once per memo: the value depends on that text alone, and a text
    enters the memo only once read without error, so a bad entry fails
    where and as it would if every entry were read."""
    return [memo[t] if (t := str(x)) in memo
            else memo.setdefault(t, fraction_from_json(x)) for x in xs]


def matrix_from_json(rows, what="matrix"):
    if not isinstance(rows, list) or \
            not all(isinstance(r, list) for r in rows):
        raise InputError("%s must be a list of rows" % what)
    memo = {}
    return [_numbers(r, memo) for r in rows]


def _structure_constants(obj, fields, message, key):
    """(dim, table) of a structure-constant object whose fields are
    among `fields`; obj[key] must be a dim x dim table of vectors."""
    if not isinstance(obj, dict) or set(obj) - fields:
        raise InputError(message)
    dim = obj.get("dim")
    if type(dim) is not int or dim < 0:
        raise InputError("dim must be a nonnegative integer")
    try:
        table = [[obj[key][i][j] for j in range(dim)] for i in range(dim)]
        # a string indexes and iterates too, so each vector must be a list
        if not all(isinstance(vec, list) for row in table for vec in row):
            raise TypeError
    except (TypeError, IndexError, KeyError):
        raise InputError("%s must be a dim x dim table of vectors" % key)
    memo = {}
    return dim, [[_numbers(vec, memo) for vec in row] for row in table]


def algebra_from_json(obj):
    from .ncalg import AlgebraSC
    dim, table = _structure_constants(
        obj, {"dim", "mult", "unit"},
        "algebra needs dim, mult and optional unit", "mult")
    unit = obj.get("unit")
    if unit is not None:
        if not isinstance(unit, list):
            raise InputError("unit must be a list of numbers")
        unit = [fraction_from_json(x) for x in unit]
    return AlgebraSC(dim, table, unit)


def liealg_from_json(obj):
    from .ncalg import LieAlgebraSC
    return LieAlgebraSC(*_structure_constants(
        obj, {"dim", "c"}, "lie algebra needs dim and c", "c"))


def point_from_text(text, n):
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != n:
        raise InputError("point needs %d coordinates" % n)
    return [fraction_from_json(p.strip()) for p in parts]


def polys_from_json(items, n):
    if not isinstance(items, list):
        raise InputError("expected a list of polynomial strings")
    out, monomials = [], {}
    for s in items:
        try:
            out.append(parse_poly(str(s), n, monomials))
        except PolyParseError as exc:
            raise InputError("bad polynomial %r: %s" % (s, exc))
    return out


_ESCAPE = json.encoder.encode_basestring_ascii


def _text(x, nl, entry='"%d"'):
    """The JSON text of x.  A Fraction prints as a string, and so does
    an int that is a list or tuple entry (by `entry`: "%d" in the wire
    form of a graded element, whose idx entries are numbers); an int or
    bool that is a dict value stays a number.  Keys are str(k), sorted.
    nl is a newline and the current indentation, or "" for one line."""
    inner = nl and nl + "  "
    sep = "," + inner if nl else ", "
    if isinstance(x, (list, tuple)):
        items = [entry % v if type(v) is int else _text(v, inner, entry)
                 for v in x]
        return "[" + inner + sep.join(items) + nl + "]" if items else "[]"
    if isinstance(x, dict):
        items = [_ESCAPE(k) + ": " + _text(v, inner, entry) for k, v in
                 sorted({str(k): v for k, v in x.items()}.items())]
        return "{" + inner + sep.join(items) + nl + "}" if items else "{}"
    if isinstance(x, Fraction):
        return '"%s"' % x
    if isinstance(x, str):
        return _ESCAPE(x)
    if type(x) is int:
        return str(x)
    if isinstance(x, Poly):
        return _ESCAPE(str(x))
    if isinstance(x, (Multivector, Form)):
        wire = form_to_json if isinstance(x, Form) else multivector_to_json
        return _text(wire(x), nl, "%d")
    return json.dumps(x)


def dump(obj):
    """Canonical JSON text of a result, indented by two spaces."""
    return _text(obj, "\n") + "\n"


def dump_lines(payload):
    """One `key: value` line per key of a result dict, sorted, each
    value on one line."""
    return "".join("%s: %s\n" % (k, _text(v, "")) for k, v in
                   sorted({str(k): v for k, v in payload.items()}.items()))
