"""Batch command-line front end.

One job per invocation: parse inputs, call the library, print a
deterministic report.  Exit codes: 0 success, 1 malformed input,
2 violated mathematical precondition (with a machine-readable kind),
3 internal error (a failed self-check of the library).
"""

import argparse
import json
import os
import sys
from decimal import Decimal
from functools import cache

from . import forms, multivec, serialize
from .serialize import InputError, dump, dump_lines
from .ratpoly import parse_poly, PolyParseError, DimensionMismatch
from .multivec import jacobiator, GradeMismatch
from .forms import NonInvolutive
from .symplectic import (SymplecticContext, DegenerateBivector, OddDimension,
                         NotConstantCoefficient)
from .homology import (poisson_cohomology_dims, canonical_homology_dims,
                       NonHomogeneous)
from .analysis import (rank_at, integrability_at, is_casimir, casimir_basis,
                       momentum_cocycle, ideal_check)
from .superalg import (super_axiom_report, koszul_check, standard_algebra,
                       NonInvolutiveElement)
from .ncalg import (validate_algebra, derivations, submanifold_check,
                    quotient_check, bott_quotient, bott_forms, bott_integral,
                    BadAlgebra, BadLieAlgebra, NotAnIdeal, NotASubalgebra)

# (exception, kind, exit code), in the order an error is matched
_ERRORS = [
    (InputError, "bad-input", 1),
    (PolyParseError, "parse-error", 1),
    (DimensionMismatch, "dimension-mismatch", 1),
    (GradeMismatch, "grade-mismatch", 1),
    (OSError, "io-error", 1),
    (DegenerateBivector, "degenerate-bivector", 2),
    (OddDimension, "odd-dimension", 2),
    (NotConstantCoefficient, "non-constant-coefficient", 2),
    (NonInvolutive, "non-involutive", 2),
    (NonInvolutiveElement, "non-involutive", 2),
    (NonHomogeneous, "non-homogeneous", 2),
    (NotAnIdeal, "not-an-ideal", 2),
    (NotASubalgebra, "not-a-subalgebra", 2),
    (BadAlgebra, "bad-algebra", 2),
    (BadLieAlgebra, "bad-lie-algebra", 2),
    # a self-check of the library failed: a bug, not a bad input
    (AssertionError, "internal-error", 3),
]

# the commands that apply one operator to fields of the input object:
# (module, operator name, [(field, kind)] in the operator's argument
# order); the operator is looked up when the job runs, as a handler is
_OPERATORS = {
    "schouten": (multivec, "schouten", [("u", "multivector"),
                                        ("v", "multivector")]),
    "dp": (multivec, "lichnerowicz_dp", [("p", "bivector"),
                                         ("u", "multivector")]),
    "delta": (forms, "delta", [("p", "bivector"), ("form", "form")]),
    "bracket": (forms, "form_bracket", [("p", "bivector"), ("a", "form"),
                                        ("b", "form")]),
}


def _load_json(source, what="input"):
    """Inline JSON text or a path to a JSON file; a JSON number with a
    fraction or an exponent is the exact `Decimal` of its text."""
    if source is None:
        raise InputError("missing %s" % what)
    text = source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (what, exc))


def _bivector(obj):
    p = serialize.multivector_from_json(obj)
    if p.grade != 2:
        raise InputError("expected a bivector (grade 2), got grade %d"
                         % p.grade)
    return p


def _need(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError("input object needs field %r (%s)" % (key, what))
    return obj[key]


def _nonnegative(value, flag, top=None):
    """value, unless it is below 0 or above top (malformed input)."""
    if value < 0:
        raise InputError("%s must be >= 0, got %d" % (flag, value))
    if top is not None and value > top:
        raise InputError("%s must be <= %d, got %d" % (flag, top, value))
    return value


def _emit(args, payload):
    if args.seed is not None:
        payload = {"seed": args.seed, **payload}
    sys.stdout.write((dump_lines if args.format == "text" else dump)(payload))
    return 0


# -- command handlers -------------------------------------------------


def cmd_check(args):
    p = _bivector(_load_json(args.input))
    j = jacobiator(p)
    return _emit(args, {"jacobiator_zero": j.is_zero(), "jacobiator": j})


def cmd_operator(args):
    """schouten, dp, delta and bracket: the command's operator on the
    fields that `_OPERATORS` lists, each read as its kind."""
    obj = _load_json(args.input)
    read = {"bivector": _bivector,
            "multivector": serialize.multivector_from_json,
            "form": serialize.form_from_json}
    module, name, inputs = _OPERATORS[args.command]
    return _emit(args, {"result": getattr(module, name)(
        *(read[kind](_need(obj, field, kind)) for field, kind in inputs))})


def cmd_star(args):
    obj = _load_json(args.input)
    p = _bivector(_need(obj, "p", "bivector"))
    a = serialize.form_from_json(_need(obj, "form", "form"))
    ctx = SymplecticContext(p)
    return _emit(args, {"result": ctx.star(a),
                        "volume": ctx.vol})


def cmd_cohomology(args):
    p = _bivector(_load_json(args.input))
    max_grade = _nonnegative(args.max_grade, "--max-grade")
    if args.complex == "lich":
        rows = poisson_cohomology_dims(p, max_grade, args.max_weight)
    else:
        rows = canonical_homology_dims(p, max_grade, args.max_weight)
    return _emit(args, {"complex": args.complex, "rows": rows})


def cmd_rank(args):
    p = _bivector(_load_json(args.input))
    point = serialize.point_from_text(args.point, p.n)
    return _emit(args, rank_at(p, point))


def cmd_casimir(args):
    p = _bivector(_load_json(args.input))
    if args.max_degree is not None:
        _nonnegative(args.max_degree, "--max-degree")
    if args.function is not None:
        try:
            f = parse_poly(args.function, p.n)
        except PolyParseError as exc:
            raise InputError(str(exc))
        return _emit(args, {"casimir": is_casimir(p, f)})
    if args.max_degree is None:
        raise InputError("need --function or --max-degree")
    return _emit(args, {"max_degree": args.max_degree,
                        "basis": casimir_basis(p, args.max_degree)})


def cmd_integrable(args):
    p = _bivector(_load_json(args.input))
    point = serialize.point_from_text(args.point, p.n)
    return _emit(args, {"point": point,
                        "integrable": integrability_at(p, point)})


def cmd_cocycle(args):
    p = _bivector(_load_json(args.input))
    g = serialize.liealg_from_json(_load_json(args.liealg, "lie algebra"))
    lam_raw = _load_json(args.lam, "lambda")
    lam = serialize.polys_from_json(lam_raw, p.n)
    if len(lam) != g.dim:
        raise InputError("lambda must list %d polynomials" % g.dim)
    return _emit(args, momentum_cocycle(p, g, lam))


def cmd_ideal(args):
    p = _bivector(_load_json(args.input))
    gens = serialize.polys_from_json(_load_json(args.gens, "generators"),
                                     p.n)
    return _emit(args, ideal_check(p, gens,
                                   _nonnegative(args.degree, "--degree")))


def cmd_oracle_super(args):
    seed = args.seed if args.seed is not None else 0
    # a multimap has dim^(arity + 1) entries and the work is linear in
    # --trials: --dim 6 takes about 0.14 s at the default --trials 50 and
    # 2.7 s at 1000, --dim 7 about 0.45 s at 50 (Python 3.11)
    dim = _nonnegative(args.dim, "--dim", 6)
    rep = super_axiom_report(dim, seed, trials=_nonnegative(
        args.trials, "--trials", 1000))
    return _emit(args, rep)


def _oracle_algebra(obj):
    """Algebra JSON for the Koszul oracle, which needs dim >= 1 and a
    unit; these are checked before the structure constants are."""
    if not isinstance(obj, dict) or set(obj) - {"dim", "mult", "unit"}:
        raise InputError("algebra needs dim, mult and unit")
    if type(obj.get("dim")) is not int or obj["dim"] <= 0:
        raise InputError("dim must be a positive integer")
    if obj.get("unit") is None:
        raise InputError("the oracle needs a designated unit")
    return serialize.algebra_from_json(obj)


def cmd_oracle_koszul(args):
    try:
        A = standard_algebra(args.algebra)
    except KeyError:
        A = _oracle_algebra(_load_json(args.algebra, "algebra"))
    return _emit(args, koszul_check(A))


def _ncalg_algebra(args):
    return serialize.algebra_from_json(_load_json(args.algebra, "algebra"))


def _subspace_rows(source, what, dim):
    """Rows of coordinate vectors spanning a subspace of Q^dim."""
    rows = serialize.matrix_from_json(_load_json(source, what), what)
    if any(len(row) != dim for row in rows):
        raise InputError("%s rows need %d coordinates each" % (what, dim))
    return rows


def cmd_ncalg_der(args):
    A = _ncalg_algebra(args)
    rep = derivations(A)
    out = validate_algebra(A)
    out.update({"der_dim": len(rep["basis"]), "der_basis": rep["basis"],
                "inner_dim": len(rep["inner"]),
                "inner_basis": rep["inner"]})
    return _emit(args, out)


def cmd_ncalg_submanifold(args):
    A = _ncalg_algebra(args)
    rep = submanifold_check(A, _subspace_rows(args.ideal, "ideal", A.dim))
    return _emit(args, {"submanifold": rep["submanifold"],
                        "rank_r_I": rep["rank_r_I"],
                        "dim_der_quotient": rep["dim_der_quotient"],
                        "dim_der_I": len(rep["der_I"]),
                        "dim_der_I_0": len(rep["der_I_0"]),
                        "r_I": rep["r_I"]})


def cmd_ncalg_quotient(args):
    A = _ncalg_algebra(args)
    rep = quotient_check(A, _subspace_rows(args.sub, "subalgebra", A.dim))
    return _emit(args, {"q1": rep["q1"], "q2": rep["q2"], "q3": rep["q3"],
                        "quotient_manifold_algebra":
                            rep["quotient_manifold_algebra"],
                        "dim_Q_B": len(rep["Q_B"]),
                        "dim_V_B": len(rep["V_B"]),
                        "dim_der_B": len(rep["der_B"]),
                        "Q_B": rep["Q_B"], "V_B": rep["V_B"],
                        "invariants_of_V_B": rep["invariants_of_V_B"]})


def cmd_ncalg_bott_quotient(args):
    g = serialize.liealg_from_json(_load_json(args.liealg, "lie algebra"))
    rep = bott_quotient(g, _subspace_rows(args.sub, "subalgebra", g.dim))
    rep["curvature"] = {"%d,%d" % k: v for k, v in rep["curvature"].items()}
    return _emit(args, rep)


def cmd_ncalg_bott_forms(args):
    g = serialize.liealg_from_json(_load_json(args.liealg, "lie algebra"))
    rep = bott_forms(g, _subspace_rows(args.sub, "subalgebra", g.dim))
    del rep["curvature"]
    return _emit(args, rep)


def cmd_ncalg_bott_integral(args):
    A = _ncalg_algebra(args)
    dist = _load_json(args.dist, "distribution")
    if not isinstance(dist, list):
        raise InputError("distribution must be a list of matrices")
    ops = [serialize.matrix_from_json(m, "distribution element")
           for m in dist]
    if any(len(X) != A.dim or any(len(row) != A.dim for row in X)
           for X in ops):
        raise InputError("distribution elements must be %d x %d matrices"
                         % (A.dim, A.dim))
    rep = bott_integral(A, ops, _subspace_rows(args.ideal, "ideal", A.dim))
    return _emit(args, rep)


# -- parser -----------------------------------------------------------


@cache
def build_parser():
    """The argument parser, built on first use and then reused.  A
    subcommand records its handler's name, which `main` looks up when
    the job runs, so a handler replaced on this module takes effect."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", help="inline JSON or a file path")
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized commands; echoed in output")

    parser = argparse.ArgumentParser(
        prog="pforge",
        description="Exact Poisson-structure calculations on polynomial "
                    "coefficients, plus finite-dimensional algebra oracles.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(group, name, func, *flags, **kwargs):
        """Subcommand name of group, run by func, with the common options
        and the given required flags."""
        sp = group.add_parser(name, parents=[common], **kwargs)
        for flag in flags:
            sp.add_argument(flag, required=True)
        sp.set_defaults(func=func.__name__)
        return sp

    sub(subs, "check", cmd_check, help="jacobiator of a bivector")
    sub(subs, "schouten", cmd_operator,
        help="graded bracket of two multivectors")
    sub(subs, "dp", cmd_operator, help="coboundary [p, u]")
    sub(subs, "delta", cmd_operator, help="canonical boundary of a form")
    sub(subs, "bracket", cmd_operator, help="graded bracket of two forms")
    sub(subs, "star", cmd_star, help="symplectic star of a form")

    sp = sub(subs, "cohomology", cmd_cohomology,
             help="per-weight dimensions")
    sp.add_argument("--complex", choices=["lich", "can"], required=True)
    sp.add_argument("--max-grade", type=int, required=True)
    sp.add_argument("--max-weight", type=int, required=True)

    sub(subs, "rank", cmd_rank, "--point", help="pointwise rank report")

    sp = sub(subs, "casimir", cmd_casimir,
             help="Casimir test or kernel search")
    sp.add_argument("--function", help="polynomial to test")
    sp.add_argument("--max-degree", type=int, help="search degree bound")

    sub(subs, "integrable", cmd_integrable, "--point",
        help="pointwise involutivity")

    sp = sub(subs, "cocycle", cmd_cocycle, "--liealg",
             help="momentum-map cocycle table")
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="JSON list of polynomials, one per basis element")

    sp = sub(subs, "ideal", cmd_ideal, "--gens",
             help="bounded-degree Poisson ideal check")
    sp.add_argument("--degree", type=int, required=True)

    oracle = subs.add_parser("oracle", help="finite-dimensional oracles")
    osubs = oracle.add_subparsers(dest="oracle_command", required=True)
    sp = sub(osubs, "super", cmd_oracle_super)
    sp.add_argument("--dim", type=int, default=3)
    sp.add_argument("--trials", type=int, default=50)
    sp = sub(osubs, "koszul", cmd_oracle_koszul)
    sp.add_argument("--algebra", required=True,
                    help="algebra JSON, a path, or a named test algebra")

    nc = subs.add_parser("ncalg", help="structure-constant calculus")
    nsubs = nc.add_subparsers(dest="ncalg_command", required=True)
    sub(nsubs, "der", cmd_ncalg_der, "--algebra")
    sub(nsubs, "submanifold", cmd_ncalg_submanifold, "--algebra", "--ideal")
    sub(nsubs, "quotient", cmd_ncalg_quotient, "--algebra", "--sub")
    sub(nsubs, "bott-quotient", cmd_ncalg_bott_quotient, "--liealg", "--sub")
    sub(nsubs, "bott-forms", cmd_ncalg_bott_forms, "--liealg", "--sub")
    sub(nsubs, "bott-integral", cmd_ncalg_bott_integral,
        "--algebra", "--dist", "--ideal")
    return parser


def _error(args, kind, message, code):
    payload = {"error": {"kind": kind, "message": str(message)}}
    fmt = getattr(args, "format", "json") if args is not None else "json"
    if fmt == "text":
        sys.stdout.write("error: %s: %s\n" % (kind, message))
    else:
        sys.stdout.write(dump(payload))
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; that slot is reserved for
        # violated mathematical preconditions here.
        return 0 if exc.code in (0, None) else 1
    try:
        return globals()[args.func](args)
    except tuple(e for e, _, _ in _ERRORS) as exc:
        kind, code = next((k, c) for e, k, c in _ERRORS if isinstance(exc, e))
        return _error(args, kind, exc, code)


if __name__ == "__main__":
    sys.exit(main())
