"""Golden CLI output: SHA-256 of stdout for fixed jobs on Q^6.

The digests were recorded from the Fraction-only polynomial kernel.
Every input carries non-integral coefficients, so these jobs pin the
printed form of the exact arithmetic byte for byte, whatever the
kernel stores internally.
"""

import contextlib
import hashlib
import io
import json
from itertools import combinations

import pytest

from pforge import cli

N = 6
RATS = ["1/2", "-2/3", "3", "5/4", "-1", "7/6", "-3/5", "2"]
MONOS = ["", "x0", "x3*x5", "x1^2", "x2*x4", "x5", "x0*x1*x4", "x3^2"]


def coeff(k, terms=3):
    """A three-term coefficient string that cycles through RATS and MONOS."""
    bits = []
    for t in range(terms):
        r = RATS[(k * 3 + t) % len(RATS)]
        m = MONOS[(k * 5 + 2 * t) % len(MONOS)]
        bits.append(r + ("*" + m if m else ""))
    return " + ".join(bits).replace("+ -", "- ")


def field(grade, start=0, kind=None, every=1):
    """Wire JSON of a grade-k field on every `every`-th basis tuple."""
    terms = [{"idx": list(idx), "coeff": coeff(start + k)}
             for k, idx in enumerate(combinations(range(N), grade))
             if k % every == 0]
    obj = {"n": N, "grade": grade, "terms": terms}
    if kind:
        obj["kind"] = kind
    return obj


# so(3) + so(3) on Q^6, scaled by 1/2 and -3/4: Poisson and homogeneous
LP = {"n": N, "grade": 2, "terms": [
    {"idx": [0, 1], "coeff": "1/2*x2"}, {"idx": [1, 2], "coeff": "1/2*x0"},
    {"idx": [0, 2], "coeff": "-1/2*x1"},
    {"idx": [3, 4], "coeff": "-3/4*x5"}, {"idx": [4, 5], "coeff": "-3/4*x3"},
    {"idx": [3, 5], "coeff": "3/4*x4"}]}
# a constant symplectic bivector with non-integral entries
SYMP = {"n": N, "grade": 2, "terms": [
    {"idx": [0, 1], "coeff": "1/2"}, {"idx": [2, 3], "coeff": "3"},
    {"idx": [4, 5], "coeff": "-2/3"}, {"idx": [0, 3], "coeff": "1/5"},
    {"idx": [1, 4], "coeff": "-7/2"}]}


def dumps(obj):
    return json.dumps(obj, sort_keys=True)


JOBS = {
    "check": (["check", "-i", dumps(field(2, 0, every=2))],
              "21eafbe07b51b5056d2c8fd1ec17b0c190715b87d4f70bdd8ecb9dcb78334218"),
    "check-lp": (["check", "-i", dumps(LP)],
                 "c96524f8c0b1d5a40bf9ca941af1839a85b9304529264bff77727ee57cfcad3e"),
    "schouten": (["schouten", "-i", dumps({"u": field(2, 1, every=3),
                                           "v": field(3, 2, every=4)})],
                 "8dca1b4170d50d06cfe94ada6e7c8eb5d400a615af071d94420360604b592389"),
    "dp": (["dp", "-i", dumps({"p": LP, "u": field(2, 3, every=2)})],
           "a96bd3ffc51a3129cbdf749af0d4563b8225dca616e65f47072f593404ad4a0b"),
    "delta": (["delta", "-i", dumps({"p": LP,
                                     "form": field(3, 4, "form", every=3)})],
              "3de91ab8a46318d22addcee3bb7c7ab7f7fb58cd61beba5dd14eb27e8f5614d4"),
    "bracket": (["bracket", "-i", dumps({"p": LP, "a": field(1, 5, "form"),
                                         "b": field(2, 6, "form", every=3)})],
                "78706b4bb4535970a8d7d593864e1c0d2e3df5e2af51cdc09b0d08b3de4f8c43"),
    "star": (["star", "-i", dumps({"p": SYMP,
                                   "form": field(2, 7, "form", every=2)})],
             "9da7fe895734cdfeedac39a95d01cc9cd120eb94e3bca87ca577f379c4856d90"),
    "star-text": (["star", "--format", "text", "-i",
                   dumps({"p": SYMP, "form": field(3, 8, "form", every=5)})],
                  "b74e7c81878a1d77300203c58e2bb87cb4e38cee4d814961288c8d280485bd3e"),
    "cohomology-lich": (["cohomology", "-i", dumps(LP), "--complex", "lich",
                         "--max-grade", "2", "--max-weight", "1"],
                        "cac0278248a4c59407a27226bb9946dc26a6a802cb71f03e372d08ba39fbbeb3"),
    "cohomology-can": (["cohomology", "-i", dumps(LP), "--complex", "can",
                        "--max-grade", "2", "--max-weight", "2"],
                       "5b650407c32f293211c6297e0768e959a39dc92a146dde94651e6db7ae0a9d50"),
    "casimir-basis": (["casimir", "-i", dumps(LP), "--max-degree", "2"],
                      "a3e2e0598b1dd91d6d2727f42a2f4707d5e5e5bd848fad6f8e867d3f848b6cee"),
    "casimir-function": (["casimir", "-i", dumps(LP), "--function",
                          "1/3*x0^2 + 1/3*x1^2 + 1/3*x2^2 - 5/2*x3^2"
                          " - 5/2*x4^2 - 5/2*x5^2"],
                         "a57e491b3df3c0b36c42cc6edaea620f3c52ffb60b06d82ee9c2b4a781b1ffb5"),
}


@pytest.mark.parametrize("name", list(JOBS))
def test_cli_stdout_matches_golden_digest(name):
    argv, digest = JOBS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
