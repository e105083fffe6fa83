"""Golden CLI output: SHA-256 of stdout for fixed jobs.

The polynomial jobs on Q^6 were recorded from the Fraction-only
polynomial kernel, and the finite-algebra jobs (`ncalg`, `oracle`,
`integrable`, `ideal`) from the Fraction-only finite-algebra layer.
Every polynomial input and half of the algebras carry non-integral
coefficients, so these jobs pin the printed form of the exact
arithmetic byte for byte, whatever the kernel stores internally: an
entry of a list prints as a string, and a count as a number, whether it
is held as an int or as a Fraction.  The `star` jobs of every grade
were recorded from the star solved as a linear system over the grade's
basis forms, so they pin the closed form i_{sharp(a)} vol to it.  The
`cocycle` jobs were recorded while `cmd_cocycle` printed the table's
polynomials with `str` by hand, so they pin its output to `_emit`'s
formatting.  The text-format `rank`, `bott-quotient` and `bott-forms`
jobs and the `ideal` jobs without generators or with an undecided
verdict were recorded while `rank_at` returned a report object with its
own stringifying and the Bott connections returned a connection table,
so they pin the plain-dict results to that output.  The `cohomology`
jobs on e(3), on a Jacobian cubic with non-integral coefficients and on
a constant symplectic Q^4 were recorded while every block was ranked in
full, so they pin the cleared ranks to it.  The `bott-integral` refusal
job pins the text form of a verdict that lists failed preconditions.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction
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
# the constant symplectic plane, on which x0^2 + x1^2 is not an ideal
# that a bounded search can decide
PLANE = {"n": 2, "grade": 2, "terms": [{"idx": [0, 1], "coeff": "1"}]}
# e(3) = so(3) semidirect Q^3 on J = x0..x2, P = x3..x5: indecomposable
E3 = {"n": N, "grade": 2, "terms": [
    {"idx": [0, 1], "coeff": "x2"}, {"idx": [1, 2], "coeff": "x0"},
    {"idx": [0, 2], "coeff": "-x1"}, {"idx": [0, 4], "coeff": "x5"},
    {"idx": [0, 5], "coeff": "-x4"}, {"idx": [1, 3], "coeff": "-x5"},
    {"idx": [1, 5], "coeff": "x3"}, {"idx": [2, 3], "coeff": "x4"},
    {"idx": [2, 4], "coeff": "-x3"}]}
# {x_i, x_j} = eps_ijk dphi/dx_k on Q^3 for the cubic
# phi = 1/2 x0^3 - 2/3 x1^3 + 3/4 x2^3 + 5/3 x0 x1 x2
JAC3 = {"n": 3, "grade": 2, "terms": [
    {"idx": [0, 1], "coeff": "9/4*x2^2 + 5/3*x0*x1"},
    {"idx": [1, 2], "coeff": "3/2*x0^2 + 5/3*x1*x2"},
    {"idx": [0, 2], "coeff": "2*x1^2 - 5/3*x0*x2"}]}
# a constant symplectic bivector on Q^4: d = 0, so each differential
# shifts the weight by -2
SYMP4 = {"n": 4, "grade": 2, "terms": [
    {"idx": [0, 1], "coeff": "1/2"}, {"idx": [2, 3], "coeff": "3"},
    {"idx": [0, 2], "coeff": "-2/3"}]}


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
    "star-0": (["star", "-i", dumps({"p": SYMP, "form": field(0, 9, "form")})],
               "0902d457e8c1b332b34822853cca449c891bb2b87a619245fbd9c48382d8918d"),
    "star-1": (["star", "-i", dumps({"p": SYMP, "form": field(1, 10, "form")})],
               "f48ef69f656d5951fecaa4c55560943882fd25692d6859feee2e6b959e53aa4a"),
    "star-4": (["star", "-i", dumps({"p": SYMP,
                                     "form": field(4, 11, "form", every=2)})],
               "bd5cc8c788547e4a288f4f030645d3f860487b463023e5b4d172b7654d4c69b8"),
    "star-5": (["star", "-i", dumps({"p": SYMP, "form": field(5, 12, "form")})],
               "d6be947cf5d0735e1845b2503a829bad124b8c1c6f02a591c5d3914b780ad3ac"),
    "star-6": (["star", "-i", dumps({"p": SYMP, "form": field(6, 13, "form")})],
               "fb7931159066d57810306db3122d89d9db2ed2d74105027a99bf755e678e5255"),
    "cohomology-lich": (["cohomology", "-i", dumps(LP), "--complex", "lich",
                         "--max-grade", "2", "--max-weight", "1"],
                        "cac0278248a4c59407a27226bb9946dc26a6a802cb71f03e372d08ba39fbbeb3"),
    "cohomology-can": (["cohomology", "-i", dumps(LP), "--complex", "can",
                        "--max-grade", "2", "--max-weight", "2"],
                       "5b650407c32f293211c6297e0768e959a39dc92a146dde94651e6db7ae0a9d50"),
    "cohomology-e3-lich": (["cohomology", "-i", dumps(E3), "--complex",
                            "lich", "--max-grade", "2", "--max-weight", "1"],
                           "c2005f26d756dd208f32bca611019fb2404035fd10f3abf9573c20ce8f953f87"),
    "cohomology-e3-can": (["cohomology", "-i", dumps(E3), "--complex", "can",
                           "--max-grade", "2", "--max-weight", "2"],
                          "0b29c0a572416b626fb544675b954d86bcc1c000d57fe41b78ab6251c0b2e657"),
    "cohomology-jac3-lich": (["cohomology", "-i", dumps(JAC3), "--complex",
                              "lich", "--max-grade", "3", "--max-weight",
                              "3"],
                             "c4e5a22a92f0810bbe5af98ef44bac8b1137fe7a18ea978bbb0a90f26422cca0"),
    "cohomology-jac3-can": (["cohomology", "-i", dumps(JAC3), "--complex",
                             "can", "--max-grade", "3", "--max-weight", "6"],
                            "f9e9dfa2e24e97e0fba8bb7c8a29f8bd1232bcc4eaded88afcf0958abbd1aa66"),
    "cohomology-symp4-lich": (["cohomology", "-i", dumps(SYMP4), "--complex",
                               "lich", "--max-grade", "4", "--max-weight",
                               "2"],
                              "a9d95f90bd287c08d342e50036698554ec37d01dc7238588cf3a48d606b66be8"),
    "cohomology-symp4-can": (["cohomology", "-i", dumps(SYMP4), "--complex",
                              "can", "--max-grade", "4", "--max-weight",
                              "6"],
                             "8c65d5eb8252e168c9a4a7f2b57563d717bb1664b2f1d62aff7e5613d33bc681"),
    "casimir-basis": (["casimir", "-i", dumps(LP), "--max-degree", "2"],
                      "a3e2e0598b1dd91d6d2727f42a2f4707d5e5e5bd848fad6f8e867d3f848b6cee"),
    "casimir-function": (["casimir", "-i", dumps(LP), "--function",
                          "1/3*x0^2 + 1/3*x1^2 + 1/3*x2^2 - 5/2*x3^2"
                          " - 5/2*x4^2 - 5/2*x5^2"],
                         "a57e491b3df3c0b36c42cc6edaea620f3c52ffb60b06d82ee9c2b4a781b1ffb5"),
}



def truncated(a, b, scale=None):
    """Q[x]/x^a (x) Q[y]/y^b on the basis scale[(i, j)] * x^i y^j, as
    (algebra JSON, basis names)."""
    names = [(i, j) for i in range(a) for j in range(b)]
    scale = scale or {}
    s = [Fraction(scale.get(x, 1)) for x in names]
    mult = []
    for u, (i, j) in enumerate(names):
        row = []
        for v, (k, l) in enumerate(names):
            vec = ["0"] * len(names)
            if i + k < a and j + l < b:
                w = names.index((i + k, j + l))
                vec[w] = str(s[u] * s[v] / s[w])
            row.append(vec)
        mult.append(row)
    unit = [str(int(x == (0, 0))) for x in names]
    return {"dim": len(names), "mult": mult, "unit": unit}, names


def lie(dim, brackets):
    """Lie algebra JSON from {(i, j): {k: "c"}} for i < j."""
    c = [[["0"] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), out in brackets.items():
        for k, x in out.items():
            c[i][j][k] = x
            c[j][i][k] = str(-Fraction(x))
    return {"dim": dim, "c": c}


def rows(names, keep):
    return [[int(y == x) for y in names] for x in names if keep(x)]


def euler(names):
    """The Euler derivations x d/dx and y d/dy as diagonal matrices."""
    return [[[names[c][t] if r == c else 0 for c in range(len(names))]
             for r in range(len(names))] for t in (0, 1)]


# basis 1, t, 2t^2 of Q[t]/t^3: t * t = 1/2 (2t^2)
T3_HALF, _ = truncated(3, 1, {(2, 0): 2})
# basis x^i y^j with xy scaled by 2: x * y = 1/2 (2xy)
X2Y2_HALF, X2Y2 = truncated(2, 2, {(1, 1): 2})
X2Y3_HALF, X2Y3 = truncated(2, 3, {(1, 1): 2, (0, 2): -3, (1, 2): "1/2"})
M2 = {"dim": 4, "unit": [1, 0, 0, 1], "mult": [
    [[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4],
    [[0] * 4, [0] * 4, [1, 0, 0, 0], [0, 1, 0, 0]],
    [[0, 0, 1, 0], [0, 0, 0, 1], [0] * 4, [0] * 4],
    [[0] * 4, [0] * 4, [0, 0, 1, 0], [0, 0, 0, 1]]]}
# gl(2) on E11, E12, E21, E22
GL2 = lie(4, {(0, 1): {1: "1"}, (0, 2): {2: "-1"},
              (1, 2): {0: "1", 3: "-1"}, (1, 3): {1: "1"},
              (2, 3): {2: "-1"}})
# so(3): [e0, e1] = e2, [e1, e2] = e0, [e2, e0] = e1
SO3 = lie(3, {(0, 1): {2: "1"}, (1, 2): {0: "1"}, (0, 2): {1: "-1"}})
# the inner derivations [E12, .] and [E21, .] of M2, whose bracket
# [E11 - E22, .] leaves their span
AD_E12 = [[0, 0, 1, 0], [-1, 0, 0, 1], [0, 0, 0, 0], [0, 0, -1, 0]]
AD_E21 = [[0, -1, 0, 0], [0, 0, 0, 0], [1, 0, 0, -1], [0, 1, 0, 0]]
# sl(2) on 2h, e, f: [2h, e] = 4e, [2h, f] = -4f, [e, f] = 1/2 (2h)
SL2_HALF = lie(3, {(0, 1): {1: "4"}, (0, 2): {2: "-4"},
                   (1, 2): {0: "1/2"}})


def ncalg(command, *args):
    return ["ncalg", command] + [a if isinstance(a, str) else dumps(a)
                                 for a in args]


FINITE_JOBS = {
    "der-m2": (ncalg("der", "--algebra", M2),
               "5a3ff7a02a3f979997977bc46e59a90dfe21a2868f70ba81c01c5da4b2921765"),
    "der-t3-half": (ncalg("der", "--algebra", T3_HALF),
                    "68f4a6372c78115471fff48f242fee315f2a3f7d10e8368a609008643c00706a"),
    "der-x2y3-half-text": (ncalg("der", "--format", "text",
                                 "--algebra", X2Y3_HALF),
                           "ca27a9602e311a88313b5cc285fa0ad57c81a7706a8a5881c298c56b994ea83d"),
    "submanifold-x2y2": (ncalg("submanifold", "--algebra", X2Y2_HALF,
                               "--ideal", rows(X2Y2, lambda x: x[1] >= 1)),
                         "07c75c780e80476fa4ff25e57f77a18780734b92510ef6f114ec810027fd176d"),
    "submanifold-x2y3": (ncalg("submanifold", "--algebra", X2Y3_HALF,
                               "--ideal", rows(X2Y3, lambda x: x[1] >= 1)),
                         "a64972194946abf5e0b6479e7d1cf06546998c6428b51da625a8810cb36ce092"),
    "quotient-x2y3": (ncalg("quotient", "--algebra", X2Y3_HALF,
                            "--sub", rows(X2Y3, lambda x: x[1] == 0)),
                      "1f21b2339e6a6e6ddfbb37569112440b8bb79873730aa8d9278830699437bfab"),
    "quotient-m2": (ncalg("quotient", "--algebra", M2,
                          "--sub", [[1, 0, 0, 0], [0, 0, 0, 1]]),
                    "33c8a84f62cb2fb63b412720523f20e558d14ab762846523894db4a65915ca33"),
    "bott-quotient-gl2": (ncalg("bott-quotient", "--liealg", GL2, "--sub",
                                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
                          "65ff9ac5e3514544689958e30fd594e23430c0dfd2b51727148f0a7ddf0c37bf"),
    "bott-quotient-sl2": (ncalg("bott-quotient", "--liealg", SL2_HALF,
                                "--sub", [[1, 0, 0], [0, 1, 0]]),
                          "bde2b996b98dc3fb2a97774b362eb85fbe10721a8ed097a9622cd30b33d8c954"),
    "bott-forms-gl2": (ncalg("bott-forms", "--liealg", GL2, "--sub",
                             [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
                       "881d7ea4862b2697c3bdd035094aaf500470aa1dac0667ebe4380ea5e4d7c441"),
    "bott-forms-sl2": (ncalg("bott-forms", "--liealg", SL2_HALF,
                             "--sub", [[2, 0, 0], [0, 1, 0]]),
                       "e7293b89272b4e5f3cb60f5acd374ecb3cc51cef85877dcf5a7d75a39230cc3f"),
    "bott-integral-x2y2": (ncalg("bott-integral", "--algebra", X2Y2_HALF,
                                 "--dist", euler(X2Y2),
                                 "--ideal", rows(X2Y2, lambda x: x[1] >= 1)),
                           "7b0bf2fc6e877d703701b4fe6344d700448804a400a23463d1fb0b0113b5c165"),
    "bott-integral-x2y3-text": (ncalg("bott-integral", "--format", "text",
                                      "--algebra", X2Y3_HALF,
                                      "--dist", euler(X2Y3), "--ideal",
                                      rows(X2Y3, lambda x: x[1] >= 1)),
                                "3554fba1b8a6ece395a5766972f16c6b15935ea9f8cfb1812a73b505c0f1221a"),
    "bott-integral-m2-refusal-text": (ncalg("bott-integral", "--format",
                                            "text", "--algebra", M2,
                                            "--dist", [AD_E12, AD_E21],
                                            "--ideal", []),
                                      "06e59ebf485c9e2bba0214d9b6c0f1f2cf16896e61b2e5bc687935266c6421d0"),
    "koszul-named": (["oracle", "koszul", "--algebra", "Q[t]/t^3"],
                     "35e9418f128d4cca9027ef635a49dc9bff9b30cff9e86621b89e4963b759c629"),
    "koszul-t3-half": (["oracle", "koszul", "--algebra", dumps(T3_HALF)],
                       "35e9418f128d4cca9027ef635a49dc9bff9b30cff9e86621b89e4963b759c629"),
    "koszul-x2y2-half": (["oracle", "koszul", "--algebra", dumps(X2Y2_HALF)],
                         "a9d97288b35d12d68d766171d87cc1ec06846cd5800fde6fe765c7986afae2b0"),
    "super": (["oracle", "super", "--dim", "3", "--trials", "4",
               "--seed", "7"],
              "0a92c0a22a7f7ef565233790df9ec3275355c6ce7604074628e70fb148d4ad93"),
    "integrable": (["integrable", "-i", dumps(LP),
                    "--point", "1/2,-1,3,0,2/3,1"],
                   "d6f9aa8f22f563e2801a5cba4158745c2b1eee00944ee1d1567ff9d6509d80da"),
    "ideal-witness": (["ideal", "-i", dumps(LP), "--gens",
                       dumps(["x0", "x3*x4 - 1/2*x5"]), "--degree", "1"],
                      "f688fba14e51c3f783294b68b681f41b29a5dcb78dbf1d64905a7e42323f5659"),
    "ideal-certificate": (["ideal", "-i", dumps(LP), "--gens",
                           dumps(["x0", "x1", "2*x2 - 1/3*x3"]),
                           "--degree", "1"],
                          "f2d5a664164b560ace5977c0a1774271a812ef28dd2f041fc3675f4c7e443f0c"),
    "cocycle": (["cocycle", "-i", dumps(LP), "--liealg", dumps(SO3),
                 "--lambda", dumps(["1/2*x0 + x3", "1/2*x1 - 2/3",
                                    "1/2*x2 + x4*x5"])],
                "744cff0cf8507f8c428bf73cbb92f3d4823382a1dfc9a2bfa7744e1763aa0931"),
    "cocycle-text": (["cocycle", "--format", "text", "-i", dumps(LP),
                      "--liealg", dumps(SL2_HALF), "--lambda",
                      dumps(["x0 - 3/4*x3^2", "1/2*x1*x2", "-x5 + 7/6"])],
                     "07cd99103c00f9421218ef7a681614d4d419407ab9600b612192e0861d3c0e7c"),
    "rank": (["rank", "-i", dumps(LP), "--point", "1/2,-1,3,0,2/3,1"],
             "4a68b8610a7b7aa67593afe59e41a14c392d0652b3dffa59c948d87ed9da0f73"),
    "rank-text": (["rank", "--format", "text", "-i", dumps(LP),
                   "--point", "2/3,0,-1/2,5,-1,3/4"],
                  "bfed74ce5d77498155e2d62c3149af9e1384e1619674ac5776c4aab299b36c20"),
    "bott-quotient-gl2-text": (ncalg("bott-quotient", "--format", "text",
                                     "--liealg", GL2, "--sub",
                                     [[1, 0, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 0, 1]]),
                               "748d9013e32539de2f311ffbee86287941f943a37d0af898ad982747cef73ace"),
    "bott-forms-sl2-text": (ncalg("bott-forms", "--format", "text",
                                  "--liealg", SL2_HALF,
                                  "--sub", [[2, 0, 0], [0, 1, 0]]),
                            "eb774e362e6b8fa9e1187932346a84bf2a236c8913286dd6d517dd054bf27283"),
    "ideal-undecided": (["ideal", "-i", dumps(PLANE), "--gens",
                         dumps(["x0^2 + x1^2"]), "--degree", "2"],
                        "394ab4bbd0551cf0ca178a0e6ce46684c63753f6042aebc299818bdd14b713d0"),
    "ideal-no-generators": (["ideal", "-i", dumps(LP), "--gens", "[]",
                             "--degree", "1"],
                            "c8540e352e56d3034db0ecc9f39f0a7c83ce8f85426560060b0f8fdcec7b8c6c"),
}
JOBS.update(FINITE_JOBS)


@pytest.mark.parametrize("name", list(JOBS))
def test_cli_stdout_matches_golden_digest(name):
    argv, digest = JOBS[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
