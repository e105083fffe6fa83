import contextlib
import io
import json
import subprocess
import sys

import pytest

PY = [sys.executable, "-m", "pforge.cli"]

SO3 = json.dumps({"n": 3, "grade": 2,
                  "terms": [{"idx": [0, 1], "coeff": "x2"},
                            {"idx": [1, 2], "coeff": "x0"},
                            {"idx": [0, 2], "coeff": "-x1"}]})
PLANE = json.dumps({"n": 2, "grade": 2,
                    "terms": [{"idx": [0, 1], "coeff": "1"}]})


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True)


def test_check_ok():
    r = run("check", "-i", SO3)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["jacobiator_zero"] is True


def test_check_parse_error_exit_1():
    bad = json.dumps({"n": 2, "grade": 2,
                      "terms": [{"idx": [0, 1], "coeff": "x0 +"}]})
    r = run("check", "-i", bad)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["kind"] == "bad-input"


def test_star_degenerate_exit_2():
    p = json.dumps({"n": 4, "grade": 2,
                    "terms": [{"idx": [0, 1], "coeff": "1"}]})
    form = json.dumps({"kind": "form", "n": 4, "grade": 0,
                       "terms": [{"idx": [], "coeff": "1"}]})
    r = run("star", "-i", json.dumps({"p": json.loads(p),
                                      "form": json.loads(form)}))
    assert r.returncode == 2
    assert json.loads(r.stdout)["error"]["kind"] == "degenerate-bivector"


@pytest.mark.parametrize("n", [3, 1], ids=["form-wider", "form-narrower"])
def test_star_form_over_another_n_exit_1(n):
    form = {"kind": "form", "n": n, "grade": 1,
            "terms": [{"idx": [n - 1], "coeff": "x0"}]}
    r = run("star", "-i", json.dumps({"p": json.loads(PLANE), "form": form}))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["kind"] == "dimension-mismatch"
    assert "Traceback" not in r.stderr


def test_zero_denominator_is_an_input_error():
    bad = json.dumps({"n": 2, "grade": 2,
                      "terms": [{"idx": [0, 1], "coeff": "1/0*x0"}]})
    r = run("check", "-i", bad)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["kind"] == "bad-input"
    assert "Traceback" not in r.stderr


def test_usage_error_exit_1():
    r = run("no-such-command")
    assert r.returncode == 1


def test_byte_determinism():
    args = ("cohomology", "-i", SO3, "--complex", "lich",
            "--max-grade", "1", "--max-weight", "2")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_text_format():
    r = run("casimir", "-i", SO3, "--max-degree", "2", "--format", "text")
    assert r.returncode == 0
    assert "basis:" in r.stdout
    assert "x0^2 + x1^2 + x2^2" in r.stdout


def test_seed_echoed():
    r = run("oracle", "super", "--dim", "3", "--seed", "11",
            "--trials", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["seed"] == 11 and out["ok"] is True


def test_input_from_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(PLANE)
    r = run("rank", "-i", str(path), "--point", "0,0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rank"] == 2


@pytest.mark.parametrize("command", ["rank", "integrable"])
def test_negative_point_attached_with_equals(command):
    r = run(command, "-i", SO3, "--point=-1,0,2")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["point"] == ["-1", "0", "2"]


def test_round_trip_through_cli():
    # schouten of [p, p] printed, re-parsed, and re-printed identically
    r = run("schouten", "-i",
            json.dumps({"u": json.loads(SO3), "v": json.loads(SO3)}))
    assert r.returncode == 0
    first = json.loads(r.stdout)["result"]
    r2 = run("schouten", "-i", json.dumps({"u": first, "v": first}))
    assert r2.returncode == 0


def test_ncalg_der_cli():
    alg = json.dumps({"dim": 2,
                      "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
                      "unit": [1, 0]})
    r = run("ncalg", "der", "--algebra", alg)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["der_dim"] == 1


def test_parenthesised_coefficient_is_an_input_error():
    p = json.dumps({"n": 3, "grade": 2,
                    "terms": [{"idx": [0, 1], "coeff": "(x0+x1)*x2"}]})
    r = run("check", "-i", p)
    assert r.returncode == 1
    assert "error" in json.loads(r.stdout)
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("cohomology", "-i", SO3, "--complex", "lich", "--max-grade", "-1",
     "--max-weight", "2"),
    ("casimir", "-i", SO3, "--max-degree", "-1"),
    ("ideal", "-i", SO3, "--gens", '["x0"]', "--degree", "-1"),
    ("oracle", "super", "--dim", "-1"),
    ("oracle", "super", "--trials", "-1"),
], ids=["max-grade", "max-degree", "degree", "dim", "trials"])
def test_negative_bound_exit_1(args):
    r = run(*args)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["kind"] == "bad-input"


def test_oracle_super_dim_above_6_is_refused_before_any_work(monkeypatch,
                                                           capsys):
    import pforge.cli as cli
    assert cli.main(["oracle", "super", "--dim", "6", "--trials", "1"]) == 0
    capsys.readouterr()

    def unbounded(*args, **kwargs):
        raise AssertionError("--dim 7 reached super_axiom_report")

    monkeypatch.setattr(cli, "super_axiom_report", unbounded)
    assert cli.main(["oracle", "super", "--dim", "7"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "bad-input" and "<= 6" in error["message"]


def test_oracle_super_trials_above_1000_is_refused_before_any_work(
        monkeypatch, capsys):
    import pforge.cli as cli
    assert cli.main(["oracle", "super", "--dim", "1", "--trials",
                     "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 1000

    def unbounded(*args, **kwargs):
        raise AssertionError("--trials 1001 reached super_axiom_report")

    monkeypatch.setattr(cli, "super_axiom_report", unbounded)
    assert cli.main(["oracle", "super", "--dim", "6", "--trials",
                     "1001"]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "bad-input",
                     "message": "--trials must be <= 1000, got 1001"}


def test_jobs_is_not_an_option():
    assert run("check", "-i", SO3, "--jobs", "2").returncode == 1


_ALG2 = {"dim": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
         "unit": [1, 0]}


@pytest.mark.parametrize("command", [("ncalg", "der"), ("oracle", "koszul")],
                         ids=["ncalg-der", "oracle-koszul"])
@pytest.mark.parametrize("alg", [
    dict(_ALG2, mult=[[[1], [0, 1]], [[0, 1], [0, 0]]]),
    dict(_ALG2, mult=[[[1, 0, 0], [0, 1]], [[0, 1], [0, 0]]]),
    dict(_ALG2, unit=[1]),
    dict(_ALG2, unit=[1, 0, 0]),
    dict(_ALG2, unit=5),
], ids=["short-mult", "long-mult", "short-unit", "long-unit", "scalar-unit"])
def test_malformed_algebra_is_an_error(command, alg):
    r = run(*command, "--algebra", json.dumps(alg))
    assert r.returncode in (1, 2)
    assert "error" in json.loads(r.stdout)
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("ncalg", "submanifold", "--ideal", "[[0, 1, 0]]"),
    ("ncalg", "quotient", "--sub", "[[1, 0, 0]]"),
    ("ncalg", "bott-integral", "--dist", "[[[1]]]", "--ideal", "[]"),
], ids=["ideal", "sub", "dist"])
def test_misshapen_subspace_is_an_input_error(args):
    r = run(*args, "--algebra", json.dumps(_ALG2))
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"]["kind"] == "bad-input"
    assert "Traceback" not in r.stderr


def test_reused_parser_matches_fresh_processes():
    # one process builds its parser once; a usage error, a valid job and
    # other subcommands after it print what fresh processes print
    import pforge.cli as cli
    jobs = [("no-such-command",), ("check", "-i", SO3),
            ("ncalg", "der", "--algebra", json.dumps(_ALG2)),
            ("check", "--jobs", "2", "-i", SO3),
            ("rank", "--format", "text", "-i", PLANE, "--point", "1/2,3"),
            ("oracle", "super", "--dim", "2", "--trials", "2",
             "--seed", "3")]
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        fresh = run(*argv)
        assert (code, out.getvalue(), err.getvalue()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_failed_self_check_is_an_internal_error(monkeypatch, capsys):
    import pforge.cli as cli

    def broken(alg):
        raise AssertionError("Der(A) not closed under commutator")

    monkeypatch.setattr(cli, "derivations", broken)
    code = cli.main(["ncalg", "der", "--algebra", json.dumps(_ALG2)])
    assert code == 3
    assert json.loads(capsys.readouterr().out) == {"error": {
        "kind": "internal-error",
        "message": "Der(A) not closed under commutator"}}


def in_process(*argv):
    """(exit code, parsed stdout) of one job run through `cli.main`."""
    import pforge.cli as cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


_STRINGS = {"dim": 2, "mult": [["10", "01"], ["01", "00"]], "unit": ["1", "0"]}
_ONE = {"dim": 1, "mult": [[[1]]], "unit": [1]}


@pytest.mark.parametrize("argv", [
    ("ncalg", "der", "--algebra", json.dumps(_STRINGS)),
    ("oracle", "koszul", "--algebra", json.dumps(_STRINGS)),
    ("ncalg", "der", "--algebra", json.dumps(dict(_ONE, mult=["1"]))),
    ("ncalg", "der", "--algebra", json.dumps(dict(_ONE, mult="1"))),
    ("ncalg", "bott-quotient", "--liealg",
     json.dumps({"dim": 1, "c": [["0"]]}), "--sub", "[]"),
    ("ncalg", "der", "--algebra", json.dumps(dict(_ONE, dim=True))),
    ("oracle", "koszul", "--algebra", json.dumps(dict(_ONE, dim=True))),
    ("ncalg", "bott-forms", "--liealg",
     json.dumps({"dim": True, "c": [[[0]]]}), "--sub", "[]"),
    ("check", "-i", json.dumps({"n": True, "grade": 2, "terms": []})),
    ("schouten", "-i", json.dumps({
        "u": {"n": 2, "grade": True, "terms": []},
        "v": {"n": 2, "grade": 1, "terms": []}})),
    ("schouten", "-i", json.dumps({
        "u": {"n": True, "grade": True, "terms": []},
        "v": {"n": 1, "grade": 1, "terms": []}})),
    ("check", "-i", json.dumps({"n": 2, "grade": 2, "terms": [
        {"idx": [False, True], "coeff": "1"}]})),
], ids=["string-vectors-der", "string-vectors-koszul", "string-vector",
        "string-table", "string-lie-vectors", "true-dim-der",
        "true-dim-koszul", "true-dim-lie", "true-n", "true-grade",
        "true-n-and-grade-schouten", "bool-idx"])
def test_strings_and_bools_are_not_vectors_or_numbers(argv):
    # a string iterates character by character and bool subclasses int,
    # so each of these inputs used to be read as a small algebra or field
    code, out = in_process(*argv)
    assert code == 1
    assert out["error"]["kind"] == "bad-input"


def test_json_decimals_are_read_exactly():
    # [e0, e1] = c e1: e0 acts on L/span(e0) = span(e1) by c; the text of
    # c is not a double, and 0.5 and 2.0 are, so they read as before
    c = "0.1000000000000000055511151231257827"
    rows = []
    for x in (c, "0.5", "2.0", "1e-3", "25E-1"):
        g = '{"dim": 2, "c": [[[0, 0], [0, %s]], [[0, -%s], [0, 0]]]}' % (
            x, x)
        code, out = in_process("ncalg", "bott-quotient", "--liealg", g,
                               "--sub", "[[1, 0]]")
        assert code == 0
        rows.append(out["matrices"])
    assert rows == [[[["1000000000000000055511151231257827"
                       "/10000000000000000000000000000000000"]]],
                    [[["1/2"]]], [[["2"]]], [[["1/1000"]]], [[["5/2"]]]]


@pytest.mark.parametrize("text", ["1e999999999", "1E+999999999",
                                  "-1e-999999999"])
@pytest.mark.parametrize("quoted", [True, False], ids=["string", "bare"])
def test_huge_decimal_exponents_are_refused(text, quoted):
    # Fraction would expand 1e999999999 into an integer of 3.3 billion
    # bits; the exponent is refused before any Fraction is built
    entry = '"%s"' % text if quoted else text
    code, out = in_process("ncalg", "der", "--algebra",
                           '{"dim": 1, "mult": [[[%s]]], "unit": [1]}' % entry)
    assert code == 1
    assert out["error"]["kind"] == "bad-input"
    assert "exponent" in out["error"]["message"]


def _with_bad_entry(shape, bad, where, good=("1", '"1"')):
    """JSON text of a nested list of the given shape whose entries
    alternate the spellings `good`, with `bad` put in place of the first
    entry, the last one, or (where="both") the last one after "x" in
    the middle."""
    count = 1
    for size in shape:
        count *= size
    entries = [good[k % len(good)] for k in range(count)]
    if where == "first":
        entries[0] = bad
    else:
        entries[-1] = bad
    if where == "both":
        entries[count // 2] = '"x"'
    for size in reversed(shape):
        entries = ["[%s]" % ", ".join(entries[k:k + size])
                   for k in range(0, len(entries), size)]
    return entries[0]


# (exit code, kind, message) of a table or matrix with one bad entry
_BAD_ENTRIES = {
    "true": (1, "bad-input", "bad rational number True"),
    "[1]": (1, "bad-input", "bad rational number [1]"),
    '"1/0"': (1, "bad-input", "bad rational number '1/0'"),
    '"1e999999999"': (1, "bad-input",
                      "exponent of '1e999999999' beyond +-1000"),
    '"x"': (1, "bad-input", "bad rational number 'x'"),
}


@pytest.mark.parametrize("where", ["first", "last", "both"])
@pytest.mark.parametrize("bad", list(_BAD_ENTRIES), ids=list(_BAD_ENTRIES))
@pytest.mark.parametrize("target", ["algebra", "ideal"])
def test_the_first_bad_number_is_reported(target, bad, where):
    # a table reads each distinct number text once, so a bad entry after
    # many repeats of a good text ("1", and true after 1) must still be
    # refused, and the first bad entry named, as when every entry is read
    if target == "algebra":
        argv = ("ncalg", "der", "--algebra",
                '{"dim": 3, "unit": [1, 0, 0], "mult": %s}'
                % _with_bad_entry((3, 3, 3), bad, where))
    else:
        argv = ("ncalg", "submanifold", "--algebra", json.dumps(_ALG2),
                "--ideal", _with_bad_entry((30, 2), bad, where))
    code, out = in_process(*argv)
    want = _BAD_ENTRIES['"x"' if where == "both" else bad]
    assert (code, out["error"]["kind"], out["error"]["message"]) == want
