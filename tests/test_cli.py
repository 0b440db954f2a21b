import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from effalg import cli


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BROKEN_TABLE = {"kind": "table", "n": 3, "zero": 0, "one": 2,
                "sums": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 1, 2], [1, 2, 2]]}


@pytest.fixture()
def docs(tmp_path):
    ident = [str(i) + "/8" for i in range(9)]
    return {
        "bool3": write(tmp_path, "bool3.json", {"kind": "boolean", "n_atoms": 3}),
        "mv83": write(tmp_path, "mv83.json",
                      {"kind": "mv_product", "denominator": 8, "arity": 3}),
        "mo2": write(tmp_path, "mo2.json", {"kind": "mo2"}),
        "hsum": write(tmp_path, "hsum.json",
                      {"kind": "horizontal_sum",
                       "parts": [{"kind": "mv_product", "denominator": 8, "arity": 1}] * 2,
                       "states": [ident, ident]}),
        "matrix": write(tmp_path, "matrix.json", {"kind": "matrix", "dim": 2}),
        "broken": write(tmp_path, "broken.json", BROKEN_TABLE),
        "garbage": write(tmp_path, "garbage.json", "{not json"[:-1]),
    }


def test_validate_exit_codes(docs, tmp_path, capsys):
    assert cli.main(["validate", docs["bool3"]]) == 0
    assert cli.main(["validate", docs["broken"]]) == 1  # 1+2 defined breaks E4
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json }")
    assert cli.main(["validate", str(bad)]) == 2
    capsys.readouterr()


def test_analyze_output(docs, capsys):
    assert cli.main(["analyze", docs["mv83"]]) == 0
    out = capsys.readouterr().out
    assert "spectral: yes" in out and "blocks: 1" in out and "|P|: 8" in out
    assert cli.main(["analyze", docs["mo2"]]) == 0
    out = capsys.readouterr().out
    assert "spectral: no" in out
    assert "sharp-elements-are-projections" in out  # P != sharp set
    assert cli.main(["analyze", docs["hsum"]]) == 0
    out = capsys.readouterr().out
    assert "spectral: no" in out


def test_spectral_table_and_lambda(docs, capsys):
    assert cli.main(["spectral", docs["mv83"], "--element", "2,4,7", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "p[     1/4] = 100" in out
    assert "p[     1/2] = 110" in out
    assert cli.main(["spectral", docs["mv83"], "--element", "2,4,7",
                     "--lambda", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "p[1/3] = 100" in out


def test_spectral_csv_and_json(docs, capsys):
    assert cli.main(["--format", "csv", "spectral", docs["mv83"],
                     "--element", "2,4,7", "--depth", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "level,k,lambda,projection"
    assert len(out) == 4  # header + 0, 1/2, 1
    assert cli.main(["--format", "json", "spectral", docs["mv83"],
                     "--element", "2,4,7", "--depth", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"][1]["lambda"] == "1/2"
    assert payload["entries"][1]["projection"] == "110"


def test_analyze_on_a_matrix_document(docs, capsys):
    assert cli.main(["analyze", docs["matrix"]]) == 0
    assert capsys.readouterr().out == "kind: matrix dim 2\ncarrier: not enumerable\nspectral: yes\n"
    assert cli.main(["--format", "json", "analyze", docs["matrix"]]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "matrix", "spectral": True}


def test_spectral_listing_on_a_boolean_prints_bitmasks(docs, capsys):
    """p_lambda = a' below 1 and the unit at 1, each as its bitmask."""
    assert cli.main(["spectral", docs["bool3"], "--element", "5", "--depth", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  p[       0] = 2", "  p[     1/2] = 2", "  p[       1] = 7"]


def test_check_spectral_exit_codes(docs, capsys):
    assert cli.main(["check-spectral", docs["bool3"]]) == 0
    assert cli.main(["check-spectral", docs["mo2"]]) == 1
    assert cli.main(["check-spectral", docs["hsum"]]) == 1
    capsys.readouterr()


def test_group_command(docs, capsys):
    assert cli.main(["group", docs["mv83"], "--g", "3,-1,0", "--lambda", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "[8, 8, 8]" in out
    assert cli.main(["group", docs["mv83"], "--g", "3,-1,0",
                     "--approx=-2:2:1", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "error" in out
    # pastings have no integer group
    assert cli.main(["group", docs["hsum"], "--g", "1"]) == 2
    capsys.readouterr()


def test_group_names_why_a_carrier_has_no_integer_group(tmp_path):
    """``group`` exits 2 on a carrier that is no grid, with a message that
    names the reason of its kind; only the pastings have torsion, and a
    product with a pasting factor gives that factor's reason."""
    chain = {"kind": "table", "n": 2, "zero": 0, "one": 1,
             "sums": [[0, 0, 0], [0, 1, 1], [1, 0, 1]]}
    pasting = ("error: only grid instances carry a torsion-free integer group; "
               "zero-one pastings admit 2e = 2f = 1 with e != f\n")
    want = {
        "prod": (PRODUCT_DOC, "error: the group oracle covers grid instances only; "
                              "the group of a product is not built\n"),
        "table": (chain, "error: the group oracle covers grid instances only; "
                         "a table names no group\n"),
        "matrix": ({"kind": "matrix", "dim": 2}, "error: the group oracle covers grid "
                   "instances only; the group of a matrix algebra is its self-adjoint "
                   "matrices, not Z^d\n"),
        "mo2": ({"kind": "mo2"}, pasting),
        "mo2-prod": ({"kind": "product", "factors": [{"kind": "mo2"},
                                                     {"kind": "boolean", "n_atoms": 1}]},
                     pasting),
    }
    for name, (doc, err) in want.items():
        assert run_cli(["group", write(tmp_path, f"{name}.json", doc), "--g", "1"]) == (2, err)


def test_expect_command(docs, capsys):
    assert cli.main(["expect", docs["mv83"], "--element", "2,4,7",
                     "--state", "1/3,1/3,1/3", "--depth", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/3 <= s(a) <= 7/12" in out
    assert "13/24" in out


def test_matrix_spectral(docs, capsys):
    assert cli.main(["spectral", docs["matrix"], "--element",
                     "1/2,1/4,1/4,1/2", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_matrix_projections_print_no_negative_zero(docs, capsys):
    """An entry that rounds to zero prints as 0.0, never -0.0, in every
    format and in a --lambda answer: the effect with eigenvalues 3/4 and 1
    under the rotation (4/5, -3/5) gives entries of about -1e-17."""
    element = "91/100,-3/25,-3/25,21/25"
    for fmt in ("table", "json", "csv"):
        assert cli.main(["--format", fmt, "spectral", docs["matrix"], "--element", element,
                         "--depth", "8"]) == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out and out.count("0.0") >= 4 * 192, fmt
    assert cli.main(["--format", "json", "spectral", docs["matrix"], "--element", element,
                     "--lambda", "1/3"]) == 0
    assert json.loads(capsys.readouterr().out)["projection"] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("element, depth, lam, message", [
    ("3", "4", "1/3", "error: resolution jumps inside the depth-4 cell around 1/3; "
                      "increase depth\n"),
    ("5", "8", "31/50", "error: meet still changing at depth 8; increase depth\n"),
], ids=["jump-inside-the-cell", "meet-still-moving"])
def test_unstable_names_its_cause(tmp_path, capsys, element, depth, lam, message):
    """On the chain mv(8,1): 3/8 jumps inside the depth-4 cell around 1/3,
    where the meet does not move; at 31/50 the depth-8 meet of 5/8 still
    moves.  Both exit 2 with one error line."""
    l8 = write(tmp_path, "l8.json", {"kind": "mv_product", "denominator": 8, "arity": 1})
    assert cli.main(["spectral", l8, "--element", element, "--depth", depth,
                     "--lambda", lam]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_not_spectral_command_errors(docs, capsys):
    code = cli.main(["spectral", docs["mo2"], "--element", "2", "--depth", "2"])
    assert code == 2
    capsys.readouterr()


def closed_form_rows(c, k, n):
    """(level, num, lambda text, projection) per depth-n grid point, from the
    closed-form tree of the grid element with numerators c over k."""
    from fractions import Fraction

    from effalg import core, instances

    E = core.GridAlgebra(k, len(c))
    tree = instances.closed_form_mv_resolution(E, E.index_of(c), n)
    joins = {int("0" + "".join(map(str, w)), 2) + 1: E.coords[u] > 0
             for w, u in tree.layer(n)}
    on = E.coords[tree.u(())] == 0 if tree._u else [True] * len(c)
    rows = []
    for j in range(2 ** n + 1):
        if j in joins:
            on = [x or y for x, y in zip(on, joins[j])]
        lam = Fraction(j, 2 ** n)
        level = lam.denominator.bit_length() - 1
        text = str(lam.numerator) if level == 0 else f"{lam.numerator}/{lam.denominator}"
        rows.append((level, lam.numerator, text, "".join("1" if x else "0" for x in on)))
    return rows


def test_spectral_depth10_pinned(docs, capsys):
    rows = closed_form_rows([2, 4, 7], 8, 10)
    assert cli.main(["spectral", docs["mv83"], "--element", "2,4,7", "--depth", "10"]) == 0
    assert capsys.readouterr().out == "".join(
        ["binary resolution of 2/8,4/8,7/8 to depth 10\n"]
        + [f"  p[{lam:>8}] = {p}\n" for _, _, lam, p in rows])
    assert cli.main(["--format", "csv", "spectral", docs["mv83"], "--element", "2,4,7",
                     "--depth", "10"]) == 0
    assert capsys.readouterr().out == "".join(
        ["level,k,lambda,projection\n"] + [f"{lv},{k},{lam},{p}\n" for lv, k, lam, p in rows])
    assert cli.main(["--format", "json", "spectral", docs["mv83"], "--element", "2,4,7",
                     "--depth", "10"]) == 0
    want = {"element": "2/8,4/8,7/8", "depth": 10,
            "entries": [{"level": lv, "k": k, "lambda": lam, "projection": p}
                        for lv, k, lam, p in rows]}
    assert capsys.readouterr().out == json.dumps(want) + "\n"


def test_bad_depth_exits_2(docs, capsys):
    for argv in (["spectral", docs["mv83"], "--element", "2,4,7", "--depth", "-3"],
                 ["spectral", docs["mv83"], "--element", "2,4,7", "--depth", "2.5"],
                 ["spectral", docs["mv83"], "--element", "2,4,7", "--depth", "x"],
                 ["spectral", docs["mv83"], "--element", "2,4,7",
                  "--depth", str(cli.MAX_LISTED_DEPTH + 1)],
                 ["expect", docs["mv83"], "--element", "2,4,7", "--state", "1/3,1/3,1/3",
                  "--depth", "-1"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    assert cli.main(["spectral", docs["mv83"], "--element", "2,4,7",
                     "--depth", str(cli.MAX_LISTED_DEPTH + 1)]) == 2
    assert "--lambda" in capsys.readouterr().err


def test_depth_past_the_bound_exits_2_at_once(docs):
    """``spectral --lambda`` and ``expect`` refuse a depth past
    ``spectral.MAX_DEPTH`` before they resolve anything."""
    import time

    message = "error: depth 64000 is past the bound MAX_DEPTH = 512\n"
    for argv in (["spectral", docs["mv83"], "--element", "2,4,7", "--lambda", "1/3"],
                 ["spectral", docs["mv83"], "--element", "2,4,7"],
                 ["spectral", docs["matrix"], "--element", "1/2,0,0,1/4", "--lambda", "1/3"],
                 ["expect", docs["mv83"], "--element", "2,4,7", "--state", "1/3,1/3,1/3"]):
        t0 = time.perf_counter()
        assert run_cli(argv + ["--depth", "64000"]) == (2, message), argv
        assert time.perf_counter() - t0 < 1.0, argv
    assert run_cli(["spectral", docs["mv83"], "--element", "2,4,7", "--lambda", "1/3",
                    "--depth", "512"])[0] == 0


def test_lambda_at_depth_64(docs, capsys):
    from effalg import core, groups, instances

    E = core.GridAlgebra(8, 3)
    G = instances.universal_group(E)
    p = groups.group_spectral(G, [2, 4, 7], 1, 3)
    want = "".join("1" if x > 0 else "0" for x in p)
    assert cli.main(["spectral", docs["mv83"], "--element", "2,4,7", "--lambda", "1/3",
                     "--depth", "64"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"p[1/3] = {want} (stable from depth ")


def test_validate_scans_the_top_level_instance_once(tmp_path, monkeypatch, capsys):
    from effalg import compbase, core, instances

    doc = write(tmp_path, "prod.json",
                {"kind": "product", "factors": [{"kind": "boolean", "n_atoms": 1},
                                                {"kind": "mv_product", "denominator": 4,
                                                 "arity": 1}]})
    calls = []

    def counted(name, fn):
        def wrapper(E, *args, **kwargs):
            calls.append((name, E.kind))
            return fn(E, *args, **kwargs)
        return wrapper

    axioms = counted("axioms", core.validate_axioms)
    base = counted("base", compbase.validate_base)
    for owner in (core, instances):
        monkeypatch.setattr(owner, "validate_axioms", axioms)
    for owner in (compbase, instances):
        monkeypatch.setattr(owner, "validate_base", base)
    assert cli.main(["--format", "json", "validate", doc]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert calls.count(("axioms", "product")) == 1
    assert calls.count(("base", "product")) == 1
    # the factors are still validated as they load
    assert calls.count(("axioms", "boolean")) == calls.count(("axioms", "mv_product")) == 1
    calls.clear()
    assert cli.main(["analyze", doc]) == 0  # other commands validate at load
    capsys.readouterr()
    assert calls.count(("axioms", "product")) == calls.count(("base", "product")) == 1


def test_validate_reports_a_broken_law_with_exit_1(tmp_path, capsys):
    """A document that parses but breaks a law: validate prints the failing
    report and exits 1; a command that needs a valid instance exits 2."""
    doc = write(tmp_path, "bprod.json",
                {"kind": "product", "factors": [BROKEN_TABLE, {"kind": "boolean", "n_atoms": 1}]})
    assert cli.main(["validate", doc]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("axioms on product (6 elements): FAIL")
    assert "FAIL E4-unit-maximal" in out.out
    assert cli.main(["--format", "json", "validate", doc]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
    assert cli.main(["analyze", doc]) == 2
    assert capsys.readouterr().err.startswith("error: bad instance document: product: axioms")


def run_cli(argv):
    """(exit code, stderr) of one in-process run; argparse's own exits included."""
    import contextlib
    import io

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def small_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    return {
        "l4": write(root, "l4.json", {"kind": "mv_product", "denominator": 4, "arity": 1}),
        "mv42": write(root, "mv42.json", {"kind": "mv_product", "denominator": 4, "arity": 2}),
        "matrix": write(root, "matrix.json", {"kind": "matrix", "dim": 2}),
    }


MALFORMED = [
    ["group", "l4", "--g", "1,2,x"],
    ["group", "l4", "--g", "1", "--approx=bad"],
    ["group", "l4", "--g", "1", "--approx=0:3:0"],
    ["group", "l4", "--g", "2", "--approx=5:0:1"],
    ["group", "l4", "--g", "1", "--lambda", "1/0"],
    ["group", "l4", "--g", "99999999999999999999999"],
    ["spectral", "l4", "--element", "1", "--lambda", "1/0"],
    ["spectral", "l4", "--element", "1", "--lambda", "abc"],
    ["spectral", "l4", "--element", "1", "--lambda", "3/2"],
    ["spectral", "mv42", "--element", "zz"],
    ["spectral", "mv42", "--element", "1/0,1"],
    ["spectral", "mv42", "--element", "{bad"],
    ["spectral", "matrix", "--element", "1,2,x"],
    ["spectral", "matrix", "--element", "1,2,3"],
    ["expect", "l4", "--element", "1", "--state", "1/0"],
    ["expect", "l4", "--element", "1", "--state", "x"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_option_exits_2(argv, small_docs):
    code, err = run_cli([small_docs.get(a, a) for a in argv])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_approximation_grid_past_int64_exits_2(small_docs):
    """scale * g = 3 * 2^62 is not bracketed by [-2^60, 2^60]."""
    code, err = run_cli(["group", small_docs["l4"], "--g", "3",
                         "--approx=-1152921504606846976:1152921504606846976:1152921504606846976",
                         "--scale", "4611686018427387904"])
    assert code == 2
    assert err.startswith("error: ") and "does not bracket" in err


BAD_VALUES = [
    (["spectral", "l4", "--element", "1", "--lambda", "3/2"], "lambda must lie in [0, 1]"),
    (["group", "l4", "--g", "1", "--approx=1:1:1"], "grid needs at least two points"),
    (["group", "l4", "--g", "1", "--approx=2:-2:-1"], "grid must be nondecreasing"),
    (["expect", "l4", "--element", "1", "--state", "1/2,1/2"],
     "need nonnegative weights summing to one, one per coordinate"),
]


@pytest.mark.parametrize("argv, message", BAD_VALUES, ids=[" ".join(a) for a, _ in BAD_VALUES])
def test_values_the_library_refuses_exit_2_through_main(argv, message, small_docs, monkeypatch):
    """A well-formed value that the library refuses raises ``MalformedInput``,
    an ``EffalgError`` and a ``ValueError``; ``main`` prints it as one
    ``error:`` line with exit 2, and no command catches it on its own."""
    caught, real = [], cli._fail

    def fail(message, code):
        caught.append(sys._getframe(1).f_code.co_name)  # the function that printed
        return real(message, code)

    monkeypatch.setattr(cli, "_fail", fail)
    code, err = run_cli([small_docs.get(a, a) for a in argv])
    assert (code, err) == (2, f"error: {message}\n")
    assert caught == ["main"]


# option values the fuzz test draws from: numbers, fractions, lists, and junk
_token = st.one_of(st.integers(-20, 20).map(str),
                   st.tuples(st.integers(-9, 9), st.integers(-3, 9)).map("{0[0]}/{0[1]}".format),
                   st.text(alphabet="0123456789/-,:.xe {}[]\"", max_size=10))
_value = st.one_of(_token, st.lists(_token, min_size=1, max_size=4).map(",".join),
                   st.lists(_token, min_size=1, max_size=3).map(":".join))
_depth = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["x", "2.5", "", "1e3"]))


@st.composite
def _fuzzed_argv(draw):
    """A command on one of ``small_docs``, named by its key, with drawn options."""
    command = draw(st.sampled_from(["spectral", "group", "expect"]))
    argv = [command, draw(st.sampled_from(["l4", "matrix", "mv42"]))]
    options = {"spectral": ("--element", "--lambda", "--depth"),
               "group": ("--g", "--lambda", "--approx"),
               "expect": ("--element", "--state", "--depth")}[command]
    for option in options:
        if draw(st.booleans()):
            value = draw(_depth if option == "--depth" else _value)
            argv.append(f"{option}={value}")
    if command == "spectral" and not any(a.startswith("--lambda") for a in argv):
        argv.append("--depth=3")  # keep listings short; --depth is drawn above otherwise
    return argv


@example(["spectral", "l4", "--element=0", "--lambda=0", "--depth=0"])  # was an IndexError
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzzed_argv())
def test_option_fuzz_never_tracebacks(small_docs, argv):
    argv = [argv[0], small_docs[argv[1]], *argv[2:]]
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)


PRODUCT_DOC = {"kind": "product", "factors": [{"kind": "boolean", "n_atoms": 2},
                                              {"kind": "mv_product", "denominator": 8,
                                               "arity": 3}]}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_spectral_element_by_its_factors(tmp_path, capsys, fmt):
    """``--element '{"factors": [fa, fb]}'`` on the product document prints
    what the element's index prints; a one- or three-item list exits 2."""
    from effalg import instances

    path = write(tmp_path, "prod.json", PRODUCT_DOC)
    E, _ = instances.parse_document(PRODUCT_DOC)
    index = str(E.pair_index(2, E.right.index_of([2, 4, 7])))
    outs = []
    for element in ('{"factors": [2, "2,4,7"]}', index):
        assert cli.main(["--format", fmt, "spectral", path, "--element", element,
                         "--depth", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""
    for bad in ('{"factors": [2]}', '{"factors": [2, "2,4,7", 0]}'):
        code, err = run_cli(["spectral", path, "--element", bad])
        assert code == 2 and err.startswith("error: bad --element value"), (bad, err)


def test_a_product_element_of_the_wrong_form_names_the_form(tmp_path):
    """A ``{"factors": ...}`` element that is not a list of two items exits
    2 with one ``error:`` line that names the product, by its factors'
    kinds, and the form an element of it takes, and shows what it got."""
    path = write(tmp_path, "prod.json", PRODUCT_DOC)
    form = ('an element of the product boolean x mv_product is {"factors": '
            '[an element of boolean, an element of mv_product]}, two items')
    for bad, got in (('{"factors": [2]}', "[2]"), ('{"factors": []}', "[]"),
                     ('{"factors": [2, "2,4,7", 0]}', "[2, '2,4,7', 0]"),
                     ('{"factors": 3}', "3"), ('{"factors": "27"}', "'27'")):
        code, err = run_cli(["spectral", path, "--element", bad])
        assert code == 2, (bad, err)
        assert err == f"error: bad --element value {bad!r}: {form}, not {got}\n", err


AXIOM_ROWS = ["E1-commutative", "E2-associative", "E3-orthosupplement-exists",
              "E3-orthosupplement-valid", "E3-orthosupplement-unique", "E4-unit-maximal",
              "cancellation"]
BASE_ROWS = ["P-sub-effect-algebra", "C1-compressions", "supplement-pairing",
             "C2-composition", "P-normal", "triple-law"]
PRODUCT_VALIDATE_TEXT = """\
axioms on product (2916 elements): PASS
  PASS [structural] E1-commutative (direct product boolean x mv_product)
  PASS [structural] E2-associative (direct product boolean x mv_product)
  PASS [structural] E3-orthosupplement-exists (direct product boolean x mv_product)
  PASS [structural] E3-orthosupplement-valid (direct product boolean x mv_product)
  PASS [structural] E3-orthosupplement-unique (direct product boolean x mv_product)
  PASS [structural] E4-unit-maximal (direct product boolean x mv_product)
  PASS [structural] cancellation (direct product boolean x mv_product)
  axioms on boolean (4 elements): PASS
    PASS [structural] E1-commutative (direct product boolean x boolean)
    PASS [structural] E2-associative (direct product boolean x boolean)
    PASS [structural] E3-orthosupplement-exists (direct product boolean x boolean)
    PASS [structural] E3-orthosupplement-valid (direct product boolean x boolean)
    PASS [structural] E3-orthosupplement-unique (direct product boolean x boolean)
    PASS [structural] E4-unit-maximal (direct product boolean x boolean)
    PASS [structural] cancellation (direct product boolean x boolean)
    axioms on boolean (2 elements): PASS
      PASS E1-commutative
      PASS E2-associative
      PASS E3-orthosupplement-exists
      PASS E3-orthosupplement-valid
      PASS E3-orthosupplement-unique
      PASS E4-unit-maximal
      PASS cancellation
    axioms on boolean (2 elements): PASS
      PASS E1-commutative
      PASS E2-associative
      PASS E3-orthosupplement-exists
      PASS E3-orthosupplement-valid
      PASS E3-orthosupplement-unique
      PASS E4-unit-maximal
      PASS cancellation
  axioms on mv_product (729 elements): PASS
    PASS [structural] E1-commutative (direct product mv_product x mv_product)
    PASS [structural] E2-associative (direct product mv_product x mv_product)
    PASS [structural] E3-orthosupplement-exists (direct product mv_product x mv_product)
    PASS [structural] E3-orthosupplement-valid (direct product mv_product x mv_product)
    PASS [structural] E3-orthosupplement-unique (direct product mv_product x mv_product)
    PASS [structural] E4-unit-maximal (direct product mv_product x mv_product)
    PASS [structural] cancellation (direct product mv_product x mv_product)
    axioms on mv_product (9 elements): PASS
      PASS E1-commutative
      PASS E2-associative
      PASS E3-orthosupplement-exists
      PASS E3-orthosupplement-valid
      PASS E3-orthosupplement-unique
      PASS E4-unit-maximal
      PASS cancellation
    axioms on mv_product (81 elements): PASS
      PASS [structural] E1-commutative (direct product mv_product x mv_product)
      PASS [structural] E2-associative (direct product mv_product x mv_product)
      PASS [structural] E3-orthosupplement-exists (direct product mv_product x mv_product)
      PASS [structural] E3-orthosupplement-valid (direct product mv_product x mv_product)
      PASS [structural] E3-orthosupplement-unique (direct product mv_product x mv_product)
      PASS [structural] E4-unit-maximal (direct product mv_product x mv_product)
      PASS [structural] cancellation (direct product mv_product x mv_product)
      axioms on mv_product (9 elements): PASS
        PASS E1-commutative
        PASS E2-associative
        PASS E3-orthosupplement-exists
        PASS E3-orthosupplement-valid
        PASS E3-orthosupplement-unique
        PASS E4-unit-maximal
        PASS cancellation
      axioms on mv_product (9 elements): PASS
        PASS E1-commutative
        PASS E2-associative
        PASS E3-orthosupplement-exists
        PASS E3-orthosupplement-valid
        PASS E3-orthosupplement-unique
        PASS E4-unit-maximal
        PASS cancellation
compression base on product (|P|=32): PASS
  PASS [structural] P-sub-effect-algebra (product base J_(p1,p2) = J_p1 x J_p2)
  PASS [structural] C1-compressions (product base J_(p1,p2) = J_p1 x J_p2)
  PASS [structural] supplement-pairing (product base J_(p1,p2) = J_p1 x J_p2)
  PASS [structural] C2-composition (product base J_(p1,p2) = J_p1 x J_p2)
  PASS [structural] P-normal (product base J_(p1,p2) = J_p1 x J_p2)
  PASS [structural] triple-law (product base J_(p1,p2) = J_p1 x J_p2)
  compression base on boolean (|P|=4): PASS
    PASS [structural] P-sub-effect-algebra (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] C1-compressions (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] supplement-pairing (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] C2-composition (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] P-normal (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] triple-law (product base J_(p1,p2) = J_p1 x J_p2)
    compression base on boolean (|P|=2): PASS
      PASS P-sub-effect-algebra
      PASS C1-compressions (2 of 2 maps checked)
      PASS supplement-pairing
      PASS C2-composition
      PASS P-normal
      PASS triple-law
    compression base on boolean (|P|=2): PASS
      PASS P-sub-effect-algebra
      PASS C1-compressions (2 of 2 maps checked)
      PASS supplement-pairing
      PASS C2-composition
      PASS P-normal
      PASS triple-law
  compression base on mv_product (|P|=8): PASS
    PASS [structural] P-sub-effect-algebra (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] C1-compressions (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] supplement-pairing (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] C2-composition (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] P-normal (product base J_(p1,p2) = J_p1 x J_p2)
    PASS [structural] triple-law (product base J_(p1,p2) = J_p1 x J_p2)
    compression base on mv_product (|P|=2): PASS
      PASS P-sub-effect-algebra
      PASS C1-compressions (2 of 2 maps checked)
      PASS supplement-pairing
      PASS C2-composition
      PASS P-normal
      PASS triple-law
    compression base on mv_product (|P|=4): PASS
      PASS [structural] P-sub-effect-algebra (product base J_(p1,p2) = J_p1 x J_p2)
      PASS [structural] C1-compressions (product base J_(p1,p2) = J_p1 x J_p2)
      PASS [structural] supplement-pairing (product base J_(p1,p2) = J_p1 x J_p2)
      PASS [structural] C2-composition (product base J_(p1,p2) = J_p1 x J_p2)
      PASS [structural] P-normal (product base J_(p1,p2) = J_p1 x J_p2)
      PASS [structural] triple-law (product base J_(p1,p2) = J_p1 x J_p2)
      compression base on mv_product (|P|=2): PASS
        PASS P-sub-effect-algebra
        PASS C1-compressions (2 of 2 maps checked)
        PASS supplement-pairing
        PASS C2-composition
        PASS P-normal
        PASS triple-law
      compression base on mv_product (|P|=2): PASS
        PASS P-sub-effect-algebra
        PASS C1-compressions (2 of 2 maps checked)
        PASS supplement-pairing
        PASS C2-composition
        PASS P-normal
        PASS triple-law
"""


def _report(title, names, mode="full", details=None, parts=None):
    details = details or {}
    out = {"title": title, "passed": True,
           "checks": [{"name": n, "passed": True, "mode": mode, "witness": None,
                       "detail": details.get(n, details.get(None, ""))} for n in names]}
    if parts:
        out["parts"] = parts
    return out


def test_validate_product_output_pinned(tmp_path, capsys):
    """Products, grids and Boolean algebras are validated through their
    factors: structural rows whose detail names the construction, the
    factor reports nested as parts, down to the chains, which are scanned."""
    doc = write(tmp_path, "prod.json", PRODUCT_DOC)
    assert cli.main(["validate", doc]) == 0
    assert capsys.readouterr().out == PRODUCT_VALIDATE_TEXT
    assert cli.main(["--format", "json", "validate", doc]) == 0

    def axioms(kind, size, parts=None, kinds=None):
        if not parts:
            return _report(f"axioms on {kind} ({size} elements)", AXIOM_ROWS)
        return _report(f"axioms on {kind} ({size} elements)", AXIOM_ROWS, "structural",
                       {None: f"direct product {kinds or f'{kind} x {kind}'}"}, parts)

    def base(kind, m, parts=None):
        if not parts:
            return _report(f"compression base on {kind} (|P|={m})", BASE_ROWS,
                           details={"C1-compressions": f"{m} of {m} maps checked"})
        return _report(f"compression base on {kind} (|P|={m})", BASE_ROWS, "structural",
                       {None: "product base J_(p1,p2) = J_p1 x J_p2"}, parts)

    b1, l8 = axioms("boolean", 2), axioms("mv_product", 9)
    cb1, cl8 = base("boolean", 2), base("mv_product", 2)
    want = {"passed": True, "reports": [
        axioms("product", 2916, [
            axioms("boolean", 4, [b1, b1]),
            axioms("mv_product", 729, [l8, axioms("mv_product", 81, [l8, l8])]),
        ], "boolean x mv_product"),
        base("product", 32, [
            base("boolean", 4, [cb1, cb1]),
            base("mv_product", 8, [cl8, base("mv_product", 4, [cl8, cl8])])])]}
    assert json.loads(capsys.readouterr().out) == want


FOUND_TABLE = {"kind": "table", "n": 3, "zero": 0, "one": 2,
               "sums": [[1, 1, 2], [0, 2, 2], [2, 0, 2], [0, 0, 0]]}


def test_table_without_a_meet_is_reported_not_raised(tmp_path, capsys):
    """0 and 1 have no common lower bound here, so the central base is
    empty: validate reports the broken laws, and the commands that need a
    base exit 2 with an error line."""
    doc = write(tmp_path, "found.json", FOUND_TABLE)
    assert cli.main(["validate", doc]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[-2:] == ["compression base on table (|P|=0): FAIL",
                                         "  FAIL P-sub-effect-algebra"]
    assert "FAIL E2-associative witness=(1, 1, 0)" in out.out
    for command in ("analyze", "check-spectral"):
        code, err = run_cli([command, doc])
        assert code == 2
        assert err == "error: the compression base on table has no projections\n"
    # a central base that misses the orthosupplement 2 of its member 0
    broken = write(tmp_path, "broken.json", BROKEN_TABLE)
    for command in ("analyze", "check-spectral"):
        assert run_cli([command, broken]) == (
            2, "error: the compression base on table has no map at 2\n")


def _nested_products(depth):
    """The text of a product document nested ``depth`` deep, built as text:
    ``json.dumps`` cannot write one deeper than the recursion limit."""
    leaf = '{"kind": "boolean", "n_atoms": 1}'
    text = leaf
    for _ in range(depth):
        text = '{"kind": "product", "factors": [' + text + ", " + leaf + "]}"
    return text


@pytest.mark.parametrize("depth, message", [
    (1200, "error: cannot read instance document: it nests too deep\n"),
    (100, "error: bad instance document: instance documents nest at most 64 levels deep\n"),
])
def test_deeply_nested_document_exits_2(tmp_path, depth, message):
    path = tmp_path / "deep.json"
    path.write_text(_nested_products(depth))
    for command in ("validate", "analyze"):
        assert run_cli([command, str(path)]) == (2, message)


def test_deeply_nested_element_value_exits_2(docs):
    deep = '{"factors": ' + "[" * 100_000 + "]" * 100_000 + "}"  # too deep for json.loads
    code, err = run_cli(["spectral", docs["mv83"], "--element", deep])
    assert code == 2 and err.startswith("error: bad --element value")


@pytest.mark.parametrize("kind, key, form", [
    ("product", "factors", "the left factor, the right factor"),
    ("horizontal_sum", "parts", "part 0, part 1"),
    ("horizontal_sum", "states", "a state of part 0, a state of part 1"),
])
def test_a_pair_of_the_wrong_form_exits_2(tmp_path, kind, key, form):
    """A product's ``factors``, or a horizontal sum's ``parts`` or
    ``states``, that is not a list of two items exits 2 with one ``error:``
    line that names the kind and the form it needs, and shows what it got."""
    ident = [f"{i}/8" for i in range(9)]
    good = {"kind": kind, "factors": [L8_DOC, L8_DOC]} if kind == "product" else \
        {"kind": kind, "parts": [L8_DOC, L8_DOC], "states": [ident, ident]}
    for bad in (good[key][:1], good[key] + good[key][:1], dict(zip("ab", good[key]))):
        path = write(tmp_path, "bad.json", {**good, key: bad})
        for command in ("validate", "analyze"):
            assert run_cli([command, path]) == (
                2, f'error: bad instance document: a {kind} document has "{key}": '
                   f"[{form}], two items, not {bad!r}\n"), (command, bad)


# ---------------------------------------------------------------------------
# the validate contract

L8_DOC = {"kind": "mv_product", "denominator": 8, "arity": 1}
CONTRACT_DOCS = {  # the documents of the benchmark's cli workload, then two more
    "mv83": {"kind": "mv_product", "denominator": 8, "arity": 3},
    "mv162": {"kind": "mv_product", "denominator": 16, "arity": 2},
    "prod": PRODUCT_DOC,
    "hsum": {"kind": "horizontal_sum", "parts": [L8_DOC, L8_DOC],
             "states": [[f"{i}/8" for i in range(9)]] * 2},
    "mo2": {"kind": "mo2"},
    "mat2": {"kind": "matrix", "dim": 2},
    "l4": {"kind": "mv_product", "denominator": 4, "arity": 1},
    "bool3": {"kind": "boolean", "n_atoms": 3},
    "broken": BROKEN_TABLE,
}


@pytest.mark.parametrize("name", list(CONTRACT_DOCS))
def test_validate_prints_the_reports_the_load_keeps(name, tmp_path, capsys):
    """``validate`` loads unchecked and then runs the very scans that a
    checked load runs: its JSON is the reports that a plain
    ``parse_document`` keeps (``table`` documents are never checked as they
    load; their reports are made on request, as for a lazy carrier)."""
    from effalg import compbase, core, instances

    doc = CONTRACT_DOCS[name]
    code = cli.main(["--format", "json", "validate", write(tmp_path, f"{name}.json", doc)])
    got = json.loads(capsys.readouterr().out)
    E, cb = instances.parse_document(doc)
    reports = [core.validate_axioms(E)]
    if E.enumerable:
        reports.append(compbase.validate_base(E, cb))
        if doc["kind"] != "table":  # kept by the load, not made just now
            assert reports[0] is E._reports["axioms"] and reports[1] is cb._reports["base"]
    want = {"passed": all(r.passed for r in reports), "reports": [r.to_dict() for r in reports]}
    assert got == json.loads(json.dumps(want, default=str))
    assert code == (1 if name == "broken" else 0)


def test_seed_is_not_an_option(small_docs):
    code, err = run_cli(["--seed", "0", "validate", small_docs["l4"]])
    assert code == 2 and err.startswith("usage: effalg ") and "error:" in err
    assert "Traceback" not in err


def test_optimized_interpreter_prints_the_same(tmp_path):
    """``python -O`` strips ``assert`` statements.  No invariant rests on
    one, so a broken law and a resolution print the same bytes and exit
    with the same code under it."""
    import os
    import subprocess
    import sys

    import effalg

    broken = write(tmp_path, "broken.json", BROKEN_TABLE)
    mv42 = write(tmp_path, "mv42.json", {"kind": "mv_product", "denominator": 4, "arity": 2})
    src = os.path.dirname(os.path.dirname(os.path.abspath(effalg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONOPTIMIZE", None)
    for argv, code in ((["validate", broken], 1), (["--format", "json", "validate", broken], 1),
                       (["spectral", mv42, "--element", "1,3"], 0),
                       (["spectral", mv42, "--element", "1,3", "--lambda", "1/3"], 0)):
        runs = [subprocess.run([sys.executable, *flags, "-m", "effalg.cli", *argv],
                               capture_output=True, env=env, timeout=120)
                for flags in ([], ["-O"])]
        plain, optimized = ((r.returncode, r.stdout, r.stderr) for r in runs)
        assert plain == optimized, argv
        assert plain[0] == code and plain[1], argv


_LOADED = ("import sys; print(sorted(m for m in ('numpy.random', 'numpy.ma') "
           "if m in sys.modules), file=sys.stderr)")


def _loaded(code):
    """The numpy modules of ``_LOADED`` that ``code`` leaves imported in a
    fresh interpreter, as printed; skips the test where a bare
    ``import numpy`` already imports them."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")])}

    def run(code):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0, done.stderr
        return done.stderr.strip().splitlines()[-1]

    if run("import numpy; " + _LOADED) != "[]":
        pytest.skip("a bare import numpy already loads them")
    return run(code + "; " + _LOADED)


def test_finite_commands_import_neither_numpy_random_nor_numpy_ma(tmp_path):
    """``validate`` and ``analyze`` on a grid document, each in a fresh
    interpreter, leave ``numpy.random`` and ``numpy.ma`` unimported: the
    scans draw no sample on a dense carrier and take distinct indices
    without ``np.unique``."""
    doc = write(tmp_path, "mv83.json", {"kind": "mv_product", "denominator": 8, "arity": 3})
    for command in ("validate", "analyze"):
        code = f"from effalg import cli; assert cli.main([{command!r}, {doc!r}]) == 0"
        assert _loaded(code) == "[]", command


@pytest.mark.parametrize("name", ["mo2", "hsum"])
def test_analyze_on_pastings_leaves_numpy_ma_out(name, tmp_path):
    """``analyze`` on MO2 and on L8+L8, carriers without factors whose
    blocks and C-blocks are scanned, in a fresh interpreter: the block check
    tells its atom masks apart with ``np.bincount``, not ``np.unique``, so
    neither ``numpy.ma`` nor ``numpy.random`` is imported."""
    doc = write(tmp_path, f"{name}.json", CONTRACT_DOCS[name])
    assert _loaded(f"from effalg import cli; assert cli.main(['analyze', {doc!r}]) == 0") == "[]"


def test_sampled_rows_name_their_work_and_the_budget(tmp_path, capsys, monkeypatch):
    """Under a budget of 60, ``validate`` on the chain mv(8,1) (n = 9,
    P = {0, 1}) samples its associativity (165 defined triples) and the
    additivity of its two maps over 45 defined pairs; each sampled row's
    detail says why, and a full row keeps its detail."""
    from effalg import core

    monkeypatch.setattr(core, "TRIPLE_BUDGET", 60)
    doc = write(tmp_path, "l8.json", {"kind": "mv_product", "denominator": 8, "arity": 1})
    assert cli.main(["--format", "json", "validate", doc]) == 0
    axioms, base = json.loads(capsys.readouterr().out)["reports"]
    rows = {c["name"]: (c["passed"], c["mode"], c["detail"])
            for c in axioms["checks"] + base["checks"]}
    assert rows["E2-associative"] == (True, "sampled", "defined triples = 165 over the budget 60")
    assert rows["C1-compressions"] == (True, "sampled",
                                       "m x defined pairs = 90 over the budget 60")
    assert {mode for _, mode, _ in rows.values()} == {"full", "sampled"}
    assert [name for name, (_, mode, _) in rows.items() if mode == "sampled"] == [
        "E2-associative", "C1-compressions"]
    monkeypatch.undo()
    assert cli.main(["--format", "json", "validate", doc]) == 0
    full = json.loads(capsys.readouterr().out)["reports"][1]["checks"]
    assert [c["detail"] for c in full if c["name"] == "C1-compressions"] == ["2 of 2 maps checked"]


@pytest.mark.parametrize("tol", [-1, float("nan"), 1e300, 0, 1e-15])
def test_a_matrix_tol_outside_its_range_exits_2(tmp_path, tol):
    """A matrix document whose ``tol`` lies outside [1e-12, 1e-6] exits 2
    with a message that names ``tol``: -1 and NaN leaked a ``TypeError``'s
    text, 1e300 resolved a matrix with an eigenvalue of 9, 0 raised
    ``NotCommuting`` in every resolution, and 1e-15 broke the orthogonality
    of trees."""
    doc = write(tmp_path, "matrix.json", {"kind": "matrix", "dim": 3, "tol": tol})
    for argv in (["spectral", doc, "--element", "9,0,0,0,1/2,0,0,0,1/4", "--depth", "3"],
                 ["spectral", doc, "--element", "1/2,0,0,0,1/2,0,0,0,1/4", "--depth", "3"],
                 ["validate", doc]):
        code, err = run_cli(argv)
        assert code == 2, (argv, err)
        assert err.startswith("error: ") and "tol must lie in [1e-12, 1e-6]" in err, err
