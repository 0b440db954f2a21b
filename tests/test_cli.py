import json

import pytest

from effalg import cli


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        "broken": write(tmp_path, "broken.json",
                        {"kind": "table", "n": 3, "zero": 0, "one": 2,
                         "sums": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 1, 2], [1, 2, 2]]}),
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
