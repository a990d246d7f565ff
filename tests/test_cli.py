"""End-to-end tests for the command-line interface."""

import json
import pathlib
import shlex

import pytest

from yosp import cli
from yosp.cli import main
from yosp.exact_arith import RatFunc, UniPoly, rat, rat_str


def test_build_and_verify_roundtrip(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    assert main(["elementary", "--alpha", "-1", "--beta", "0",
                 "--out", mod]) == 0
    assert main(["verify", "rtt", mod, "--seed", "1"]) == 0
    assert main(["verify", "central", mod]) == 0
    assert main(["verify", "gauss", mod, "--at", "7"]) == 0
    out = capsys.readouterr().out
    assert "rtt: pass" in out and "central: pass" in out and "gauss: pass" in out


def test_serialization_is_stable(tmp_path):
    m1 = tmp_path / "a.json"
    m2 = tmp_path / "b.json"
    main(["elementary", "--alpha=-5/2", "--beta=-3/2", "--out", str(m1)])
    main(["elementary", "--alpha=-5/2", "--beta=-3/2", "--out", str(m2)])
    assert m1.read_bytes() == m2.read_bytes()


def test_tensor_and_analysis_commands(tmp_path, capsys):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    t = str(tmp_path / "t.json")
    q = str(tmp_path / "q.json")
    main(["elementary", "--alpha", "-1", "--beta", "0", "--out", a])
    main(["elementary", "--alpha=-5/2", "--beta=-3/2", "--out", b])
    assert main(["tensor", "--in", a, "--in", b, "--out", t]) == 0
    assert main(["singular", t]) == 0
    assert "dim 2" in capsys.readouterr().out
    # a reducible module makes the irreducibility check exit nonzero
    assert main(["irreducible", t]) == 1
    assert main(["quotient", t, "--out", q]) == 0
    assert main(["irreducible", q]) == 0


def test_quotient_by_the_whole_module_is_a_usage_error(tmp_path, capsys):
    """A file whose highest_index is not the top vector makes the top vector
    a proper singular vector; it spans L(-2,0), so the quotient would be
    zero and `yosp quotient` exits 2 with that reason."""
    mod = tmp_path / "m.json"
    main(["elementary", "--alpha", "-2", "--beta", "0", "--out", str(mod)])
    d = json.loads(mod.read_text())
    d["highest_index"] = len(d["basis"]) - 1
    mod.write_text(json.dumps(d))
    assert main(["quotient", str(mod), "--out", str(tmp_path / "q.json")]) == 2
    assert "whole module, so the quotient is zero" in capsys.readouterr().err
    assert not (tmp_path / "q.json").exists()


def test_drinfeld_and_classify(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    main(["elementary", "--alpha", "-2", "--beta", "0", "--out", mod])
    assert main(["drinfeld", mod]) == 0
    assert "P(u) = (u-2)(u-1)" in capsys.readouterr().out
    assert main(["classify", mod]) == 0
    assert "finite-dimensional" in capsys.readouterr().out


def test_drinfeld_json_does_not_factor_p(tmp_path, monkeypatch, capsys):
    """--json prints P's coefficients without the display's root search."""
    mod = str(tmp_path / "m.json")
    main(["elementary", "--alpha", "-2", "--beta", "0", "--out", mod])
    capsys.readouterr()
    assert main(["drinfeld", mod, "--json"]) == 0
    want = json.loads(capsys.readouterr().out)

    def refuse(p):
        raise AssertionError("P was factored for display")
    monkeypatch.setattr(cli, "_fmt_poly", refuse)
    assert main(["drinfeld", mod, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == want == {"P": ["2", "-3", "1"]}


def test_character_and_osp_json_output(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    main(["elementary", "--alpha", "-2", "--beta", "0", "--out", mod])
    capsys.readouterr()
    assert main(["character", mod, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 6
    assert main(["osp", mod]) == 0
    assert "V(2) + V(0)" in capsys.readouterr().out


def test_small_verma_build_and_character(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    assert main(["small-verma", "--alpha=-1/3", "--beta", "0",
                 "--depth", "6", "--out", mod]) == 0
    assert main(["character", mod]) == 0


def test_demo_commands(capsys):
    assert main(["demo", "example-tpr"]) == 0
    out = capsys.readouterr().out
    assert "dim 9" in out and "dim 8" in out and "dim 1" in out
    assert "(u-5/2)(u-1/2) / (u-3/2)^2" in out
    assert main(["demo", "closing-example"]) == 0
    assert "match: True" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["elementary", "--alpha", "-1"])
    assert exc.value.code == 2


def test_truncated_analysis_reports_error(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    main(["small-verma", "--alpha=-1/3", "--beta", "0",
          "--depth", "4", "--out", mod])
    assert main(["irreducible", mod]) == 2
    assert "error" in capsys.readouterr().err


VERMA_INTEGER_GAP = ["small-verma", "--alpha=-2", "--beta=0", "--depth", "6"]


def test_reloaded_truncated_module_with_integer_gap_certifies(tmp_path, capsys):
    """M(-2,0) at depth 6 stays truncated after a reload, although beta-alpha
    is an integer: the verifiers compare only its interior columns."""
    mod = str(tmp_path / "m.json")
    assert main(VERMA_INTEGER_GAP + ["--out", mod]) == 0
    assert main(["verify", "rtt", mod]) == 0
    assert main(["verify", "central", mod]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("build, argv", [
    (VERMA_INTEGER_GAP, ["irreducible"]),
    (VERMA_INTEGER_GAP, ["osp"]),
    (VERMA_INTEGER_GAP, ["verify", "gauss"]),
    (["small-verma", "--alpha=-1/3", "--beta", "0", "--depth", "6"],
     ["verify", "gauss"]),
], ids=["irreducible", "osp", "gauss", "gauss-generic"])
def test_exact_only_analysis_refuses_a_truncated_file(tmp_path, capsys, build,
                                                      argv):
    mod = str(tmp_path / "m.json")
    assert main(build + ["--out", mod]) == 0
    capsys.readouterr()
    assert main(argv + [mod]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "truncated" in captured.err
    assert "FAIL" not in captured.out and "pass" not in captured.out


def test_verify_with_no_checked_column_is_a_usage_error(tmp_path, capsys):
    """Depth 3 leaves no column 4 levels below the cut: refuse, never pass."""
    mod = str(tmp_path / "m.json")
    assert main(["small-verma", "--alpha=-1/3", "--beta", "0",
                 "--depth", "3", "--out", mod]) == 0
    capsys.readouterr()
    assert main(["verify", "rtt", mod]) == 2
    assert main(["verify", "central", mod]) == 2
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert "error" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["small-verma", "--alpha=1/0", "--beta", "0", "--depth", "4",
      "--out", "m.json"], "not a"),
    (["small-verma", "--alpha=abc", "--beta", "0", "--depth", "4",
      "--out", "m.json"], "not a"),
    (["small-verma", "--alpha=-1/3", "--beta", "0", "--depth", "-1",
      "--out", "m.json"], "not a"),
    (["elementary", "--alpha=-1", "--beta=2/0", "--out", "m.json"], "not a"),
    (["verify", "rtt", "m.json", "--at", "3"], "unrecognized arguments: --at"),
    (["verify", "gauss", "m.json", "--seed", "4"],
     "unrecognized arguments: --seed"),
], ids=["alpha-1/0", "alpha-abc", "depth-negative", "elementary-beta-2/0",
        "verify-rtt-at", "verify-gauss-seed"])
def test_malformed_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, argv,
                                         message):
    """A bad flag value, or a flag the command does not use, exits 2 before
    any module file is read or written."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def _format_1(d):
    """The dense layout files had before format 2: no format key, every
    entry of every coefficient of T_ij as a flat row-major list."""
    n = len(d["basis"])
    d = {k: v for k, v in d.items() if k != "format"}
    flat = {}
    for key, coeffs in d["T"].items():
        flat[key] = []
        for triples in coeffs:
            vals = ["0"] * (n * n)
            for a, b, x in triples:
                vals[a * n + b] = x
            flat[key].append(vals)
    d["T"] = flat
    return d


def _format_2(d):
    """The layout files had before format 3: one "params" pair per factor
    and a single "depth" for the whole module."""
    d = dict(d, format=2, params=[[a, b] for a, b, _ in d["factors"]],
             depth=None)
    del d["factors"]
    return d


def _drop(key):
    def corrupt(d):
        del d[key]
        return d
    return corrupt


def _set_format(value):
    def corrupt(d):
        d["format"] = value
        return d
    return corrupt


def _delete_basis_entry(d):
    del d["basis"][-1]
    return d


def _index_out_of_range(d):
    d["T"]["21"][0].append([0, len(d["basis"]), "1"])
    return d


def _not_rational(d):
    d["T"]["11"][-1][0][2] = "1/0"
    return d


def _zero_entry(d):
    d["T"]["21"][0].append([0, 0, "0/5"])
    return d


def _bad_parity(d):
    d["basis"][0]["parity"] = 2
    return d


def _bad_depth(d):
    d["factors"][0][2] = -1
    return d


def _extra_factor(d):
    d["factors"].append(d["factors"][0])
    return d


def _extra_coefficient(d):
    d["T"]["11"].append([])
    return d


def _entry(value):
    def corrupt(d):
        d["T"]["11"][-1][0][2] = value
        return d
    return corrupt


def _float_weight(d):
    d["basis"][0]["weight"] = float(d["basis"][0]["weight"])
    return d


def _label(value):
    def corrupt(d):
        d["basis"][0]["labels"][0][0] = value
        return d
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: {}, "rebuild"),
    (_drop("format"), "rebuild"),
    (_format_1, "rebuild"),
    (_format_2, "rebuild"),
    (_set_format(99), "rebuild"),
    (_drop("denom"), "'denom'"),
    (_delete_basis_entry, "outside dimension 2"),
    (_index_out_of_range, "outside dimension 3"),
    (_not_rational, "p/0"),
    (_extra_coefficient, "coefficients"),
    (_zero_entry, "listed as 0"),
    (_bad_parity, "parity 2 is not 0 or 1"),
    (_bad_depth, "depth -1 is not a natural number"),
    (_extra_factor, "one pair per factor"),
    (_entry(0.1), "0.1 is not a rational written as a string"),
    (_entry(True), "True is not a rational written as a string"),
    (_float_weight, "1.0 is not a rational written as a string"),
    (_label(0.5), "a basis label is not a pair of integers"),
    (_label(False), "a basis label is not a pair of integers"),
], ids=["empty-object", "no-format", "format-1", "format-2", "unknown-format",
        "missing-key", "deleted-basis-entry", "index-out-of-range",
        "not-rational", "extra-coefficient", "zero-entry", "bad-parity",
        "bad-depth", "extra-factor", "float-entry", "bool-entry",
        "float-weight", "float-label", "bool-label"])
def test_malformed_module_file_is_a_usage_error(tmp_path, capsys, corrupt,
                                                message):
    mod = tmp_path / "m.json"
    assert main(["elementary", "--alpha", "-1", "--beta", "0",
                 "--out", str(mod)]) == 0
    mod.write_text(json.dumps(corrupt(json.loads(mod.read_text()))))
    capsys.readouterr()
    assert main(["verify", "rtt", str(mod)]) == 2
    captured = capsys.readouterr()
    assert "pass" not in captured.out and "FAIL" not in captured.out
    assert message in captured.err


# One exit-code table: a check that ran and failed prints FAIL and exits 1.

def _not_eigenvector(d):
    d["T"]["11"][0].append([1, d["highest_index"], "1"])
    return d


def _flip_sign(d):
    a, b, x = d["T"]["21"][1][0]
    d["T"]["21"][1][0] = [a, b, rat_str(-rat(x))]
    return d


def _flip_last_parity(d):
    """The last basis vector's parity flipped: still 0 or 1, so the file
    loads, but T_ij no longer respects the grading."""
    d["basis"][-1]["parity"] ^= 1
    return d


def _non_polynomial_c(d):
    """c(u) times (u+1/5)/(u+2/7): c(u) d(u-kappa) d(u) keeps a pole."""
    c = RatFunc(UniPoly([rat(x) for x in d["c"]["num"]]),
                UniPoly([rat(x) for x in d["c"]["den"]]))
    c = c * RatFunc.linear_ratio(rat(1, 5), rat(2, 7))
    d["c"] = {"num": [rat_str(x) for x in c.num.coeffs],
              "den": [rat_str(x) for x in c.den.coeffs]}
    return d


def _zero_top_weight(d):
    h = d["highest_index"]
    d["T"]["11"][1] = [t for t in d["T"]["11"][1] if t[:2] != [h, h]]
    return d


MOD = object()  # stands for the module file's path in argv
OUT = object()  # stands for an output file's path in argv
L2 = ["elementary", "--alpha", "-2", "--beta", "0"]
VERMA = ["small-verma", "--alpha=-1/3", "--beta", "0", "--depth", "6"]


@pytest.mark.parametrize("build, argv, corrupt, message", [
    (L2, ["classify", MOD], _not_eigenvector, "eigenvector"),
    (L2, ["drinfeld", MOD], _not_eigenvector, "eigenvector"),
    (VERMA, ["drinfeld", MOD], None, "deg P would be 1/3, not in Z_+"),
    (L2, ["verify", "rtt", MOD], _flip_sign, "RTT fails"),
    (L2, ["verify", "central", MOD], _flip_sign, "central relation fails"),
    (L2, ["verify", "central", MOD], _non_polynomial_c, "not a polynomial"),
    (L2, ["verify", "gauss", MOD], _flip_sign, "Gauss relations fail"),
    (L2, ["verify", "gauss", MOD, "--at", "0"], None, "d(0) = 0"),
    (L2, ["osp", MOD], _zero_top_weight, "F_11 entry"),
    (L2, ["verify", "rtt", MOD], _flip_last_parity, "grading fails"),
    (L2, ["verify", "central", MOD], _flip_last_parity, "grading fails"),
    (L2, ["verify", "gauss", MOD], _flip_last_parity, "grading fails"),
    (L2, ["irreducible", MOD], _flip_last_parity, "grading fails"),
    (L2, ["singular", MOD], _flip_last_parity, "grading fails"),
    (L2, ["quotient", MOD, "--out", OUT], _flip_last_parity, "grading fails"),
], ids=["classify-no-highest-vector", "drinfeld-no-highest-vector",
        "drinfeld-not-dominant", "rtt-relation-violation",
        "central-relation-violation", "central-non-polynomial-target",
        "gauss-relation-violation",
        "gauss-singular-matrix", "osp-weight-mismatch",
        "rtt-broken-grading", "central-broken-grading",
        "gauss-broken-grading", "irreducible-broken-grading",
        "singular-broken-grading", "quotient-broken-grading"])
def test_failed_check_exits_1(tmp_path, capsys, build, argv, corrupt, message):
    mod = tmp_path / "m.json"
    assert main(build + ["--out", str(mod)]) == 0
    if corrupt:
        mod.write_text(json.dumps(corrupt(json.loads(mod.read_text()))))
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = [str(mod) if a is MOD else str(out) if a is OUT else a
            for a in argv]
    assert main(argv) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL: ") and message in captured.out
    assert captured.err == ""


# A module file that cannot be read or written is a usage error.

@pytest.mark.parametrize("argv", [
    ["irreducible", "missing.json"],
    ["verify", "rtt", "."],
    ["elementary", "--alpha", "-1", "--beta", "0", "--out", "nodir/m.json"],
], ids=["missing-file", "directory", "missing-out-directory"])
def test_file_error_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err and "FAIL" not in captured.out


def test_tensor_of_one_module_is_a_usage_error(tmp_path, capsys):
    mod = str(tmp_path / "m.json")
    assert main(["elementary", "--alpha", "-1", "--beta", "0",
                 "--out", mod]) == 0
    capsys.readouterr()
    out = tmp_path / "t.json"
    assert main(["tensor", "--in", mod, "--out", str(out)]) == 2
    assert "at least two modules" in capsys.readouterr().err
    assert not out.exists()


def _readme_commands():
    """The lines of README.md's command-line block, as argv lists."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """Every command of README's block exits 0, run in order in one directory."""
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 10 and all(argv for argv in commands)
    for argv in commands:
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "P(u) = (u-2)(u-1)" in out and "V(2) + V(0)" in out
    assert "singular space dim 2" in out and "irreducible: True" in out
