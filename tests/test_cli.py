import os

import pytest

import wknots.cli
from wknots.cli import main

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "wknots",
                    "data", "knots")


@pytest.fixture
def braid_files(tmp_path):
    a = tmp_path / "a.braid"
    a.write_text("n=3\ns1 s2 s1\n")
    b = tmp_path / "b.braid"
    b.write_text("n=3\ns2 s1 s2\n")
    c = tmp_path / "c.braid"
    c.write_text("n=3\ns1\n")
    return str(a), str(b), str(c)


def test_braid_eq(braid_files, capsys):
    a, b, c = braid_files
    assert main(["braid-eq", a, b]) == 0
    assert capsys.readouterr().out.strip() == "equal"
    assert main(["braid-eq", a, c]) == 0
    assert capsys.readouterr().out.strip() == "distinct"
    assert main(["--machine", "braid-eq", a, b]) == 0
    assert capsys.readouterr().out.strip() == "equal=true"


def test_braid_act(braid_files, capsys):
    a, _, _ = braid_files
    assert main(["braid-act", a, "--word", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x3"
    assert main(["braid-act", a]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_alexander_both(capsys):
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd, "--method", "both"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["fox"] == out["matrix"] == "1 - 3*X + 1*X^2"


def test_alexander_default_method(capsys, tmp_path):
    # both methods on a PD code, the matrix alone on any other diagram
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fox=1 - 3*X + 1*X^2", "matrix=1 - 3*X + 1*X^2"]
    f = tmp_path / "t.braid"
    f.write_text("n=2\ns1 s1 s1\n")
    assert main(["--machine", "alexander", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == ["matrix=1 - 1*X + 1*X^2"]


@pytest.mark.parametrize("method", ["fox", "both"])
def test_alexander_fox_needs_pd_code(method, capsys, tmp_path):
    f = tmp_path / "t.braid"
    f.write_text("n=2\ns1 s1 s1\n")
    assert main(["alexander", str(f), "--method", method]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --method %s: " % method)
    assert "needs a PD code" in err


def test_alexander_series_needs_matrix(capsys):
    # the series is the matrix method's; Fox alone has none to print
    pd = os.path.join(DATA, "3_1.pd")
    assert main(["alexander", pd, "--method", "fox", "--series"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --series ")
    assert main(["--machine", "alexander", pd, "--series"]) == 0
    keys = [line.split("=")[0] for line in capsys.readouterr().out.split()
            if "=" in line]
    assert keys[:2] == ["series", "log_series"]


def test_zed_wheels(capsys, tmp_path):
    f = tmp_path / "t.braid"
    f.write_text("n=2\ns1 s1 s1\n")
    assert main(["--machine", "zed", str(f), "--degree", "2",
                 "--check-alexander"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["self_linking"] == "3"
    assert out["degree1"] == "a:3"
    assert out["alexander_match"] == "match"


def test_dims_deterministic(capsys):
    assert main(["dims", "--degree", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["dims", "--degree", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "dim 7" in first


@pytest.mark.parametrize("argv", [
    ["dims", "--degree", "7"],
    ["dims", "--skeleton", "strands:3", "--degree", "8"],
    ["dims", "--skeleton", "strands:4", "--degree", "6"],
    ["zed", "KNOT", "--degree", "7"],
    ["zed", "KNOT", "--degree", "7", "--basis", "projected"],
    ["zed", "KNOT", "--degree", "7", "--basis", "plain",
     "--check-alexander"]])
def test_oversized_quotients_rejected(argv, capsys, monkeypatch):
    # the long strand at degree 7 has 17,297,280 diagrams: refuse before
    # enumerating any
    import wknots.arrows

    def refuse(*args):
        raise AssertionError("a build started")
    monkeypatch.setattr(wknots.arrows, "enumerate_diagrams", refuse)
    monkeypatch.setattr(wknots.cli, "zed_knot", refuse)
    argv = [os.path.join(DATA, "3_1.pd") if a == "KNOT" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: degree ")
    assert "more than the 665280 of the long strand" in err


def test_wheels_basis(capsys):
    assert main(["--machine", "wheels", "--degree", "4"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["basis4"] == "a*a*a*a a*a*w2 a*w3 w2*w2 w4"


def test_check_single_suite(capsys):
    assert main(["check", "--suite", "quotient-dimensions"]) == 0
    assert "ok" in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert main(["alexander", str(tmp_path / "missing.pd")]) == 2
    bad = tmp_path / "bad.pd"
    bad.write_text("Y[1,2,3,4]\n")
    assert main(["alexander", str(bad)]) == 2
    assert main(["no-such-command"]) == 2


def test_zed_check_alexander_w_knot(capsys, tmp_path):
    # non-palindromic Alexander polynomial: odd wheels are nonzero
    f = tmp_path / "w.braid"
    f.write_text("n=4\nS3 v2 S2 s1 s2\n")
    assert main(["--machine", "zed", str(f), "--degree", "3",
                 "--check-alexander"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["degree3"] == "w3:1"
    assert out["alexander_match"] == "match"


ZED_5_2 = ["self_linking=4", "degree0=1:1", "degree1=a:4",
           "degree2=a*a:8 w2:2", "degree3=a*a*a:32/3 a*w2:8"]


@pytest.mark.parametrize("basis, lines", [
    ("wheels", ZED_5_2),
    ("projected", ZED_5_2[:1] + ["degree0=1", "degree1=4", "degree2=6 2",
                                 "degree3=0 8 8/3"])])
@pytest.mark.parametrize("agree", [True, False])
def test_zed_check_alexander_reduces_once(basis, lines, agree, capsys,
                                          monkeypatch):
    import wknots.cli
    import wknots.expansion
    calls = []
    reduce = wknots.cli.wheels_reduce

    def counted(z):
        calls.append(z)
        return reduce(z)
    monkeypatch.setattr(wknots.cli, "wheels_reduce", counted)
    if not agree:
        monkeypatch.setattr(wknots.expansion, "predicted_from_alexander",
                            lambda g, d: [{}] * (d + 1))
    pd = os.path.join(DATA, "5_2.pd")
    code = main(["--machine", "zed", pd, "--degree", "3", "--basis", basis,
                 "--check-alexander"])
    assert code == (0 if agree else 1)
    assert capsys.readouterr().out.splitlines() == lines + [
        "alexander_match=" + ("match" if agree else "MISMATCH")]
    assert len(calls) == 1


def test_unknown_suite_rejected(capsys):
    assert main(["check", "--suite", "nope"]) == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["zed", "KNOT", "--degree", "-1"],
                                  ["dims", "--degree", "-1"],
                                  ["wheels", "--degree", "-2"]])
def test_negative_degree_rejected(argv, capsys):
    argv = [os.path.join(DATA, "3_1.pd") if a == "KNOT" else a for a in argv]
    assert main(argv) == 2
    assert "--degree must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["wheels", "--flags", "xyz"],
                                  ["wheels", "--flags", "ri,tc"],
                                  ["dims", "--skeleton", "strands:0"],
                                  ["dims", "--skeleton", "strands:-3"],
                                  ["zed", "NO_STRANDS"]])
def test_out_of_domain_arguments_rejected(argv, capsys, tmp_path):
    braid = tmp_path / "none.braid"
    braid.write_text("n=-2\n")
    argv = [str(braid) if a == "NO_STRANDS" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
