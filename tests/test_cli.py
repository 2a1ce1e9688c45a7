import os

import pytest

import wknots.cli
from wknots.cli import main
from wknots.gauss import pd_from_text
from wknots.rings import LaurentPoly

from test_checks import DEFAULT_DETAILS

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


BRAID_ACT = {
    # the 3-strand fixture a.braid
    "n=3\ns1 s2 s1\n": (
        "x1 -> x3\n"
        "x2 -> x3^-1 x2 x3\n"
        "x3 -> x3^-1 x2^-1 x1 x2 x3\n",
        "x1=x3\n"
        "x2=x3^-1 x2 x3\n"
        "x3=x3^-1 x2^-1 x1 x2 x3\n",
        "x2^-1 x1^-1 x2 x3\n"),
    # an extended braid with flips
    "n=3 extended\ns1 f2 v1 S2 f3 s1\n": (
        "x1 -> x2^-1\n"
        "x2 -> x1 x2 x3^-1 x2^-1 x1^-1\n"
        "x3 -> x2^-1 x1 x2\n",
        "x1=x2^-1\n"
        "x2=x1 x2 x3^-1 x2^-1 x1^-1\n"
        "x3=x2^-1 x1 x2\n",
        "x2^-1 x2^-1 x1^-1 x2\n"),
}


def test_braid_act(braid_files, capsys):
    a, _, _ = braid_files
    assert main(["braid-act", a, "--word", "x1"]) == 0
    assert capsys.readouterr().out.strip() == "x3"


@pytest.mark.parametrize("text", sorted(BRAID_ACT))
def test_braid_act_output_pinned(text, capsys, tmp_path):
    path = tmp_path / "b.braid"
    path.write_text(text)
    act, word = ["braid-act", str(path)], ["--word", "x1 x3^-1"]
    human, machine, image = BRAID_ACT[text]
    for argv, out in ((act, human), (["--machine"] + act, machine),
                      (act + word, image),
                      (["--machine"] + act + word, "image=" + image)):
        assert main(argv) == 0
        assert capsys.readouterr() == (out, ""), argv


def test_alexander_both(capsys):
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd, "--method", "both"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["fox"] == out["matrix"] == "1 - 3*X + 1*X^2"


def test_alexander_methods_disagreeing_fail(capsys, monkeypatch):
    monkeypatch.setattr(wknots.cli, "alexander_fox",
                        lambda pd: LaurentPoly({0: 1}))
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fox=1", "matrix=1 - 3*X + 1*X^2", "agree=false"]


def test_alexander_both_reads_the_code_once(capsys, monkeypatch):
    read = []

    def counted(text):
        read.append(text)
        return pd_from_text(text)
    monkeypatch.setattr(wknots.cli, "pd_from_text", counted)
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd, "--method", "both"]) == 0
    assert len(read) == 1
    assert capsys.readouterr().out.splitlines() == [
        "fox=1 - 3*X + 1*X^2", "matrix=1 - 3*X + 1*X^2"]


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


def test_alexander_degree_only_truncates_the_series(capsys):
    # without --series no series is printed, so --degree is not read
    pd = os.path.join(DATA, "4_1.pd")
    assert main(["--machine", "alexander", pd]) == 0
    default = capsys.readouterr().out
    assert main(["--machine", "alexander", pd, "--degree", "0"]) == 0
    assert capsys.readouterr().out == default
    assert main(["alexander", pd, "--series", "--degree", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: series truncation degree must be >= 1\n"


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


@pytest.mark.slow
def test_dims_on_five_strands(capsys):
    # degree 4 on five strands, where far commutation first needs the
    # relators placed on every word
    assert main(["--machine", "dims", "--skeleton", "strands:5", "--degree",
                 "4", "--relations", "tc,4t"]) == 0
    assert "dim4=21875" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("argv", [
    ["dims", "--degree", "7"],
    ["dims", "--skeleton", "strands:3", "--degree", "8"],
    ["dims", "--skeleton", "strands:4", "--degree", "6"],
    ["zed", "KNOT", "--degree", "7"],
    ["zed", "KNOT", "--degree", "7", "--basis", "projected"],
    ["zed", "KNOT", "--degree", "7", "--basis", "plain",
     "--check-alexander"],
    ["zed", "KNOT", "--degree", "7", "--basis", "plain"]])
def test_oversized_quotients_rejected(argv, capsys, monkeypatch):
    # the long strand at degree 7 has 17,297,280 diagrams: refuse before
    # enumerating any
    err = refused_before_a_build(argv, capsys, monkeypatch)
    assert err.startswith("error: degree ")
    assert "more than the 665280 of the long strand" in err


def refused_before_a_build(argv, capsys, monkeypatch):
    """Run argv with every quotient build and Z refusing to start; assert
    exit 2 with nothing on stdout, and return stderr."""
    import wknots.arrows

    def refuse(*args):
        raise AssertionError("a build started")
    monkeypatch.setattr(wknots.arrows, "enumerate_diagrams", refuse)
    monkeypatch.setattr(wknots.cli, "quotient", refuse)
    monkeypatch.setattr(wknots.cli, "zed_knot", refuse)
    argv = [os.path.join(DATA, "3_1.pd") if a == "KNOT" else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


@pytest.mark.parametrize("argv", [
    ["dims", "--relations", "6t", "--degree", "5"],
    ["dims", "--relations", "4t,ri", "--degree", "6"],
    ["dims", "--relations", "", "--degree", "5"]])
def test_long_builds_without_tc_stop_at_degree_4(argv, capsys, monkeypatch):
    # {6T} at degree 5 has only 30,240 columns, but takes minutes and
    # gigabytes to build
    err = refused_before_a_build(argv, capsys, monkeypatch)
    assert err.startswith("error: degree %s on long without TC " % argv[-1])
    assert "builds without TC stop at degree 4" in err


def test_long_build_without_tc_at_degree_4(capsys):
    assert main(["--machine", "dims", "--relations", "6t",
                 "--degree", "4"]) == 0
    assert "dim4=139" in capsys.readouterr().out.splitlines()


def test_wheels_basis(capsys):
    assert main(["--machine", "wheels", "--degree", "4"]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert out["basis4"] == "a*a*a*a a*a*w2 a*w3 w2*w2 w4"


@pytest.mark.parametrize("argv", [["wheels", "--degree", "31"],
                                  ["wheels", "--degree", "55"],
                                  ["wheels", "--degree", "40", "--flags", ""],
                                  ["wheels", "--degree", "31", "--flags", "fi"]])
def test_wheels_degree_bounded(argv, capsys, monkeypatch):
    # degree 40 takes about 10 s and degree 55 did not finish in 120 s:
    # refuse before listing any basis
    def refuse(*args):
        raise AssertionError("a basis was listed")
    monkeypatch.setattr(wknots.cli, "wheel_monomial_basis", refuse)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: degree %s is above 30, the highest degree wheels "
                   "lists\n" % argv[2])


def test_wheels_at_the_degree_bound(capsys):
    assert main(["--machine", "wheels", "--degree", "30", "--flags", "fi"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 31
    # under FI the monomials are the partitions of 30 into parts >= 2
    first, *rest = out[30].split(" ")
    assert first == "basis30=" + "*".join(["w2"] * 15)
    assert len(rest) + 1 == 5604 - 4565


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
    calls = []
    reduce = wknots.cli.wheels_reduce

    def counted(z):
        calls.append(z)
        return reduce(z)
    monkeypatch.setattr(wknots.cli, "wheels_reduce", counted)
    if not agree:
        monkeypatch.setattr(wknots.cli, "predicted_from_alexander",
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


@pytest.mark.parametrize("skeleton", ["strands:x", "strands:", "strands",
                                      "strands:2.5", "loong"])
def test_malformed_skeleton_names_the_form(skeleton, capsys):
    assert main(["dims", "--skeleton", skeleton]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: skeleton must be 'long' or 'strands:<n>'\n"


def test_check_runs_the_gate_cases_by_default(capsys):
    # without --seed each seeded suite runs on its own default seed, as
    # the acceptance tests run it; --seed 0 hands 0 to all four
    for name, detail in DEFAULT_DETAILS.items():
        assert main(["--machine", "check", "--suite", name]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "%s=ok" % name, "%s_detail=%s" % (name.replace("-", "_"), detail)]
    assert main(["--machine", "check", "--suite",
                 "expansion-move-invariance", "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "expansion_move_invariance_detail=200 cases "
        "(oc:47,r1s:39,r2:70,r2del:25,r3:19), 0 failures")


def test_bad_gauss_sign_is_a_parse_error(capsys, tmp_path):
    # the Gauss parser's message, not a KeyError or the braid parser's
    gauss = tmp_path / "bad.gauss"
    gauss.write_text("n=1\nt=1 h=2 s=x\n")
    assert main(["alexander", str(gauss)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "'x'" in err
    assert "braid" not in err


BRAID_FORM = "expected s<i>, S<i>, v<i> or f<i>"
WORD_FORM = "expected x<i> or x<i>^-1"
ARROW_FORM = "expected t=<slot> h=<slot> s=<+ or ->"


@pytest.mark.parametrize("argv, text, message", [
    (["braid-act", "IN"], "n=2\ns\n", "bad braid token 's': " + BRAID_FORM),
    (["braid-act", "IN"], "n=x\n",
     "bad braid header 'n=x': expected n=<strand count>"),
    (["braid-act", "IN", "--word", "x"], "n=2\ns1\n",
     "bad word token 'x': " + WORD_FORM),
    (["braid-act", "IN", "--word", "x1^-2"], "n=2\ns1\n",
     "bad word token 'x1^-2': " + WORD_FORM),
    (["alexander", "IN"], "n=1\nt=1 h=x s=+\n",
     "bad arrow line 't=1 h=x s=+': " + ARROW_FORM),
    (["alexander", "IN"], "n=1\nt=1 h=2 s=+ x\n",
     "bad arrow line 't=1 h=2 s=+ x': " + ARROW_FORM),
    (["alexander", "IN"], "X[1,2,x,4]\n", "bad crossing token 'X[1,2,x,4]': "
     "expected X[<edge>,<edge>,<edge>,<edge>]"),
    (["dims", "--relations", "tc,4x"], "",
     "unknown relation ids: '4X'; the known ids are TC, 4T, 6T, RI, FI, CC"),
])
def test_malformed_input_names_the_token_and_form(argv, text, message,
                                                  capsys, tmp_path):
    # the bad token and the accepted form, not a Python parse error
    path = tmp_path / "input"
    path.write_text(text)
    assert main([str(path) if a == "IN" else a for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
