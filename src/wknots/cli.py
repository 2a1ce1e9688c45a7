"""Command-line interface.

Subcommands: braid-eq, braid-act, alexander, zed, dims, wheels, check.
Output is deterministic for a fixed (inputs, flags, seed); ``--machine``
switches to line-oriented key=value records.  Exit codes: 0 success,
1 check/equality failure, 2 usage or parse error.
"""

import argparse
import sys

from .freegroup import word_from_text, word_to_text, aut_apply
from .wbraid import braid_from_text, braid_equal, braid_action
from .gauss import (pd_from_text, pd_to_gauss, gauss_from_text, self_linking,
                    braid_closure)
from .rings import series_log
from .alexander import alexander_matrix, alexander_fox
from .arrows import LONG, MAX_COLUMNS, diagram_count, quotient, strands
from .jacobi import wheel_monomial_basis
from .expansion import (zed_knot, project_expansion, wheels_reduce,
                        predicted_from_alexander)
from . import checks

USAGE_ERROR, CHECK_FAILURE = 2, 1


def _read(path):
    with open(path) as fh:
        return "".join(ln for ln in fh if not ln.lstrip().startswith("#"))


def _emit(machine, key, human_fmt, value):
    if machine:
        print("%s=%s" % (key, value))
    else:
        print(human_fmt % (value,))


def _is_pd(text):
    return text.lstrip().startswith("X[")


def _load_diagram(path, text):
    """A Gauss diagram from the text of a .pd, .gauss, or .braid file."""
    if _is_pd(text):
        return pd_to_gauss(pd_from_text(text))
    if text.lstrip().startswith("n="):
        try:
            return gauss_from_text(text)
        except ValueError:
            if "=" in text.lstrip()[2:]:  # t=/h=/s= arrow lines: Gauss
                raise  # its parser's message, not the braid parser's
            return braid_closure(braid_from_text(text))
    raise ValueError("unrecognized diagram format in %s" % path)


def _mono_name(mono):
    return "*".join("a" if g == "a" else "w%d" % g[1] for g in mono) or "1"


def cmd_braid_eq(args):
    a = braid_from_text(_read(args.left))
    b = braid_from_text(_read(args.right))
    eq = braid_equal(a, b)
    if args.machine:
        print("equal=%s" % ("true" if eq else "false"))
    else:
        print("equal" if eq else "distinct")
    return 0


def cmd_braid_act(args):
    b = braid_from_text(_read(args.braid))
    act = braid_action(b)
    if args.word:
        w = word_from_text(args.word, n=b.n)
        _emit(args.machine, "image", "%s", word_to_text(aut_apply(act, w)))
    else:
        for i, img in enumerate(act, start=1):
            _emit(args.machine, "x%d" % i, "x%d -> %%s" % i,
                  word_to_text(img))
    return 0


def cmd_alexander(args):
    text = _read(args.diagram)
    method = args.method or ("both" if _is_pd(text) else "matrix")
    if method != "matrix" and not _is_pd(text):
        raise ValueError("--method %s: the Fox calculus needs a PD code, "
                         "and %s is not one" % (method, args.diagram))
    if args.series and method == "fox":
        raise ValueError("--series reads the matrix method's series; use "
                         "--method matrix or both")
    # a PD code is read and checked once, for both methods
    pd = pd_from_text(text) if _is_pd(text) else None
    results = {}
    if method in ("matrix", "both"):
        g = (pd_to_gauss(pd) if pd is not None
             else _load_diagram(args.diagram, text))
        # --degree truncates the series, so it is read only with --series
        series, poly = (alexander_matrix(g, d=args.degree) if args.series
                        else alexander_matrix(g))
        results["matrix"] = poly
        if args.series:
            _emit(args.machine, "series", "A(e^x) = %s", series)
            _emit(args.machine, "log_series", "log A(e^x) = %s",
                  series_log(series))
    if method in ("fox", "both"):
        results["fox"] = alexander_fox(pd)
    for name, poly in sorted(results.items()):
        _emit(args.machine, name, "%s: %%s" % name, poly)
    if len(results) == 2 and results["matrix"] != results["fox"]:
        _emit(args.machine, "agree", "methods agree: %s", "false")
        return CHECK_FAILURE
    return 0


# the highest degree of a long-strand build without TC: it indexes every
# diagram and holds every relator, and {6T} takes about 0.4 s at degree 4
# but minutes and gigabytes at degree 5
LONG_WITHOUT_TC_DEGREE = 4

# the highest degree ``wheels`` lists: degrees 0-30 hold 28,629 monomials
# under RI and take about 0.9 s, degree 40 takes 10 s, and the count grows
# like the partition numbers
WHEELS_DEGREE = 30


def _check_size(skeleton, degree, relset):
    """Refuse a quotient whose columns would not fit in memory, or a long
    one without TC above degree 4."""
    count = diagram_count(skeleton, degree, relset)
    if (skeleton == LONG and "TC" not in relset
            and degree > LONG_WITHOUT_TC_DEGREE):
        raise ValueError("degree %d on long without TC indexes %d columns "
                         "(diagrams); builds without TC stop at degree %d"
                         % (degree, count, LONG_WITHOUT_TC_DEGREE))
    if count > MAX_COLUMNS:
        what = ("words" if skeleton != LONG else
                "TC classes" if "TC" in relset else "diagrams")
        raise ValueError("degree %d on %s indexes %d columns (%s), more "
                         "than the %d of the long strand at degree 6"
                         % (degree, "long" if skeleton == LONG else
                            "strands:%d" % skeleton[1], count, what,
                            MAX_COLUMNS))


def cmd_zed(args):
    # every basis builds {TC,4T} quotients, with RI for "projected"
    _check_size(LONG, args.degree, {"TC", "4T"})
    g = _load_diagram(args.diagram, _read(args.diagram))
    _emit(args.machine, "self_linking", "self-linking %s", self_linking(g))
    z = zed_knot(g, args.degree)
    coords = None
    if args.basis == "wheels":
        coords = wheels_reduce(z)
        for m, comp in enumerate(coords):
            vals = " ".join("%s:%s" % (_mono_name(mono), c)
                            for mono, c in comp.items())
            _emit(args.machine, "degree%d" % m, "degree %d: %%s" % m,
                  vals or "0")
    else:
        flags = {"RI"} if args.basis == "projected" else set()
        for m, comp in enumerate(project_expansion(z, flags=flags)):
            _emit(args.machine, "degree%d" % m, "degree %d: %%s" % m,
                  " ".join(str(c) for c in comp) or "0")
    if args.check_alexander:
        if (coords or wheels_reduce(z)) != predicted_from_alexander(
                g, args.degree):
            _emit(args.machine, "alexander_match",
                  "Alexander prediction: %s", "MISMATCH")
            return CHECK_FAILURE
        _emit(args.machine, "alexander_match",
              "Alexander prediction: %s", "match")
    return 0


def _parse_skeleton(text):
    if text == "long":
        return LONG
    kind, _, n = text.partition(":")
    if kind == "strands" and n.isdecimal():
        return strands(n)
    raise ValueError("skeleton must be 'long' or 'strands:<n>'")


def cmd_dims(args):
    skel = _parse_skeleton(args.skeleton)
    rels = {r.strip().upper() for r in args.relations.split(",") if r.strip()}
    _check_size(skel, args.degree, rels)
    for m in range(args.degree + 1):
        q = quotient(skel, m, rels)
        _emit(args.machine, "dim%d" % m, "degree %d: dim %%s" % m, q.dim)
    return 0


def cmd_wheels(args):
    if args.degree > WHEELS_DEGREE:
        raise ValueError("degree %d is above %d, the highest degree wheels "
                         "lists" % (args.degree, WHEELS_DEGREE))
    flags = {f.strip().upper() for f in args.flags.split(",") if f.strip()}
    for m in range(args.degree + 1):
        monos = wheel_monomial_basis(m, flags)
        _emit(args.machine, "basis%d" % m, "degree %d: %%s" % m,
              " ".join(_mono_name(mo) for mo in monos) or "(empty)")
    return 0


def cmd_check(args):
    failed = 0
    for name, fn in checks.ALL_CHECKS:
        if args.suite != "all" and args.suite != name:
            continue
        kwargs = {}
        if args.seed is not None and name in checks.SEEDED:
            kwargs["seed"] = args.seed
        ok, detail = fn(**kwargs)
        failed += 0 if ok else 1
        status = "ok" if ok else "FAIL"
        if args.machine:
            print("%s=%s" % (name, status))
            print("%s_detail=%s" % (name.replace("-", "_"), detail))
        else:
            print("%-28s %-4s (%s)" % (name, status, detail))
    return CHECK_FAILURE if failed else 0


def build_parser():
    p = argparse.ArgumentParser(prog="wknots",
                                description="w-braid and w-knot toolkit")
    p.add_argument("--machine", action="store_true",
                   help="line-oriented key=value output")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("braid-eq", help="decide equality of two braid words")
    q.add_argument("left")
    q.add_argument("right")
    q.set_defaults(fn=cmd_braid_eq)

    q = sub.add_parser("braid-act",
                       help="free-group automorphism of a braid word")
    q.add_argument("braid")
    q.add_argument("--word", help="apply to this free word instead")
    q.set_defaults(fn=cmd_braid_act)

    q = sub.add_parser("alexander", help="Alexander polynomial of a knot")
    q.add_argument("diagram")
    q.add_argument("--method", choices=("matrix", "fox", "both"),
                   help="default: both for a PD code, matrix otherwise "
                   "(Fox needs a PD code)")
    q.add_argument("--degree", type=int, default=5,
                   help="series truncation degree (with --series)")
    q.add_argument("--series", action="store_true",
                   help="also print A(e^x) and its log")
    q.set_defaults(fn=cmd_alexander)

    q = sub.add_parser("zed", help="truncated universal invariant of a knot")
    q.add_argument("diagram")
    q.add_argument("--degree", type=int, default=4)
    q.add_argument("--basis", choices=("wheels", "projected", "plain"),
                   default="wheels")
    q.add_argument("--check-alexander", action="store_true")
    q.set_defaults(fn=cmd_zed)

    q = sub.add_parser("dims", help="graded dimensions of diagram quotients")
    q.add_argument("--skeleton", default="long")
    q.add_argument("--degree", type=int, default=4)
    q.add_argument("--relations", default="tc,4t")
    q.set_defaults(fn=cmd_dims)

    q = sub.add_parser("wheels", help="wheel-monomial bases by degree")
    q.add_argument("--degree", type=int, default=5,
                   help="highest degree listed (at most %d)" % WHEELS_DEGREE)
    q.add_argument("--flags", default="ri")
    q.set_defaults(fn=cmd_wheels)

    q = sub.add_parser("check", help="run the verification suites")
    q.add_argument("--suite", default="all",
                   choices=[name for name, _ in checks.ALL_CHECKS] + ["all"],
                   help="one suite name, or 'all'")
    q.add_argument("--seed", type=int,
                   help="seed of the seeded suites (default: each suite's "
                        "own, as the acceptance tests run them)")
    q.set_defaults(fn=cmd_check)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "degree", 0) < 0:
            parser.error("--degree must be >= 0")
    except SystemExit as e:
        return USAGE_ERROR if e.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
