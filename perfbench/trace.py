"""Spans around the public functions of wknots, installed from outside.

A ``Tracer`` replaces selected functions and methods of the already
imported ``wknots`` modules with wrappers that record one span per call:
name, start, end and the index of the enclosing span.  Nothing under
``src/`` is changed; ``uninstall`` puts the originals back.  Self time of a
span is its duration minus the time covered by its child spans, so the
self times of one pass add up to the traced part of that pass.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, span name): plain functions, patched in every wknots
# module that imported them by name
FUNCTIONS = (
    ("wknots.arrows", "enumerate_diagrams", "arrows.enumerate"),
    ("wknots.arrows", "generate_relations", "arrows.relators"),
    ("wknots.expansion", "zed_knot", "expansion.zed_knot"),
    ("wknots.expansion", "wheels_reduce", "expansion.wheels_reduce"),
    ("wknots.expansion", "predicted_from_alexander", "expansion.predict"),
    ("wknots.expansion", "project_expansion", "expansion.project_expansion"),
    ("wknots.jacobi", "monomial_to_arrows", "jacobi.monomial_to_arrows"),
    ("wknots.jacobi", "wheel_monomial_basis", "jacobi.wheel_basis"),
    ("wknots.rings", "series_log", "rings.series_log"),
    ("wknots.gauss", "apply_move", "gauss.move"),
    ("wknots.gauss", "braid_closure", "gauss.closure"),
    ("wknots.gauss", "gauss_to_pd", "gauss.to_pd"),
    ("wknots.alexander", "alexander_matrix", "alexander.matrix"),
    ("wknots.alexander", "alexander_fox", "alexander.fox"),
    ("wknots.wbraid", "braid_equal", "wbraid.equal"),
    ("wknots.wbraid", "braid_action", "wbraid.action"),
    ("wknots.lieweights", "weight_system", "lieweights.weight_system"),
    ("wknots.lieweights", "pbw_mul", "lieweights.pbw_mul"),
)

# (module, class, method, span name)
METHODS = (
    ("wknots.arrows", "QuotientSpace", "__init__", "arrows.fold"),
    ("wknots.arrows", "QuotientSpace", "project", "arrows.project"),
    ("wknots.linalg", "SparseEchelon", "add", "linalg.add"),
    ("wknots.linalg", "SparseEchelon", "reduce", "linalg.reduce"),
    ("wknots.linalg", "RatMatrix", "det", "linalg.det"),
)

# per-layer metrics that count spans of one name
SPAN_COUNTS = {
    "linalg.add_rows": ("linalg.add",),
    "arrows.project_calls": ("arrows.project",),
    "linalg.det_calls": ("linalg.det_series", "linalg.det_laurent"),
}

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index)
        self._stack = []         # (span index, name) of open spans
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.external = defaultdict(float)  # absorbed from child processes
        self._undo = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, after=None):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        if after is not None:
            # counter upkeep is a child span, so it stays out of the
            # caller's self time
            self.call(HOOK, after, (result,) + tuple(args), {})
        return result

    def _wrap(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters ------------------------------------------------------------

    def _after_fold(self, _result, space, *_args):
        self.counts["arrows.diagrams"] += len(space._diagrams)
        self.counts["linalg.rank"] += space._ech.rank
        self.counts["linalg.row_entries"] += sum(
            len(r) for r in space._ech.rows.values())

    def _after_relators(self, result, *_args):
        distinct = set()
        for v in result:
            items = sorted(v.terms.items())
            sign = 1 if items and items[0][1] > 0 else -1
            distinct.add(tuple((d, sign * c) for d, c in items))
        self.counts["arrows.relators"] += len(result)
        self.counts["arrows.relators_distinct"] += len(distinct)

    def _after_zed(self, result, *_args):
        self.counts["expansion.zed_terms"] += sum(
            len(v.terms) for v in result.comps.values())

    def _after_matrix(self, _result, knot, *_args):
        self.maxima["alexander.crossings_max"] = max(
            self.maxima["alexander.crossings_max"], knot.k)

    # -- installation --------------------------------------------------------

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "wknots" or n.startswith("wknots.")]
        after = {"arrows.relators": self._after_relators,
                 "expansion.zed_knot": self._after_zed,
                 "alexander.matrix": self._after_matrix}
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name, after.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[attr]
            if name == "arrows.fold":
                wrapper = self._wrap(orig, name, self._after_fold)
            elif name == "linalg.reduce":
                wrapper = self._reduce_wrapper(orig)
            elif name == "linalg.det":
                wrapper = self._det_wrapper(orig)
            else:
                wrapper = self._wrap(orig, name)
            self._set(cls, attr, wrapper)
        checks = sys.modules.get("wknots.checks")
        if checks is not None:
            wrapped = []
            for suite, fn in checks.ALL_CHECKS:
                w = self._wrap(fn, "checks." + suite.replace("-", "_"))
                wrapped.append((suite, w))
                self._set(checks, fn.__name__, w)
            self._set(checks, "ALL_CHECKS", tuple(wrapped))

    def _reduce_wrapper(self, orig):
        tracer = self

        def reduce(*args, **kwargs):
            # reduction inside an insertion is part of linalg.add; only
            # the read side (projection) gets its own span
            if tracer._stack and tracer._stack[-1][1] == "linalg.add":
                return orig(*args, **kwargs)
            return tracer.call("linalg.reduce", orig, args, kwargs)
        return reduce

    def _det_wrapper(self, orig):
        tracer = self
        from wknots.rings import TruncSeries

        def det(matrix, one):
            tracer.maxima["linalg.det_n_max"] = max(
                tracer.maxima["linalg.det_n_max"], matrix.nrows)
            name = ("linalg.det_series" if isinstance(one, TruncSeries)
                    else "linalg.det_laurent")
            return tracer.call(name, orig, (matrix, one), {})
        return det

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    # -- results -------------------------------------------------------------

    def collect(self):
        """Self time per span name (as ``<name>_s``), span counts, counters
        and maxima recorded since the last ``reset``."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        seen = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            seen[name] += 1
            if name != HOOK:
                out[name + "_s"] += end - start - child[i]
        for metric, names in SPAN_COUNTS.items():
            out[metric] = sum(seen[n] for n in names)
        out.update(self.counts)
        for metric, value in self.external.items():
            out[metric] += value
        return dict(out), dict(self.maxima)

    def absorb(self, collected):
        """Add what ``collect`` returned in a traced child process."""
        sums, maxima = collected
        for metric, value in sums.items():
            self.external[metric] += value
        for metric, value in maxima.items():
            self.maxima[metric] = max(self.maxima[metric], value)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.external = defaultdict(float)

    def dump(self):
        """The recorded spans in a compact JSON-ready form."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], round(s, 7), round(e, 7), p]
                          for n, s, e, p in self.spans]}
