"""Per-layer spans and counters for the in-process replay of a job list.

The benchmark, not the program, records the spans: it wraps public
functions under the names through which their callers look them up
(`cornerkit.ghs.link`, `cornerkit.homology.snf_diagonal`, ...) and
restores the originals afterwards, so no file of the program changes.

Times are self times: a span's duration minus the spans nested in it, so
the `_s` metrics of different layers add up without double counting.
The `ghs.*` times are the exception: they are inclusive totals of the
global check and of the link loop, whose insides are the `simplicial` and
`homology` spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

PER_LAYER = {
    # name: unit
    "cli.startup_s": "s", "cli.overhead_s": "s",
    "jsonio.load_s": "s", "jsonio.dump_s": "s",
    "jsonio.bytes_in": "bytes", "jsonio.bytes_out": "bytes",
    "simplicial.build_s": "s", "simplicial.faces_s": "s",
    "simplicial.link_s": "s", "simplicial.link_calls": "count",
    "simplicial.faces": "count",
    "homology.boundary_s": "s", "homology.chain_check_s": "s",
    "homology.snf_s": "s", "homology.snf_calls": "count",
    "homology.snf_max_side": "count", "homology.entries": "count",
    "homology.nnz": "count", "homology.transform_snf_s": "s",
    "homology.solve_s": "s",
    "ghs.global_s": "s", "ghs.link_loop_s": "s",
    "ghs.links_checked": "count", "ghs.per_link_ms": "ms",
    "coxeter.proper_s": "s", "coxeter.nerve_s": "s",
    "coxeter.finiteness_tests": "count", "coxeter.finite_ratio": "ratio",
    "coxeter.nerve_facets": "count",
    "equivalence.fingerprint_s": "s", "equivalence.prepare_s": "s",
    "equivalence.search_s": "s", "equivalence.leaves": "count",
    "equivalence.leaf_hit_ratio": "ratio", "equivalence.verify_s": "s",
    "dualcells.build_s": "s", "dualcells.cells": "count",
    "dualcells.coboundary_s": "s", "dualcells.cocycle_checks": "count",
    "dualcells.solve_s": "s", "dualcells.acyclicity_calls": "count",
    "quasitoric.charfun_s": "s", "quasitoric.betti_s": "s",
    "quasitoric.span_checks": "count",
    "trace.inproc_s": "s", "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self):
        self.value: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._in_link_loop = False

    # --- wrapper factories --------------------------------------------------

    def _span(self, metric, fn, inclusive=False, after=None):
        stack = self._stack
        value = self.value

        def wrapper(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if metric is not None:
                    value[metric] += duration if inclusive else duration - nested[0]
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _counter(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch_all(self, owners, attr, make):
        """Wrap the same original under every module that looks it up."""
        for owner in owners:
            self._patch(owner, attr, make)

    # --- counters -----------------------------------------------------------

    def _add(self, metric, amount=1):
        self.value[metric] += amount

    def _matrix(self, args, result):
        A = args[0]
        v = self.value
        v["homology.snf_calls"] += 1
        v["homology.snf_max_side"] = max(v["homology.snf_max_side"],
                                         A.rows, A.cols)
        v["homology.entries"] += A.rows * A.cols
        v["homology.nnz"] += A.rows * A.cols - sum(row.count(0)
                                                   for row in A.entries)

    def _finite(self, args, result):
        self.value["coxeter.finiteness_tests"] += 1
        if result.finite:
            self.value["coxeter.finite_count"] += 1

    def _leaf(self, args, result):
        self.value["equivalence.leaves"] += 1
        if result:
            self.value["equivalence.leaf_hits"] += 1

    # --- installation -------------------------------------------------------

    def __enter__(self):
        # by module name: the package rebinds some of its attributes (for
        # one, `cornerkit.homology` is the homology() function)
        cli, jsonio, simp, hom, ghs, cox, eqv, dual, qt = (
            importlib.import_module(f"cornerkit.{name}") for name in (
                "cli", "jsonio", "simplicial", "homology", "ghs", "coxeter",
                "equivalence", "dualcells", "quasitoric"))
        span, count = self._span, self._counter

        def bytes_in(args, result):
            self._add("jsonio.bytes_in", len(result[1]))

        def bytes_out(args, result):
            self._add("jsonio.bytes_out", len(result))

        self._patch(cli, "read_input",
                    lambda f: span("jsonio.load_s", f, after=bytes_in))
        self._patch(cli, "parse_json", lambda f: span("jsonio.load_s", f))
        for attr in ("complex_from_obj", "cochain_from_obj", "pair_from_obj",
                     "fan_from_obj"):
            self._patch(jsonio, attr, lambda f: span("jsonio.load_s", f))
        self._patch(jsonio, "dumps",
                    lambda f: span("jsonio.dump_s", f, after=bytes_out))
        for attr in ("complex_to_obj", "labeled_to_obj", "pair_to_obj",
                     "cochain_to_obj"):
            self._patch(jsonio, attr, lambda f: span("jsonio.dump_s", f))

        build = lambda f: span("simplicial.build_s", f)  # noqa: E731
        self._patch_all((jsonio, qt), "build_complex", build)
        for attr in ("boundary_simplex", "cone", "suspension", "join",
                     "barycentric", "barycentric_all_two"):
            self._patch(cli, attr, build)
        self._patch(simp.LabeledComplex, "__post_init__", build)

        def faces(f):
            timed, info = span("simplicial.faces_s", f), f.cache_info

            def wrapper(*args):  # counts the faces of cache misses only
                before = info().misses
                result = timed(*args)
                if info().misses != before:
                    self._add("simplicial.faces", len(result))
                return result
            return wrapper

        self._patch_all((simp, hom, ghs, cox, dual, eqv), "simplices", faces)
        self._patch(ghs, "link", lambda f: span(
            "simplicial.link_s", f,
            after=lambda a, r: self._add("simplicial.link_calls")))

        self._patch(hom, "simplicial_boundary_matrix",
                    lambda f: span("homology.boundary_s", f))
        self._patch(hom.ChainComplex, "__post_init__",
                    lambda f: span("homology.chain_check_s", f))
        self._patch_all((hom, qt), "snf_diagonal",
                        lambda f: span("homology.snf_s", f,
                                       after=self._matrix))
        self._patch_all((hom, qt), "snf",
                        lambda f: span("homology.transform_snf_s", f,
                                       after=self._matrix))
        self._patch_all((hom, dual), "solve_integer",
                        lambda f: span("homology.solve_s", f))

        def link_loop(f):
            inner = span("ghs.link_loop_s", f, inclusive=True)

            def wrapper(*args, **kwargs):
                self._in_link_loop = True
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._in_link_loop = False
            return wrapper

        def global_check(f):
            timed = span("ghs.global_s", f, inclusive=True)
            return lambda *a, **k: (f(*a, **k) if self._in_link_loop
                                    else timed(*a, **k))

        self._patch(ghs, "_check_links", link_loop)
        self._patch(ghs, "sphere_homology_defects", global_check)
        self._patch(ghs, "_link_defects", lambda f: count(
            f, lambda a, r: self._add("ghs.links_checked")))

        self._patch_all((cli, cox), "is_proper_labeling",
                        lambda f: span("coxeter.proper_s", f))
        self._patch_all((cli, cox), "coxeter_nerve", lambda f: span(
            "coxeter.nerve_s", f,
            after=lambda a, r: self._add("coxeter.nerve_facets",
                                         len(r.facets))))
        self._patch_all((cli, cox), "is_finite",
                        lambda f: count(f, self._finite))

        self._patch(eqv, "invariant_fingerprint",
                    lambda f: span("equivalence.fingerprint_s", f))
        self._patch(cli, "find_isomorphism",
                    lambda f: span("equivalence.prepare_s", f))
        self._patch(eqv, "_search", lambda f: span("equivalence.search_s", f))
        self._patch(eqv, "complexes_match", lambda f: count(f, self._leaf))
        self._patch(eqv, "verify_isomorphism",
                    lambda f: span("equivalence.verify_s", f))

        self._patch(cli, "dual_complex", lambda f: span(
            "dualcells.build_s", f,
            after=lambda a, r: self._add(
                "dualcells.cells", sum(len(fs) for fs in r.faces.values()))))
        self._patch(dual, "coboundary",
                    lambda f: span("dualcells.coboundary_s", f))
        self._patch_all((cli, dual), "is_cocycle", lambda f: count(
            f, lambda a, r: self._add("dualcells.cocycle_checks")))
        self._patch(cli, "solve_obstruction",
                    lambda f: span("dualcells.solve_s", f))
        self._patch_all((cli, dual), "acyclicity_report", lambda f: count(
            f, lambda a, r: self._add("dualcells.acyclicity_calls")))

        self._patch_all((cli, qt), "is_characteristic",
                        lambda f: span("quasitoric.charfun_s", f))
        self._patch(cli, "even_betti_report",
                    lambda f: span("quasitoric.betti_s", f))
        self._patch(qt, "unimodular_span", lambda f: count(
            f, lambda a, r: self._add("quasitoric.span_checks")))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def metrics(self) -> dict[str, float]:
        """The layer metrics gathered so far (ratios derived here)."""
        v = dict(self.value)
        finite = v.pop("coxeter.finite_count", 0)
        v["coxeter.finite_ratio"] = (finite / v["coxeter.finiteness_tests"]
                                     if v.get("coxeter.finiteness_tests")
                                     else 0.0)
        hits = v.pop("equivalence.leaf_hits", 0)
        v["equivalence.leaf_hit_ratio"] = (hits / v["equivalence.leaves"]
                                           if v.get("equivalence.leaves")
                                           else 0.0)
        links = v.get("ghs.links_checked", 0)
        v["ghs.per_link_ms"] = (1000 * v.get("ghs.link_loop_s", 0.0) / links
                                if links else 0.0)
        return v
