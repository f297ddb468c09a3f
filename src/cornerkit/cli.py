"""Command-line front end.

Subcommands wrap the library operations one-to-one and share a uniform
exit contract: 0 for an affirmative verdict, 1 for a negative verdict
(with a witness in the report), 2 for errors (bad JSON, validation
failures, arity mistakes).  Construction commands emit bare complex/pair
JSON on stdout so they compose through pipes; check commands emit a run
report keyed by command name, input content hashes, and parameters.

Reports are byte-identical across runs on identical inputs: keys are
sorted, collections are canonically ordered, and nothing time- or
machine-dependent is serialized.  (Wall-clock timings live on the library
report objects but deliberately stay out of the CLI output.)

Input paths are tried literally first, then against the curated data
directory (override with the CORNERKIT_DATA environment variable), so
`-i poincare16.json` works out of the box; `-` reads stdin.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources

from . import jsonio
from .coxeter import (BudgetExceeded, coxeter_matrix, coxeter_nerve,
                      is_aspherical, is_finite, is_proper_labeling)
from .dualcells import (acyclicity_report, dual_complex, is_cocycle,
                        is_resolution_ready, solve_obstruction)
from .equivalence import find_isomorphism
from .ghs import GhsReport, is_ghs, is_polyhedral_homology_manifold
from .homology import reduced_homology_all
from .quasitoric import (even_betti_report, from_fan, is_characteristic,
                         pi1_orbit_union)
from .simplicial import (LabeledComplex, barycentric, barycentric_all_two,
                         boundary_simplex, cone, join, suspension)


class CliError(Exception):
    """Anything that should terminate with exit code 2."""


def data_dir() -> str:
    override = os.environ.get("CORNERKIT_DATA")
    if override:
        return override
    return str(resources.files("cornerkit") / "data")


def read_input(path: str) -> tuple[str, bytes]:
    """Resolve `path` (literal, then data directory, '-' = stdin) and
    return (label, raw bytes)."""
    if path == "-":
        return "-", sys.stdin.buffer.read()
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return path, fh.read()
    candidate = os.path.join(data_dir(), path)
    if os.path.exists(candidate):
        with open(candidate, "rb") as fh:
            return path, fh.read()
    raise CliError(f"input file not found: {path}")


def parse_json(raw: bytes, label: str) -> dict:
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {label}: {exc.msg} at line "
                       f"{exc.lineno} column {exc.colno} (char {exc.pos})")


def content_hash(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def load(path: str, hashes: dict, decode=None):
    """Read, hash and decode one input document; `decode` defaults to
    jsonio.complex_from_obj, looked up per call so a wrapped decoder
    takes effect."""
    label, raw = read_input(path)
    hashes[label] = content_hash(raw)
    try:
        return (decode or jsonio.complex_from_obj)(parse_json(raw, label))
    except ValueError as exc:
        raise CliError(f"{label}: {exc}")


def require_labeled(value, label: str) -> LabeledComplex:
    if not isinstance(value, LabeledComplex):
        raise CliError(f"{label}: expected a labeled complex "
                       f'(a "labels" key)')
    return value


def plain_complex(value):
    return value.complex if isinstance(value, LabeledComplex) else value


def group_obj(G) -> dict:
    return jsonio.group_to_obj(G)


def ghs_report_obj(report: GhsReport) -> dict:
    return {
        "verdict": report.verdict,
        "dimension": report.dimension,
        "links_checked": report.links_checked,
        "failures": [
            {"simplex": list(f.simplex.vertices), "degree": f.degree,
             "expected": group_obj(f.expected), "actual": group_obj(f.actual)}
            for f in report.failures
        ],
    }


def emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        sys.stdout.write(jsonio.dumps(report))
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def run_report(command: str, hashes: dict, parameters: dict, body: dict) -> dict:
    report = {"command": command, "inputs": hashes, "parameters": parameters}
    report.update(body)
    return report


# --- subcommand implementations -------------------------------------------

def cmd_check_links(args) -> int:
    """check-ghs and check-phm: `args.check` is the library test and
    `args.letter` names its dimension in the text report."""
    hashes: dict = {}
    K = plain_complex(load(args.input, hashes))
    report = args.check(K, args.dim)
    body = ghs_report_obj(report)
    lines = [f"{args.command} {args.letter}={args.dim} verdict="
             f"{'PASS' if report.verdict else 'FAIL'} "
             f"links_checked={report.links_checked}"]
    lines += [f"  failure simplex={list(f.simplex.vertices)} degree={f.degree} "
              f"expected={f.expected.describe()} actual={f.actual.describe()}"
              for f in report.failures]
    emit(run_report(args.command, hashes, {"dim": args.dim}, body),
         args.format, lines)
    return 0 if report.verdict else 1


def cmd_check_proper(args) -> int:
    hashes: dict = {}
    LK = require_labeled(load(args.input, hashes), args.input)
    proper, offending = is_proper_labeling(LK)
    body = {"verdict": proper,
            "offending": list(offending.vertices) if offending else None}
    lines = [f"check-proper verdict={'PASS' if proper else 'FAIL'}"]
    if offending:
        verdict = is_finite(coxeter_matrix(LK, offending.vertices))
        body["components"] = [{"vertices": list(vs), "type": tag}
                              for vs, tag in verdict.components]
        lines.append(f"  offending simplex={list(offending.vertices)}")
        lines += [f"  component vertices={list(vs)} type={tag}"
                  for vs, tag in verdict.components]
    emit(run_report("check-proper", hashes, {}, body), args.format, lines)
    return 0 if proper else 1


def cmd_check_aspherical(args) -> int:
    hashes: dict = {}
    LK = require_labeled(load(args.input, hashes), args.input)
    verdict = is_aspherical(LK, budget=args.budget)
    body = {"verdict": verdict}
    emit(run_report("check-aspherical", hashes, {"budget": args.budget}, body),
         args.format, [f"check-aspherical verdict={'PASS' if verdict else 'FAIL'}"])
    return 0 if verdict else 1


def cmd_coxeter_nerve(args) -> int:
    hashes: dict = {}
    LK = require_labeled(load(args.input, hashes), args.input)
    nerve = coxeter_nerve(LK, max_rank=args.max_rank, budget=args.budget)
    sys.stdout.write(jsonio.dumps(jsonio.complex_to_obj(nerve)))
    return 0


def cmd_equiv(args) -> int:
    hashes: dict = {}
    A = load(args.a, hashes)
    B = load(args.b, hashes)
    if isinstance(A, LabeledComplex) != isinstance(B, LabeledComplex):
        mapping = None
    else:
        mapping = find_isomorphism(A, B)
    body = {"verdict": mapping is not None,
            "mapping": ([[a, b] for a, b in sorted(mapping.items())]
                        if mapping is not None else None)}
    if mapping is None:
        lines = ["NOT EQUIVALENT"]
    else:
        lines = [f"{a} -> {b}" for a, b in sorted(mapping.items())]
    emit(run_report("equiv", hashes, {}, body), args.format, lines)
    return 0 if mapping is not None else 1


def cmd_homology(args) -> int:
    hashes: dict = {}
    K = plain_complex(load(args.input, hashes))
    hom = reduced_homology_all(K)
    degrees = ([args.degree] if args.degree is not None
               else [k for k in sorted(hom) if k >= 0])
    body = {"reduced_homology": {str(k): group_obj(hom.get(k))
                                 for k in degrees}}
    lines = [f"H~_{k} = {hom.get(k).describe()}" for k in degrees]
    emit(run_report("homology", hashes,
                    {"degree": args.degree}, body), args.format, lines)
    return 0


def cmd_solve_obstruction(args) -> int:
    hashes: dict = {}
    N = plain_complex(load(args.complex, hashes))
    D = dual_complex(N, args.dim, include_top=not args.no_top)
    c = load(args.cochain, hashes,
             lambda obj: jsonio.cochain_from_obj(obj, D))
    ok, witness = is_cocycle(D, c)
    params = {"dim": args.dim, "include_top": not args.no_top}
    if not ok:
        body = {"status": "not-a-cocycle",
                "witness": list(witness.label.vertices)}
        emit(run_report("solve-obstruction", hashes, params, body),
             args.format,
             [f"NOT A COCYCLE: coboundary nonzero on dual face of "
              f"{list(witness.label.vertices)}"])
        return 1
    solution = solve_obstruction(D, c)
    if solution is None:
        body = {"status": "unsolvable", "witness": None}
        emit(run_report("solve-obstruction", hashes, params, body),
             args.format,
             ["UNSOLVABLE: the dual complex is not acyclic in this degree"])
        return 1
    body = {"status": "solved", "solution": jsonio.cochain_to_obj(solution)}
    emit(run_report("solve-obstruction", hashes, params, body), args.format,
         ["SOLVED", jsonio.dumps(jsonio.cochain_to_obj(solution)).rstrip()])
    return 0


def cmd_acyclicity(args) -> int:
    hashes: dict = {}
    N = plain_complex(load(args.input, hashes))
    D = dual_complex(N, args.dim, include_top=not args.no_top)
    report = acyclicity_report(D)
    ready = is_resolution_ready(report)
    body = {"verdict": ready,
            "homology": {str(k): group_obj(report[k]) for k in sorted(report)}}
    lines = [f"acyclicity n={args.dim} resolution-ready="
             f"{'YES' if ready else 'NO'}"]
    lines += [f"  H_{k} = {report[k].describe()}" for k in sorted(report)]
    emit(run_report("acyclicity", hashes,
                    {"dim": args.dim, "include_top": not args.no_top}, body),
         args.format, lines)
    return 0 if ready else 1


def cmd_check_charfun(args) -> int:
    hashes: dict = {}
    pair = load(args.input, hashes, jsonio.pair_from_obj)
    ok, offending = is_characteristic(pair)
    pi1 = pi1_orbit_union(pair)
    body = {"verdict": ok,
            "offending": list(offending.vertices) if offending else None,
            "pi1_orbit_union": group_obj(pi1)}
    lines = [f"check-charfun verdict={'PASS' if ok else 'FAIL'} "
             f"pi1_orbit_union={pi1.describe()}"]
    if offending:
        lines.append(f"  offending simplex={list(offending.vertices)}")
    emit(run_report("check-charfun", hashes, {}, body), args.format, lines)
    return 0 if ok else 1


def cmd_from_fan(args) -> int:
    hashes: dict = {}
    fan = load(args.input, hashes, jsonio.fan_from_obj)
    try:
        pair = from_fan(fan)
    except ValueError as exc:
        if "singular cones" not in str(exc):
            raise
        body = {"verdict": False, "error": str(exc)}
        emit(run_report("from-fan", hashes, {}, body), args.format,
             [f"FAIL: {exc}"])
        return 1
    sys.stdout.write(jsonio.dumps(jsonio.pair_to_obj(pair)))
    return 0


def cmd_betti(args) -> int:
    hashes: dict = {}
    pair = load(args.input, hashes, jsonio.pair_from_obj)
    try:
        h = even_betti_report(pair)
    except ValueError as exc:
        body = {"verdict": False, "reason": str(exc)}
        emit(run_report("betti", hashes, {}, body), args.format,
             [f"FAIL: {exc}"])
        return 1
    betti = {str(2 * i): hi for i, hi in enumerate(h)}
    body = {"verdict": True, "h_vector": list(h), "betti_even": betti,
            "betti_odd": 0, "sphere_certificate": "ghs"}
    lines = [f"betti h_vector={list(h)}"]
    lines += [f"  b_{2*i} = {hi}" for i, hi in enumerate(h)]
    lines.append("  b_odd = 0 (all odd degrees)")
    emit(run_report("betti", hashes, {}, body), args.format, lines)
    return 0


CONSTRUCT_KINDS = ("boundary-simplex", "cone", "suspension", "join",
                   "barycentric", "barycentric-all-2")


def cmd_construct(args) -> int:
    kind = args.kind
    hashes: dict = {}
    if kind == "boundary-simplex":
        if len(args.args) != 1:
            raise CliError("construct boundary-simplex takes exactly one "
                           "argument: the simplex dimension n")
        try:
            n = int(args.args[0])
        except ValueError:
            raise CliError(f"not an integer: {args.args[0]!r}")
        if n < 1:
            raise CliError("boundary-simplex needs n >= 1")
        out = jsonio.complex_to_obj(boundary_simplex(n))
    elif kind == "join":
        if len(args.args) != 2:
            raise CliError("construct join takes exactly two complex files")
        A = plain_complex(load(args.args[0], hashes))
        B = plain_complex(load(args.args[1], hashes))
        out = jsonio.complex_to_obj(join(A, B))
    elif kind in ("cone", "suspension", "barycentric", "barycentric-all-2"):
        if args.args:
            raise CliError(f"construct {kind} reads its complex from "
                           f"--input/stdin and takes no positional arguments")
        K = plain_complex(load(args.input, hashes))
        if kind == "cone":
            out = jsonio.complex_to_obj(cone(K))
        elif kind == "suspension":
            out = jsonio.complex_to_obj(suspension(K))
        elif kind == "barycentric":
            out = jsonio.complex_to_obj(barycentric(K))
        else:
            out = jsonio.labeled_to_obj(barycentric_all_two(K))
    else:
        raise CliError(f"unknown construction {kind!r}; choose from "
                       + ", ".join(CONSTRUCT_KINDS))
    sys.stdout.write(jsonio.dumps(out))
    return 0


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerkit",
        description="Exact checks for sphere-like nerves, Coxeter labelings, "
                    "dual-cell obstruction cochains, and torus characteristic "
                    "data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True, needs_dim=False):
        if needs_input:
            p.add_argument("--input", "-i", default="-",
                           help="input file ('-' = stdin; bare names also "
                                "resolve against the data directory)")
        if needs_dim:
            p.add_argument("--dim", "-n", type=int, required=True,
                           help="dimension parameter")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("check-ghs", help="generalized homology sphere test")
    common(p, needs_dim=True)
    p.set_defaults(func=cmd_check_links, check=is_ghs, letter="n")

    p = sub.add_parser("check-phm", help="polyhedral homology manifold test")
    common(p, needs_dim=True)
    p.set_defaults(func=cmd_check_links,
                   check=is_polyhedral_homology_manifold, letter="m")

    p = sub.add_parser("check-proper", help="proper Coxeter labeling test")
    common(p)
    p.set_defaults(func=cmd_check_proper)

    p = sub.add_parser("check-aspherical",
                       help="nerve-equality asphericity test")
    common(p)
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="clique enumeration cap")
    p.set_defaults(func=cmd_check_aspherical)

    p = sub.add_parser("coxeter-nerve",
                       help="emit the finite-subgroup nerve complex")
    common(p)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.set_defaults(func=cmd_coxeter_nerve)

    p = sub.add_parser("equiv", help="label-preserving isomorphism search")
    p.add_argument("a", help="first complex file")
    p.add_argument("b", help="second complex file")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("homology", help="reduced integral homology")
    common(p)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("solve-obstruction",
                       help="solve c = δd on the dual-cell complex")
    common(p, needs_input=False, needs_dim=True)
    p.add_argument("--complex", required=True, help="nerve complex file")
    p.add_argument("--cochain", required=True, help="cochain file")
    p.add_argument("--no-top", action="store_true",
                   help="exclude the top cell (model the boundary only)")
    p.set_defaults(func=cmd_solve_obstruction)

    p = sub.add_parser("acyclicity",
                       help="homology of the dual-cell complex per degree")
    common(p, needs_dim=True)
    p.add_argument("--no-top", action="store_true")
    p.set_defaults(func=cmd_acyclicity)

    p = sub.add_parser("check-charfun",
                       help="unimodular-span validation of a pair")
    common(p)
    p.set_defaults(func=cmd_check_charfun)

    p = sub.add_parser("from-fan",
                       help="characteristic pair from fan data")
    common(p)
    p.set_defaults(func=cmd_from_fan)

    p = sub.add_parser("betti", help="even Betti report from the h-vector")
    common(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("construct", help="emit a constructed complex")
    p.add_argument("kind", choices=CONSTRUCT_KINDS)
    p.add_argument("args", nargs="*", help="kind-specific arguments")
    common(p)
    p.set_defaults(func=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, BudgetExceeded, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
