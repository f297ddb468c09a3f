"""Command-line front end.

Subcommands wrap the library operations one-to-one and share a uniform
exit contract: 0 for an affirmative verdict, 1 for a negative verdict
(with a witness in the report), 2 for errors (bad JSON, validation
failures, arity mistakes).  Construction commands emit bare complex/pair
JSON on stdout so they compose through pipes; check commands emit a run
report keyed by command name, input content hashes, and parameters.

Reports are byte-identical across runs on identical inputs: keys are
sorted, collections are canonically ordered, and nothing time- or
machine-dependent is serialized.

Input paths are tried literally first, then against the curated data
directory (override with the CORNERKIT_DATA environment variable), so
`-i poincare16.json` works out of the box; `-` reads stdin.

A job starts only what it runs.  One argument table, COMMANDS, declares
each subcommand's arguments.  It drives build_parser, the argparse
parser, and _match, which parses a canonical command line without
importing argparse: the subcommand, its positionals, then declared option
strings written out in full, each at most once with one value that does
not start with '-' (or is '-' itself), every required option present.
Anything else (help, usage errors, abbreviations, --opt=value, -n4) goes
to argparse unchanged, which alone prints help, usage and errors.  A run
report hashes its inputs with CPython's _sha256, falling back to hashlib
where the interpreter lacks it, so a canonical job imports neither
argparse (nor its gettext and locale) nor OpenSSL.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from types import SimpleNamespace

from . import jsonio
from .simplicial import LabeledComplex, _bind, _forward

# The library names the handlers call, by the module they are read from.
# A job imports only its subcommand's modules: `main` binds their names
# into this module's globals before the handler runs, and `__getattr__`
# binds a name on first access from outside.  Both leave a name that is
# already bound alone, so a wrapper installed here beforehand stays in
# place.
LIBRARY = {
    "clearing": ("TRIVIAL_GROUP", "reduced_homology_all"),
    "constructions": ("barycentric", "barycentric_all_two",
                      "boundary_simplex", "cone", "join", "suspension"),
    "coxeter": ("coxeter_matrix", "coxeter_nerve", "is_aspherical",
                "is_finite", "is_proper_labeling"),
    # cli calls no is_cocycle (solve_obstruction checks the cocycle), but
    # bench/spans.py wraps it by this name
    "dualcells": ("NotACocycle", "acyclicity_report", "dual_complex",
                  "is_cocycle", "is_resolution_ready", "solve_obstruction"),
    "equivalence": ("find_isomorphism",),
    "ghs": ("is_ghs", "is_polyhedral_homology_manifold"),
    "quasitoric": ("even_betti_report", "from_fan", "is_characteristic",
                   "pi1_orbit_union"),
}
__getattr__ = _forward(globals(), LIBRARY)


class CliError(Exception):
    """Anything that should terminate with exit code 2."""


class OutputError(Exception):
    """stdout refused a write, with this strerror.  What it holds is lost:
    `__main__.run` reports it as one line and exit 2 without flushing
    stdout again."""


def write_output(text: str) -> None:
    try:
        sys.stdout.write(text)
    except OSError as exc:
        raise OutputError(exc.strerror) from exc


def data_dir() -> str:
    override = os.environ.get("CORNERKIT_DATA")
    if override:
        return override
    from importlib import resources  # only when a literal path misses
    return str(resources.files("cornerkit") / "data")


def read_input(path: str) -> tuple[str, bytes]:
    """Resolve `path` (literal, then data directory, '-' = stdin) and
    return (label, raw bytes)."""
    if path == "-":
        return "-", sys.stdin.buffer.read()
    candidate = path
    if not os.path.exists(candidate):
        candidate = os.path.join(data_dir(), path)
        if not os.path.exists(candidate):
            raise CliError(f"input file not found: {path}")
    try:
        with open(candidate, "rb") as fh:
            return path, fh.read()
    except OSError as exc:  # it exists but cannot be read: a directory, ...
        raise CliError(f"cannot read input file {path}: {exc.strerror}")


def parse_json(raw: bytes, label: str) -> dict:
    try:
        return json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {label}: {exc.msg} at line "
                       f"{exc.lineno} column {exc.colno} (char {exc.pos})")
    except RecursionError:
        raise CliError(f"malformed JSON in {label}: nested too deeply")


def content_hash(raw: bytes) -> str:
    # only a job that writes a JSON run report hashes, and CPython's own
    # _sha256 loads without hashlib's OpenSSL; Python 3.12 renames it
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return "sha256:" + sha256(raw).hexdigest()


def load(path: str, hashes: dict, decode=None):
    """Read and decode one input document, keeping its raw bytes in
    `hashes` under its label for the report to hash; `decode` defaults to
    jsonio.complex_from_obj, looked up per call so a wrapped decoder
    takes effect."""
    label, raw = read_input(path)
    hashes[label] = raw
    try:
        return (decode or jsonio.complex_from_obj)(parse_json(raw, label))
    except ValueError as exc:
        raise CliError(f"{label}: {exc}")


def load_complex(path: str, hashes: dict):
    """Load a complex document, dropping any labels."""
    value = load(path, hashes)
    return value.complex if isinstance(value, LabeledComplex) else value


def load_labeled(path: str, hashes: dict) -> LabeledComplex:
    value = load(path, hashes)
    if not isinstance(value, LabeledComplex):
        raise CliError(f"{path}: expected a labeled complex "
                       f'(a "labels" key)')
    return value


def write_report(args, hashes: dict, parameters: dict, body: dict,
                 lines, verdict) -> int:
    """Write the run report in `args.format`: the JSON object keyed by
    command, the content hashes of the inputs in `hashes` (raw bytes by
    label) and parameters plus `body`, or the text `lines`.  Return the
    exit code of `verdict`."""
    if args.format == "json":
        inputs = {label: content_hash(raw) for label, raw in hashes.items()}
        write_output(jsonio.dumps({"command": args.command,
                                   "inputs": inputs,
                                   "parameters": parameters, **body}))
    else:
        for line in lines:
            write_output(line + "\n")
    return 0 if verdict else 1


# --- subcommand implementations -------------------------------------------
# Each handler takes the parsed arguments and the dict that collects its
# inputs' raw bytes by label, for the report's input hashes.  The library
# functions are module globals looked up when a handler runs, so a wrapper
# installed on this module takes effect.

def cmd_check_links(args, hashes: dict) -> int:
    """check-ghs and check-phm: `args.check` names the library test and
    `args.letter` its dimension in the text report."""
    K = load_complex(args.input, hashes)
    report = globals()[args.check](K, args.dim)
    body = {
        "verdict": report.verdict,
        "dimension": report.dimension,
        "links_checked": report.links_checked,
        "failures": [
            {"simplex": list(f.simplex), "degree": f.degree,
             "expected": jsonio.group_to_obj(f.expected),
             "actual": jsonio.group_to_obj(f.actual)}
            for f in report.failures
        ],
    }
    lines = [f"{args.command} {args.letter}={args.dim} verdict="
             f"{'PASS' if report.verdict else 'FAIL'} "
             f"links_checked={report.links_checked}"]
    lines += [f"  failure simplex={list(f.simplex)} degree={f.degree} "
              f"expected={f.expected.describe()} actual={f.actual.describe()}"
              for f in report.failures]
    return write_report(args, hashes, {"dim": args.dim}, body, lines,
                        report.verdict)


def cmd_check_proper(args, hashes: dict) -> int:
    LK = load_labeled(args.input, hashes)
    proper, offending = is_proper_labeling(LK)
    body = {"verdict": proper,
            "offending": list(offending) if offending else None}
    lines = [f"check-proper verdict={'PASS' if proper else 'FAIL'}"]
    if offending:
        verdict = is_finite(coxeter_matrix(LK, offending))
        body["components"] = [{"vertices": list(vs), "type": tag}
                              for vs, tag in verdict.components]
        lines.append(f"  offending simplex={list(offending)}")
        lines += [f"  component vertices={list(vs)} type={tag}"
                  for vs, tag in verdict.components]
    return write_report(args, hashes, {}, body, lines, proper)


def cmd_check_aspherical(args, hashes: dict) -> int:
    LK = load_labeled(args.input, hashes)
    verdict = is_aspherical(LK, budget=args.budget)
    body = {"verdict": verdict}
    return write_report(
        args, hashes, {"budget": args.budget}, body,
        [f"check-aspherical verdict={'PASS' if verdict else 'FAIL'}"], verdict)


def cmd_coxeter_nerve(args, hashes: dict) -> int:
    LK = load_labeled(args.input, hashes)
    nerve = coxeter_nerve(LK, max_rank=args.max_rank, budget=args.budget)
    write_output(jsonio.dumps(jsonio.complex_to_obj(nerve)))
    return 0


def cmd_equiv(args, hashes: dict) -> int:
    A = load(args.a, hashes)
    B = load(args.b, hashes)
    mapping = find_isomorphism(A, B)
    body = {"verdict": mapping is not None,
            "mapping": ([[a, b] for a, b in sorted(mapping.items())]
                        if mapping is not None else None)}
    if mapping is None:
        lines = ["NOT EQUIVALENT"]
    else:
        lines = [f"{a} -> {b}" for a, b in sorted(mapping.items())]
    return write_report(args, hashes, {}, body, lines, mapping is not None)


def cmd_homology(args, hashes: dict) -> int:
    K = load_complex(args.input, hashes)
    hom = reduced_homology_all(K)
    degrees = ([args.degree] if args.degree is not None
               else [k for k in sorted(hom) if k >= 0])
    groups = {k: hom.get(k, TRIVIAL_GROUP) for k in degrees}
    body = {"reduced_homology": {str(k): jsonio.group_to_obj(g)
                                 for k, g in groups.items()}}
    lines = [f"H~_{k} = {g.describe()}" for k, g in groups.items()]
    return write_report(args, hashes, {"degree": args.degree}, body, lines,
                        True)


def cmd_solve_obstruction(args, hashes: dict) -> int:
    N = load_complex(args.complex, hashes)
    D = dual_complex(N, args.dim, include_top=not args.no_top)
    c = load(args.cochain, hashes,
             lambda obj: jsonio.cochain_from_obj(obj, D))
    witness = None
    try:
        solution = solve_obstruction(D, c)
    except NotACocycle as exc:
        solution, witness = None, list(exc.witness)
    if witness is not None:
        body = {"status": "not-a-cocycle", "witness": witness}
        lines = [f"NOT A COCYCLE: coboundary nonzero on dual face of "
                 f"{witness}"]
    elif solution is None:
        body = {"status": "unsolvable", "witness": None}
        lines = ["UNSOLVABLE: the dual complex is not acyclic in this degree"]
    else:
        body = {"status": "solved",
                "solution": jsonio.cochain_to_obj(solution)}
        lines = ["SOLVED",
                 jsonio.dumps(jsonio.cochain_to_obj(solution)).rstrip()]
    return write_report(args, hashes,
                        {"dim": args.dim, "include_top": not args.no_top},
                        body, lines, solution is not None)


def cmd_acyclicity(args, hashes: dict) -> int:
    N = load_complex(args.input, hashes)
    D = dual_complex(N, args.dim, include_top=not args.no_top)
    report = acyclicity_report(D)
    ready = is_resolution_ready(report)
    body = {"verdict": ready,
            "homology": {str(k): jsonio.group_to_obj(report[k])
                         for k in sorted(report)}}
    lines = [f"acyclicity n={args.dim} resolution-ready="
             f"{'YES' if ready else 'NO'}"]
    lines += [f"  H_{k} = {report[k].describe()}" for k in sorted(report)]
    return write_report(args, hashes,
                        {"dim": args.dim, "include_top": not args.no_top},
                        body, lines, ready)


def cmd_check_charfun(args, hashes: dict) -> int:
    pair = load(args.input, hashes, jsonio.pair_from_obj)
    ok, offending = is_characteristic(pair)
    pi1 = pi1_orbit_union(pair)
    body = {"verdict": ok,
            "offending": list(offending) if offending else None,
            "pi1_orbit_union": jsonio.group_to_obj(pi1)}
    lines = [f"check-charfun verdict={'PASS' if ok else 'FAIL'} "
             f"pi1_orbit_union={pi1.describe()}"]
    if offending:
        lines.append(f"  offending simplex={list(offending)}")
    return write_report(args, hashes, {}, body, lines, ok)


def cmd_from_fan(args, hashes: dict) -> int:
    # the load warns once per non-primitive ray: the first five warnings
    # are "warning: <message>" lines on stderr, whatever the filters say,
    # and one more line counts the rest, as an input error names at most
    # five items
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fan = load(args.input, hashes, jsonio.fan_from_obj)
        finally:
            for w in caught[:5]:
                print("warning:", w.message, file=sys.stderr)
            if len(caught) > 5:
                print(f"warning: {len(caught) - 5} more rays are not "
                      f"primitive", file=sys.stderr)
    try:
        pair = from_fan(fan)
    except ValueError as exc:
        if "singular cones" not in str(exc):
            raise
        body = {"verdict": False, "error": str(exc)}
        return write_report(args, hashes, {}, body, [f"FAIL: {exc}"], False)
    write_output(jsonio.dumps(jsonio.pair_to_obj(pair)))
    return 0


def cmd_betti(args, hashes: dict) -> int:
    pair = load(args.input, hashes, jsonio.pair_from_obj)
    try:
        h = even_betti_report(pair)
    except ValueError as exc:
        body = {"verdict": False, "reason": str(exc)}
        return write_report(args, hashes, {}, body, [f"FAIL: {exc}"], False)
    betti = {str(2 * i): hi for i, hi in enumerate(h)}
    body = {"verdict": True, "h_vector": list(h), "betti_even": betti,
            "betti_odd": 0, "sphere_certificate": "ghs"}
    lines = [f"betti h_vector={list(h)}"]
    lines += [f"  b_{2*i} = {hi}" for i, hi in enumerate(h)]
    lines.append("  b_odd = 0 (all odd degrees)")
    return write_report(args, hashes, {}, body, lines, True)


CONSTRUCT_KINDS = ("boundary-simplex", "cone", "suspension", "join",
                   "barycentric", "barycentric-all-2")


def cmd_construct(args, hashes: dict) -> int:
    """The parse has already restricted `args.kind` to CONSTRUCT_KINDS."""
    kind = args.kind
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
        try:
            K = boundary_simplex(n)
        except OverflowError:  # n is past the platform's index range
            raise CliError(f"boundary-simplex n = {n} is too large")
        out = jsonio.complex_to_obj(K)
    elif kind == "join":
        if len(args.args) != 2:
            raise CliError("construct join takes exactly two complex files")
        A = load_complex(args.args[0], hashes)
        B = load_complex(args.args[1], hashes)
        out = jsonio.complex_to_obj(join(A, B))
    else:
        if args.args:
            raise CliError(f"construct {kind} reads its complex from "
                           f"--input/stdin and takes no positional arguments")
        K = load_complex(args.input, hashes)
        if kind == "cone":
            out = jsonio.complex_to_obj(cone(K))
        elif kind == "suspension":
            out = jsonio.complex_to_obj(suspension(K))
        elif kind == "barycentric":
            out = jsonio.complex_to_obj(barycentric(K))
        else:
            out = jsonio.labeled_to_obj(barycentric_all_two(K))
    write_output(jsonio.dumps(out))
    return 0


# --- argument parsing -------------------------------------------------------
# COMMANDS: name -> (help, handler, library module, other defaults,
# arguments), each argument its flags and add_argument keywords, in the
# order the help lists them.

INPUT = (("--input", "-i"), {
    "default": "-", "help": "input file ('-' = stdin; bare names also "
                            "resolve against the data directory)"})
DIM = (("--dim", "-n"), {"type": int, "required": True,
                         "help": "dimension parameter"})
FORMAT = (("--format",), {"choices": ("json", "text"), "default": "json"})
BUDGET = {"type": int, "default": 1_000_000}

COMMANDS = {
    "check-ghs": ("generalized homology sphere test", cmd_check_links, "ghs",
                  {"check": "is_ghs", "letter": "n"}, (INPUT, DIM, FORMAT)),
    "check-phm": ("polyhedral homology manifold test", cmd_check_links,
                  "ghs", {"check": "is_polyhedral_homology_manifold",
                          "letter": "m"}, (INPUT, DIM, FORMAT)),
    "check-proper": ("proper Coxeter labeling test", cmd_check_proper,
                     "coxeter", {}, (INPUT, FORMAT)),
    "check-aspherical": ("nerve-equality asphericity test",
                         cmd_check_aspherical, "coxeter", {}, (
                             INPUT, FORMAT,
                             (("--budget",), {**BUDGET, "help":
                                              "clique enumeration cap"}))),
    "coxeter-nerve": ("emit the finite-subgroup nerve complex",
                      cmd_coxeter_nerve, "coxeter", {}, (
                          INPUT, FORMAT,
                          (("--max-rank",), {"type": int, "default": None}),
                          (("--budget",), BUDGET))),
    "equiv": ("label-preserving isomorphism search", cmd_equiv,
              "equivalence", {}, ((("a",), {"help": "first complex file"}),
                                  (("b",), {"help": "second complex file"}),
                                  FORMAT)),
    "homology": ("reduced integral homology", cmd_homology, "clearing", {}, (
        INPUT, FORMAT, (("--degree",), {"type": int, "default": None}))),
    "solve-obstruction": ("solve c = δd on the dual-cell complex",
                          cmd_solve_obstruction, "dualcells", {}, (
                              DIM, FORMAT,
                              (("--complex",), {"required": True, "help":
                                                "nerve complex file"}),
                              (("--cochain",), {"required": True,
                                                "help": "cochain file"}),
                              (("--no-top",), {
                                  "action": "store_true", "default": False,
                                  "help":
                                  "exclude the top cell (model the "
                                  "boundary only)"}))),
    "acyclicity": ("homology of the dual-cell complex per degree",
                   cmd_acyclicity, "dualcells", {}, (
                       INPUT, DIM, FORMAT,
                       (("--no-top",), {"action": "store_true",
                                        "default": False}))),
    "check-charfun": ("unimodular-span validation of a pair",
                      cmd_check_charfun, "quasitoric", {}, (INPUT, FORMAT)),
    "from-fan": ("characteristic pair from fan data", cmd_from_fan,
                 "quasitoric", {}, (INPUT, FORMAT)),
    "betti": ("even Betti report from the h-vector", cmd_betti, "quasitoric",
              {}, (INPUT, FORMAT)),
    "construct": ("emit a constructed complex", cmd_construct,
                  "constructions", {}, (
                      (("kind",), {"choices": CONSTRUCT_KINDS}),
                      (("args",), {"nargs": "*",
                                   "help": "kind-specific arguments"}),
                      INPUT, FORMAT)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command`'s alone when it
    names one.  A job that argparse parses needs only its own subparser;
    help, a missing or unknown command and the top-level usage line name
    them all."""
    import argparse  # only for what _match leaves to it
    parser = argparse.ArgumentParser(
        prog="cornerkit",
        description="Exact checks for sphere-like nerves, Coxeter labelings, "
                    "dual-cell obstruction cochains, and torus characteristic "
                    "data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        help, func, library, defaults, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, library=library, **defaults)
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
    return parser


def _match(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a canonical command line, or None.

    Canonical: the subcommand, its positionals, then declared option
    strings written out in full, each at most once and each but a flag
    with one value; every required option is present.  No token after the
    subcommand starts with '-' unless it is an option string or '-'
    itself, so argparse could read no value as an option."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, library, defaults, arguments = COMMANDS[argv[0]]
    found = {"command": argv[0], "func": func, "library": library,
             **defaults}
    options, required, seen = {}, set(), set()
    tokens = argv[1:]
    try:
        for flags, keywords in arguments:
            dest = flags[0].lstrip("-").replace("-", "_")
            if dest == flags[0] and keywords.get("nargs"):  # "*"
                n = next((i for i, t in enumerate(tokens) if _dashed(t)),
                         len(tokens))
                found[dest], tokens = tokens[:n], tokens[n:]
            elif dest == flags[0]:  # a positional
                found[dest] = _value(tokens.pop(0), keywords)
            else:
                found[dest] = keywords.get("default")
                options.update(dict.fromkeys(flags, (dest, keywords)))
                if keywords.get("required"):
                    required.add(dest)
        while tokens:
            dest, keywords = options[tokens.pop(0)]
            if dest in seen:
                return None
            seen.add(dest)
            found[dest] = ("action" in keywords
                           or _value(tokens.pop(0), keywords))
    except (IndexError, KeyError, ValueError):  # argparse's to parse
        return None
    return SimpleNamespace(**found) if required <= seen else None


def _dashed(token: str) -> bool:
    """Could argparse read `token` as an option string?"""
    return token.startswith("-") and token != "-"


def _value(token: str, keywords: dict):
    """`token` as argparse stores it for the argument that `keywords`
    declares.  ValueError where argparse could read it as an option
    string, or where it fails the argument's type or choices."""
    value = keywords.get("type", str)(token)
    if _dashed(token) or value not in keywords.get("choices", (value,)):
        raise ValueError(token)
    return value


def _budget_errors() -> tuple:
    """coxeter's budget error, which only a job that loaded coxeter can
    raise."""
    coxeter = sys.modules.get(f"{__package__}.coxeter")
    return (coxeter.BudgetExceeded,) if coxeter else ()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _match(argv)
    if args is None:
        try:
            args, extra = build_parser(argv[0] if argv else None) \
                .parse_known_args(argv)
            if extra:  # the error's usage line names every subcommand
                build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors already; normalize other codes
            return 2 if exc.code not in (0, None) else 0
    _bind(globals(), args.library, LIBRARY[args.library])
    try:
        return args.func(args, {})
    except (CliError, ValueError, KeyError, *_budget_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
