"""Command-line front end; every subcommand is scriptable and deterministic.

Graphs are passed as graph6 strings, either as the positional argument or
one per line on stdin, so subcommands compose through pipes.  Exit codes:
0 success, 1 a checked property does not hold, 2 usage error or an input
the package cannot answer (an eigenpair that misses the residual target),
3 the enumeration budget guard tripped.  A bad graph6 line on stdin stops
the stream: earlier lines keep their output, the error goes to stderr and
the exit code is 2.  A reader that closes stdout early (`| head -1`)
ends the run quietly with exit code 2; whatever was not written is lost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .enumeration import BudgetError, DEFAULT_EDGE_BUDGET, enumerate_by_edges, extremal_search
from .graph6 import from_graph6, to_graph6
from .graphs import FAMILIES, family
from .spectral import ConvergenceError, check_nosal, spectral_radius
from .theta import ThetaSpec, contains_theta
from .verify import certificate_holds, extremal_table, verify_theorem_instance

# The flags each family reads, in builder-argument order; the rest take --n.
_FAMILY_FLAGS = {"book": ("k",), "complete_bipartite": ("s", "t")}

_EPILOG = (
    f"The enumeration budget defaults to {DEFAULT_EDGE_BUDGET} edges; override it "
    "with --limit."
)


def _spec_arg(text: str) -> ThetaSpec:
    try:
        return ThetaSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _range_arg(text: str) -> range:
    try:
        lo, hi = text.split("..") if ".." in text else (text, text)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError
        return range(lo, hi + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M or A..B, got {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spectheta",
        description="Spectral-extremal workbench for theta-free graphs of fixed size.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radius", help="print spectral radius and residual")
    p.add_argument("graph6", nargs="?", help="graph6 string; stdin lines when absent")
    p.add_argument("--json", action="store_true", help="full eigendata as JSON")

    p = sub.add_parser("free", help="exit 0 when theta-free, else 1 with a JSON witness")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="R,P,Q")
    p.add_argument("graph6", nargs="?")

    p = sub.add_parser("enumerate", help="stream graph6 lines, one isomorphism class each")
    p.add_argument("--edges", type=int, required=True, metavar="M")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--free", type=_spec_arg, metavar="R,P,Q",
                   help="keep only graphs free of this theta")
    p.add_argument("--limit", type=int, default=DEFAULT_EDGE_BUDGET,
                   help="override the edge budget guard")

    p = sub.add_parser("search", help="extremal record over theta-free classes")
    p.add_argument("--edges", type=int, required=True, metavar="M")
    p.add_argument("--spec", type=_spec_arg, required=True, metavar="R,P,Q")
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=int, default=DEFAULT_EDGE_BUDGET)

    p = sub.add_parser("table", help="best (2,2,3)-free lambda against the bound, per m")
    p.add_argument("--edges", type=_range_arg, required=True, metavar="A..B")
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=int, default=DEFAULT_EDGE_BUDGET)

    p = sub.add_parser("family", help="print a named family member as graph6")
    p.add_argument("name", choices=list(FAMILIES))
    p.add_argument("--k", type=int, help="page count for book")
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--s", type=int, help="first part size for complete_bipartite")
    p.add_argument("--t", type=int, help="second part size for complete_bipartite")

    p = sub.add_parser("verify", help="certificate for one graph")
    p.add_argument("graph6", nargs="?")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nosal", help="triangle-free bound report")
    p.add_argument("graph6", nargs="?")
    p.add_argument("--json", action="store_true")

    return parser


def _input_graphs(args):
    if args.graph6 is not None:
        yield from_graph6(args.graph6)
        return
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield from_graph6(line)


def _cmd_radius(args) -> int:
    for g in _input_graphs(args):
        res = spectral_radius(g)
        if args.json:
            print(json.dumps(res.to_json()))
        else:
            print(f"{res.lam:.9f} {res.residual:.3e}")
    return 0


def _cmd_free(args) -> int:
    code = 0
    for g in _input_graphs(args):
        witness = contains_theta(g, args.spec)
        if witness is not None:
            print(json.dumps(witness))
            code = 1
    return code


def _cmd_enumerate(args) -> int:
    for g in enumerate_by_edges(args.edges, args.connected, free=args.free,
                                budget=args.limit):
        print(to_graph6(g))
    return 0


def _cmd_search(args) -> int:
    rec = extremal_search(args.edges, args.spec, budget=args.limit)
    if args.json:
        print(json.dumps(rec.to_json(), indent=2))
    else:
        print(f"m={rec.m} spec={rec.spec} candidates={rec.num_candidates}")
        print(f"best  lambda={rec.best_lambda:.9f} graph6={rec.best_graph6}")
        for g6, lam in rec.runner_ups:
            print(f"next  lambda={lam:.9f} graph6={g6}")
    return 0


def _cmd_table(args) -> int:
    rows = extremal_table(args.edges, budget=args.limit)
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'m':>3} {'best_lambda':>14} {'bound':>14} {'gap':>14}  best_graph6")
        for row in rows:
            print(
                f"{row['m']:>3} {row['best_lambda']:>14.9f} {row['bound']:>14.9f} "
                f"{row['gap']:>14.9f}  {row['best_graph6']}"
            )
    return 0


def _cmd_family(args) -> int:
    flags = _FAMILY_FLAGS.get(args.name, ("n",))
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise ValueError(f"family {args.name} needs " + " and ".join(f"--{f}" for f in flags))
    print(to_graph6(family(args.name, *values)))
    return 0


def _cmd_verify(args) -> int:
    code = 0
    for g in _input_graphs(args):
        cert = verify_theorem_instance(g)
        if args.json:
            print(json.dumps(cert, indent=2))
        else:
            print(f"graph6: {cert['graph6']}")
            lam = "none" if cert["lambda"] is None else f"{cert['lambda']:.9f}"
            bound = "none" if cert["bound"] is None else f"{cert['bound']:.9f}"
            print(f"m={cert['m']} lambda={lam} bound={bound}")
            print(f"theta_free: {str(cert['theta_free']).lower()}")
            if cert["lemmas"] is not None:
                held = sum(1 for e in cert["lemmas"] if e["holds"])
                print(f"checklist: {held}/{len(cert['lemmas'])} hold")
            eq = cert["equality_case"]
            print(
                f"equality: claimed={str(eq['claimed']).lower()} "
                f"iso_to_book={str(eq['iso_to_book']).lower()}"
            )
        if not certificate_holds(cert):
            code = 1
    return code


def _cmd_nosal(args) -> int:
    code = 0
    for g in _input_graphs(args):
        report = check_nosal(g)
        if args.json:
            print(json.dumps(report))
        else:
            eq = report["equality_structure"]
            eq_text = f"({eq[0]},{eq[1]})" if eq else "none"
            print(
                f"triangle_free={str(report['triangle_free']).lower()} "
                f"lambda={report['lambda']:.9f} sqrt_m={report['sqrt_m']:.9f} "
                f"satisfied={str(report['satisfied']).lower()} equality={eq_text}"
            )
        if not report["satisfied"]:
            code = 1
    return code


_COMMANDS = {
    "radius": _cmd_radius,
    "free": _cmd_free,
    "enumerate": _cmd_enumerate,
    "search": _cmd_search,
    "table": _cmd_table,
    "family": _cmd_family,
    "verify": _cmd_verify,
    "nosal": _cmd_nosal,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # Flush inside the try, so a reader that closed the pipe early is
        # caught here and not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
