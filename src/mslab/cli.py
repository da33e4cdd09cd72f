"""Command-line front end.

Exit codes: 0 success, 1 a verified property failed (only reachable by
feeding a corrupted metric through --unchecked), 2 input or usage error,
3 node budget exceeded with an inconclusive result.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Sequence

from . import io as mio
from .errors import MslabError
from .experiments import (
    isometry_probe,
    nonexpansion_sweep,
    simplex_preservation_table,
)
from .gh import (
    DEFAULT_NODE_BUDGET,
    check_search_size,
    gh_exact,
    gh_one_point,
    gh_simplex_simplex,
    gh_simplex_vs_delta_connected,
    gh_simplex_vs_finite,
)
from .hyperspace import (
    DEFAULT_SIZE_CAP,
    build_hyperspace,
    check_gamma_identities,
    hausdorff_distance,
    subset_to_hyperspace_distance,
    verify_embedding_theorem,
)
from .rational import format_rational, parse_rational
from .spaces import Subset, diam_eps, random_space, validate_matrix

ENV_NODE_BUDGET = "MSLAB_NODE_BUDGET"
DEFAULT_SEED = 0


def _indices(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise MslabError(f"expected comma-separated indices, got {text!r}") from None


def _subset(text: str, n: int) -> Subset:
    return Subset.from_indices(_indices(text), n)


def _node_budget(args) -> int:
    if args.node_budget is not None:
        return args.node_budget
    env = os.environ.get(ENV_NODE_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MslabError(
                f"{ENV_NODE_BUDGET} must be an integer, got {env!r}") from None
    return DEFAULT_NODE_BUDGET


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        mio.atomic_write_text(out, text)


def cmd_validate(args) -> int:
    space = mio.load_space(args.input, pseudometric=args.pseudometric)
    diam, eps = diam_eps(space)
    eps_text = "inf" if eps is None else format_rational(eps)
    print(f"valid n={space.n} diam={format_rational(diam)} eps={eps_text}")
    return 0


def cmd_gen(args) -> int:
    seed = args.seed
    if args.entropy:
        seed = random.SystemRandom().randrange(2**32)
        print(f"seed {seed}", file=sys.stderr)
    space = random_space(args.n, seed, args.max_entry)
    if args.name:
        from dataclasses import replace

        space = replace(space, name=args.name)
    _emit(mio.dumps(mio.space_to_doc(space)), args.out)
    return 0


def cmd_diam(args) -> int:
    space = mio.load_space(args.input, pseudometric=args.pseudometric)
    diam, eps = diam_eps(space)
    print(f"diam {format_rational(diam)}")
    print(f"eps {'inf' if eps is None else format_rational(eps)}")
    return 0


def cmd_hausdorff(args) -> int:
    space = mio.load_space(args.z, pseudometric=args.pseudometric)
    a = _subset(args.x, space.n)
    b = _subset(args.y, space.n)
    print(format_rational(hausdorff_distance(space, a, b)))
    return 0


def cmd_gh(args) -> int:
    # the point cap is checked on the parsed shapes, before the O(n^3)
    # validation of each matrix
    a, b = (mio.load_space(path, unchecked=True) for path in (args.a, args.b))
    check_search_size(a.n, b.n)
    a, b = (validate_matrix(s.d, pseudometric=args.pseudometric,
                            labels=s.labels, name=s.name) for s in (a, b))
    result = gh_exact(a, b, _node_budget(args))
    if args.format == "json" or args.out is not None:
        _emit(mio.dumps(mio.gh_result_doc(result, a, b)), args.out)
        if args.out is not None:
            print(f"{format_rational(result.distance)} ({result.status})")
    else:
        print(format_rational(result.distance))
        if result.status != "exact":
            print(f"status {result.status}", file=sys.stderr)
    return 0 if result.status == "exact" else 3


def cmd_hyperspace(args) -> int:
    space = mio.load_space(args.input, pseudometric=args.pseudometric)
    h = build_hyperspace(space, cap=args.cap)
    if args.out is None:
        doc = {"space": mio.space_to_doc(h.metric), **mio.members_doc(h)}
        sys.stdout.write(mio.dumps(doc))
    else:
        sidecar = mio.save_hyperspace(h, args.out)
        print(f"wrote {args.out} and {sidecar} ({len(h.members)} members)")
    return 0


def cmd_closed_form(args) -> int:
    if args.q is not None:
        if args.t is None or args.p is None or args.s is None:
            raise MslabError("simplex-simplex form needs --t --p --s --q")
        value = gh_simplex_simplex(
            parse_rational(args.t), args.p, parse_rational(args.s), args.q)
        print(format_rational(value))
        return 0
    if args.delta is not None:
        if args.t is None or args.p is None or args.input is None:
            raise MslabError(
                "delta-connected bound needs --t --p --delta --input")
        space = mio.load_space(args.input, pseudometric=args.pseudometric)
        lower, upper = gh_simplex_vs_delta_connected(
            parse_rational(args.t), args.p, space, parse_rational(args.delta))
        print(f"{format_rational(lower)} {format_rational(upper)}")
        return 0
    if args.m is not None:
        if args.t is None or args.input is None:
            raise MslabError("simplex-vs-finite form needs --t --m --input")
        space = mio.load_space(args.input, pseudometric=args.pseudometric)
        value = gh_simplex_vs_finite(parse_rational(args.t), args.m, space)
        print(format_rational(value))
        return 0
    if args.input is not None:
        space = mio.load_space(args.input, pseudometric=args.pseudometric)
        print(format_rational(gh_one_point(space)))
        return 0
    raise MslabError(
        "closed-form needs one of: --q (simplex-simplex), --delta "
        "(delta-connected bound), --m (simplex-vs-finite), or --input "
        "alone (one-point rule)")


def cmd_verify_embedding(args) -> int:
    space = mio.load_space(
        args.z, pseudometric=args.pseudometric, unchecked=args.unchecked)
    x = _subset(args.x, space.n)
    y = _subset(args.y, space.n)
    lhs, rhs = verify_embedding_theorem(space, x, y)
    equal = lhs == rhs
    print(f"lhs {format_rational(lhs)}")
    print(f"rhs {format_rational(rhs)}")
    print(f"equal {'yes' if equal else 'NO'}")
    return 0 if equal else 1


def cmd_verify_gamma(args) -> int:
    space = mio.load_space(
        args.z, pseudometric=args.pseudometric, unchecked=args.unchecked)
    x = _subset(args.x, space.n)
    y = _subset(args.y, space.n)
    report = check_gamma_identities(space, x, y)
    via_enum, via_gamma = subset_to_hyperspace_distance(space, x, y)
    routes_agree = via_enum == via_gamma
    print(f"subsets {report.subsets_checked} pairs {report.pairs_checked}")
    print(f"nearest-family route {format_rational(via_gamma)} "
          f"vs enumeration {format_rational(via_enum)}")
    if report.passed and routes_agree:
        print("all identities hold")
        return 0
    if not report.passed:
        print(f"FAILED: {report.counterexample}")
    else:
        print("FAILED: the two subset-to-family routes disagree")
    return 1


def _report_output(args, report) -> int:
    """Write a sweep-style report; 1 on violations, 3 if inconclusive."""
    if args.format == "csv":
        _emit(mio.sweep_report_csv(report), args.out)
    else:
        _emit(mio.dumps(mio.sweep_report_doc(report)), args.out)
    if report.summary.violations:
        return 1
    if any(r.status == "inconclusive" for r in report.rows):
        return 3
    return 0


def cmd_sweep(args) -> int:
    return _report_output(args, nonexpansion_sweep(
        args.count, args.max_n, args.seed, args.max_entry,
        pair_mode=args.pair_mode, node_budget=_node_budget(args)))


def cmd_probe(args) -> int:
    return _report_output(args, isometry_probe(
        args.count, args.n, args.seed,
        max_entry=args.max_entry, node_budget=_node_budget(args)))


def cmd_table(args) -> int:
    t_set = [parse_rational(part) for part in args.t_set.split(",") if part]
    report = simplex_preservation_table(args.p_max, t_set)
    if args.format == "csv":
        _emit(mio.table_report_csv(report), args.out)
    else:
        _emit(mio.dumps(mio.table_report_doc(report)), args.out)
    return 0 if report.all_equal else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="Exact computations on finite metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pseudo = argparse.ArgumentParser(add_help=False)
    pseudo.add_argument(
        "--pseudometric", action="store_true",
        help="allow zero distances between distinct points")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to a file")
    output.add_argument(
        "--format", choices=["json", "csv"], default="json")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--node-budget", type=int, default=None,
        help=f"search node cap (default {DEFAULT_NODE_BUDGET}, "
        f"or ${ENV_NODE_BUDGET})")

    p = sub.add_parser("validate", parents=[pseudo],
                       help="check the metric axioms of a space file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a seeded random space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-entry", type=int, default=9)
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.add_argument(
        "--entropy", action="store_true",
        help="draw the seed from system entropy (prints it to stderr)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("diam", parents=[pseudo],
                       help="diameter and least positive distance")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_diam)

    p = sub.add_parser("hausdorff", parents=[pseudo],
                       help="Hausdorff distance between two subsets")
    p.add_argument("--z", required=True, help="ambient space file")
    p.add_argument("--x", required=True, help="comma-separated indices")
    p.add_argument("--y", required=True, help="comma-separated indices")
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("gh", parents=[pseudo, budget],
                       help="exact Gromov-Hausdorff distance")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gh)

    p = sub.add_parser("hyperspace", parents=[pseudo],
                       help="hyperspace metric plus member sidecar")
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    p.set_defaults(func=cmd_hyperspace)

    p = sub.add_parser("closed-form", parents=[pseudo],
                       help="closed-form distances (see --help)")
    p.add_argument("--t", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--delta", default=None)
    p.add_argument("--input", default=None)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("verify-embedding", parents=[pseudo],
                       help="subset-family distance equals subset distance")
    p.add_argument("--z", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--unchecked", action="store_true",
                   help="skip metric validation (test hook)")
    p.set_defaults(func=cmd_verify_embedding)

    p = sub.add_parser("verify-gamma", parents=[pseudo],
                       help="nearest-point identities for two subsets")
    p.add_argument("--z", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--unchecked", action="store_true",
                   help="skip metric validation (test hook)")
    p.set_defaults(func=cmd_verify_gamma)

    p = sub.add_parser("sweep-nonexpansion", parents=[output, budget],
                       help="random pairs at base and hyperspace level")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-entry", type=int, default=9)
    p.add_argument("--pair-mode",
                   choices=["random", "identical", "one_point"],
                   default="random")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("probe-isometry", parents=[output, budget],
                       help="gap statistics over general-position pairs")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-entry", type=int, default=10)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("table-simplex", parents=[output],
                       help="distance preservation table for simplexes")
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--t-set", default="1,3/2")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MslabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
