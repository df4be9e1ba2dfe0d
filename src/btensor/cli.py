"""Command-line surface.

Subcommands: classify, certify, decompose, oracle, search-b0.  Reports are
JSON on standard output.  Exit codes:

* classify / oracle: 0 on successful analysis (verdicts are data), 2 on
  I/O or parse failure.
* certify: 0 positive definite, 1 not positive definite, 3 inconclusive,
  2 on I/O failure or bad flags.
* decompose: 0 on success, 4 when the symmetry/class preconditions fail,
  2 on I/O failure.
* search-b0: 0 when no candidate is found, 1 when candidates exist, 2 on
  bad flags.
* any command: 5 on an unexpected internal error, with the traceback on
  standard error, so that no crash reads as one of the codes above.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
import warnings
from datetime import datetime, timezone

from . import __version__
from .classify import classify_all
from .decompose import (
    INCONCLUSIVE,
    NOT_POSITIVE_DEFINITE,
    POSITIVE_DEFINITE,
    PreconditionError,
    decompose,
    pd_certify,
)
from .io import TensorFormatError, _report, _search_doc, dump_report, load_tensor
from .oracle import conjecture_search, sphere_minimize

_CERTIFY_EXIT = {POSITIVE_DEFINITE: 0, NOT_POSITIVE_DEFINITE: 1, INCONCLUSIVE: 3}
_INTERNAL_ERROR_EXIT = 5


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load(path: str, quiet: bool):
    if quiet:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load_tensor(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        T = load_tensor(path)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return T


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later
    ones: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="btensor",
        description="Classify, decompose and certify dense real tensors "
        "(file indices are 1-based).",
    )
    parser.add_argument("--version", action="version", version=f"btensor {__version__}")
    parser.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="run every class predicate on a tensor file")
    p.add_argument("file")
    p.add_argument("--margin", type=float, default=0.0,
                   help="require each inequality to hold by more than this slack")

    p = sub.add_parser("certify", help="certify positive definiteness")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="fall back to a sphere search for a violation witness")
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.0)

    p = sub.add_parser("decompose", help="split into residual plus all-one blocks")
    p.add_argument("file")
    p.add_argument("--mode", choices=("quasi", "double"), default="quasi")
    p.add_argument("--no-verify", action="store_true",
                   help="skip per-step class re-verification")

    p = sub.add_parser("oracle", help="sphere-minimize the form of a tensor file")
    p.add_argument("file")
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalization", choices=("l2", "lm"), default="l2")

    p = sub.add_parser("search-b0", help="randomized search for weak-class counterexamples")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--starts", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except Exception:
        traceback.print_exc()
        return _INTERNAL_ERROR_EXIT


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if getattr(args, "margin", 0.0) < 0.0:
        parser.error(f"--margin must be >= 0, got {args.margin}")
    # the oracle commands reach sphere_minimize, which needs at least one start
    searches = args.command == "search-b0" or getattr(args, "oracle", False)
    if searches and args.starts is not None and args.starts < 1:
        parser.error(f"--starts must be >= 1, got {args.starts}")

    if args.command == "search-b0":
        if args.order % 2 != 0 or args.order < 2:
            parser.error(f"--order must be an even integer >= 2, got {args.order}")
        if args.dim < 2:
            parser.error(f"--dim must be >= 2, got {args.dim}")
        if args.trials < 1:
            parser.error(f"--trials must be >= 1, got {args.trials}")
        if not args.tol > 0:
            parser.error(f"--tol must be positive, got {args.tol}")
        report = conjecture_search(
            args.order, args.dim, args.trials, args.seed, args.tol, starts=args.starts
        )
        doc = {
            "search": _search_doc(report),
            "tool": {"name": "btensor", "version": __version__},
            "flags": {
                "order": args.order, "dim": args.dim, "trials": args.trials,
                "tol": args.tol, "starts": args.starts,
            },
            "seed": args.seed,
            "timestamp": _timestamp(),
        }
        print(dump_report(doc))
        return 1 if report.candidates else 0

    try:
        T = _load(args.file, args.quiet)
    except (OSError, TensorFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "classify":
        report = classify_all(T, margin=args.margin)
        doc = _report(
            T, classes=report, flags={"margin": args.margin}, timestamp=_timestamp()
        )
        print(dump_report(doc))
        return 0

    if args.command == "certify":
        cert = pd_certify(
            T, oracle=args.oracle, starts=args.starts, seed=args.seed, margin=args.margin
        )
        doc = _report(
            T,
            classes=classify_all(T, margin=args.margin),
            certificate=cert,
            seed=args.seed,
            flags={"oracle": args.oracle, "starts": args.starts, "margin": args.margin},
            timestamp=_timestamp(),
        )
        print(dump_report(doc))
        return _CERTIFY_EXIT[cert.verdict]

    if args.command == "decompose":
        try:
            result = decompose(T, mode=args.mode, verify_steps=not args.no_verify)
        except (PreconditionError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        doc = _report(
            T,
            decomposition=result,
            flags={"mode": args.mode, "verify": not args.no_verify},
            timestamp=_timestamp(),
        )
        print(dump_report(doc))
        return 0

    if args.command == "oracle":
        try:
            result = sphere_minimize(
                T, starts=args.starts, seed=args.seed, normalization=args.normalization
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = _report(
            T,
            oracle_result=result,
            seed=args.seed,
            flags={"starts": args.starts, "normalization": args.normalization},
            timestamp=_timestamp(),
        )
        print(dump_report(doc))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
