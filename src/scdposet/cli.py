"""Command-line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 bad
input, 2 verification failure.  Streaming commands emit one JSON document
(or one vector) per line so large outputs can be piped without buffering.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import Composition, GridShape, ShapeMismatchError, format_parts, parse_parts
from .decompose import (
    DEFAULT_CAP,
    SAMPLE_STARTS,
    decompose,
    level_sizes,
    verify,
)
from .locate import certificate
from .render import render_ascii, render_svg, tableau_payload
from .starts import NotStartVectorError, StartVector, alpha_end, iter_start_parts, psi
from .tableau import Chain, build_tableau, chain_elements


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, one line on stderr."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="scdposet", description="Symmetric chain decomposition of bounded-composition grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chain", help="print the chain of a start vector as JSON")
    p.add_argument("--alpha", required=True, help="start vector, comma-separated, e.g. 2,0,5,0")
    p.add_argument("-n", required=True, type=int, help="maximum part value")

    p = sub.add_parser("starts", help="stream the starting set, one vector per line")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("-n", required=True, type=int)

    p = sub.add_parser("decompose", help="stream every chain of the grid")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("-n", required=True, type=int)

    p = sub.add_parser("locate", help="find the chain containing a composition")
    p.add_argument("--c", required=True, help="composition, comma-separated")
    p.add_argument("-n", required=True, type=int)

    p = sub.add_parser("psi", help="apply the start-set involution")
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", required=True, type=int)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("-n", required=True, type=int)
    p.add_argument("--oracle", action="store_true", help="enable the exhaustive partition oracle")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest poset size the oracle will enumerate")
    p.add_argument("--sample", type=int, default=SAMPLE_STARTS, help="chains sampled past the cap")

    p = sub.add_parser("render", help="draw the tableau of a start vector")
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", required=True, type=int)
    p.add_argument("--format", choices=["ascii", "svg", "json"], default="ascii")

    p = sub.add_parser("stats", help="level sizes, chain count, chain length histogram")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("-n", required=True, type=int)

    return parser


def _start_vector(text: str, n: int) -> StartVector:
    return StartVector(Composition.of(parse_parts(text), n))


def _chain_payload(ch: Chain) -> dict:
    return {
        "m": ch.alpha.shape.m,
        "n": ch.alpha.shape.n,
        "alpha": list(ch.alpha.parts),
        "alpha_end": list(ch.alpha_end),
        "start": list(ch.start.parts),
        "end": list(ch.end.parts),
        "elements": [list(el.parts) for el in ch.elements],
    }


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")))
    sys.stdout.write("\n")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "chain":
        _emit(_chain_payload(chain_elements(_start_vector(args.alpha, args.n))))
        return 0

    if args.command == "starts":
        shape = GridShape(args.m, args.n)
        for parts in iter_start_parts(shape):
            sys.stdout.write(format_parts(parts) + "\n")
        return 0

    if args.command == "decompose":
        for ch in decompose(GridShape(args.m, args.n)):
            _emit(_chain_payload(ch))
        return 0

    if args.command == "locate":
        c = Composition.of(parse_parts(args.c), args.n)
        cert = certificate(c)
        _emit(
            {
                "m": c.shape.m,
                "n": c.shape.n,
                "c": list(c.parts),
                "alpha": list(cert.alpha.parts),
                "fill_vector": list(cert.fill_vector),
                "positive_set": sorted(cert.positive_set),
            }
        )
        return 0

    if args.command == "psi":
        sv = _start_vector(args.alpha, args.n)
        image = psi(sv)
        back = psi(image)
        if back.parts != sv.parts:
            sys.stderr.write(f"error: psi(psi({sv.parts})) gave {back.parts}\n")
            return 2
        _emit(
            {
                "m": sv.shape.m,
                "n": sv.shape.n,
                "alpha": list(sv.parts),
                "psi": list(image.parts),
                "alpha_end": list(alpha_end(sv)),
                "involution_ok": True,
            }
        )
        return 0

    if args.command == "verify":
        shape = GridShape(args.m, args.n)
        report = verify(shape, use_oracle=args.oracle, cap=args.cap, sample=args.sample)
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
        return 0 if report.passed else 2

    if args.command == "render":
        sv = _start_vector(args.alpha, args.n)
        t = build_tableau(sv)
        if args.format == "json":
            _emit(tableau_payload(t))
        elif args.format == "svg":
            sys.stdout.write(render_svg(t) + "\n")
        else:
            sys.stdout.write(render_ascii(t) + "\n")
        return 0

    if args.command == "stats":
        shape = GridShape(args.m, args.n)
        profile = level_sizes(shape)
        _emit(
            {
                "m": shape.m,
                "n": shape.n,
                "poset_size": shape.size,
                "level_sizes": list(profile.sizes),
                "chain_count": profile.middle,
                "chain_length_histogram": {str(k): v for k, v in sorted(profile.length_counts().items(), reverse=True)},
            }
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except SystemExit as exc:  # argparse help/usage paths
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 1
    except BrokenPipeError:
        return 0
    except (ValueError, NotStartVectorError, ShapeMismatchError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
