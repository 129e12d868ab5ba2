"""Command-line interface.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 bad
input, 2 verification failure.  Streaming commands emit one JSON document
(or one vector) per line so large outputs can be piped without buffering.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .core import Composition, GridShape, parse_parts
from .decompose import MAX_STATS_WORK, level_sizes, verify
from .locate import certificate
from .render import MAX_RENDER_CELLS, render_ascii, render_svg, tableau_payload
from .starts import StartVector, iter_start_parts, psi, start_end
from .tableau import build_tableau, fill_walk


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
    # accepted for scripts written when the oracle was optional; within the
    # cap it always runs
    p.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("render", help="draw the tableau of a start vector")
    p.add_argument("--alpha", required=True)
    p.add_argument("-n", required=True, type=int)
    p.add_argument("--format", choices=["ascii", "svg", "json"], default="ascii")

    p = sub.add_parser("stats", help="level sizes, chain count, chain length histogram")
    p.add_argument("-m", required=True, type=int)
    p.add_argument("-n", required=True, type=int)

    return parser


# A chain line of at most this many elements is written with one `write`; a
# longer chain is joined and written this many elements at a time, so its
# text is never held whole next to its element strings.
_CHUNK = 4096

# A chain line up to its first element; `_chain_writer` fills in m and n
# once per shape, leaving one `%s` per field for each chain.
_HEAD = '{"m":%d,"n":%d,"alpha":[%%s],"alpha_end":[%%s],"start":[%%s],"end":[%%s],"elements":[[%%s'


class _PartStrings:
    """`fill_walk` table for `chain`, whose one chain may visit few of the
    n + 1 part values: makes each part string as the walk reaches it."""

    __slots__ = ()

    def __getitem__(self, key):
        return map(str, range(key.start, key.stop)) if key.__class__ is slice else str(key)


def _chain_writer(m: int, n: int, table: list[str] | _PartStrings) -> Callable[[tuple, tuple], None]:
    """A writer of chain lines for the m-by-n grid: `write_chain(parts, end)`
    writes the chain of the start `parts`, whose end vector `end` is
    certified by `start_end`, as one JSON line, byte-identical to the
    compact `json` encoding, from `table`, the text of each part value.

    The line template, with m and n in it, and stdout's `write` are bound
    once, here; per chain there is the walk, one `%` and one `write`, and
    no value object."""
    head = _HEAD % (m, n)
    line = head + "]]}\n"
    write = sys.stdout.write
    join = ",".join

    def write_chain(parts: tuple[int, ...], end: tuple[int, ...]) -> None:
        els = fill_walk(parts, end, n, table, join)
        first, last = els[0], els[-1]
        end_text = join([table[e] for e in end])
        if len(els) <= _CHUNK:
            write(line % (first, end_text, first, last, "],[".join(els)))
            return
        text = head % (first, end_text, first, last, "],[".join(els[:_CHUNK]))
        for i in range(_CHUNK, len(els), _CHUNK):
            write(text)
            text = "],[" + "],[".join(els[i : i + _CHUNK])
        write(text + "]]}\n")

    return write_chain


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")))
    sys.stdout.write("\n")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "chain":
        sv = StartVector.of(parse_parts(args.alpha), args.n)
        _chain_writer(sv.shape.m, sv.shape.n, _PartStrings())(sv.parts, sv.end)
        return 0

    if args.command == "starts":
        shape = GridShape(args.m, args.n)
        line = (",".join(["%d"] * shape.m) + "\n").__mod__
        write = sys.stdout.write
        for parts in iter_start_parts(shape):
            write(line(parts))
        return 0

    if args.command == "decompose":
        shape = GridShape(args.m, args.n)
        n = shape.n
        write_chain = _chain_writer(shape.m, n, [str(p) for p in range(n + 1)])
        for parts in iter_start_parts(shape):
            write_chain(parts, start_end(parts, n))
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
        sv = StartVector.of(parse_parts(args.alpha), args.n)
        try:
            image = psi(sv)
            # at a fixed point psi(image) is psi(sv) again, which is image
            back = image if image.parts == sv.parts else psi(image)
        except ValueError as exc:
            # sv is certified, so an image that is no valid composition or no
            # start vector is a failed check, not bad input
            sys.stderr.write(f"error: psi image of {sv.parts} rejected: {exc}\n")
            return 2
        if back.parts != sv.parts:
            sys.stderr.write(f"error: psi(psi({sv.parts})) gave {back.parts}\n")
            return 2
        _emit(
            {
                "m": sv.shape.m,
                "n": sv.shape.n,
                "alpha": list(sv.parts),
                "psi": list(image.parts),
                "alpha_end": list(sv.end),
                "involution_ok": True,
            }
        )
        return 0

    if args.command == "verify":
        shape = GridShape(args.m, args.n)
        report = verify(shape)
        sys.stdout.write(json.dumps(report.to_dict(), indent=2) + "\n")
        return 0 if report.passed else 2

    if args.command == "render":
        sv = StartVector.of(parse_parts(args.alpha), args.n)
        if sv.shape.top_rank > MAX_RENDER_CELLS:
            raise ValueError(f"grid of {sv.shape.top_rank} cells exceeds the render limit of {MAX_RENDER_CELLS}")
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
        work = shape.m * shape.top_rank
        if work > MAX_STATS_WORK:
            raise ValueError(f"m*m*n = {work} exceeds the stats limit of {MAX_STATS_WORK}")
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
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
