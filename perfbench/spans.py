"""Spans around the calls into each `scdposet` module, installed from outside.

`install` replaces the listed functions with timing wrappers in every
package module that binds them, so calls between modules (and the calls a
module makes to its own listed functions) pass through a span.  A span's
self time is its duration minus the time of the spans it encloses; helpers
that are not listed count in their caller's self time.  Nothing under
`src/` changes, and a process that never calls `install` runs the package
untouched.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("core", "starts", "tableau", "locate", "decompose", "render", "cli")

# span key -> (module, function names).  The key's prefix is the layer.
FUNCTIONS = {
    "core.ops": ("core", ("rank", "covers", "star", "leq", "parse_parts", "format_parts")),
    "starts.enumerate": ("starts", ("iter_start_parts",)),
    "starts.alpha_end": ("starts", ("alpha_end_parts",)),
    "starts.psi": ("starts", ("psi",)),
    "tableau.chain_elements": ("tableau", ("chain_elements",)),
    "tableau.build_tableau": ("tableau", ("build_tableau",)),
    "tableau.element_at": ("tableau", ("element_at",)),
    "tableau.grid_ops": ("tableau", ("rotate_180", "strip_sources", "alpha_end_from_tableau")),
    "locate.locate": ("locate", ("locate", "locate_parts")),
    "locate.certificate": ("locate", ("certificate",)),
    "decompose.stream": ("decompose", ("decompose",)),
    "decompose.verify": ("decompose", ("verify",)),
    "decompose.oracle": ("decompose", ("check_partition",)),
    "decompose.counting": ("decompose", ("level_sizes", "chain_length_histogram")),
    "render.ascii": ("render", ("render_ascii",)),
    "render.svg": ("render", ("render_svg",)),
    "render.other": ("render", ("tableau_payload", "parse_ascii")),
    "cli.main": ("cli", ("main",)),
}

GENERATORS = {"iter_start_parts", "decompose"}

# What a span counts when not calls: elements built, or cells the greedy
# coloring marked Fixed or Forbidden (the rest are left Fillable).
COUNTERS = {
    "tableau.chain_elements": lambda chain: len(chain.elements),
    "tableau.build_tableau": lambda t: sum(type(cell).__name__ != "Fillable" for row in t.cells for cell in row),
}


class Tracer:
    """Per-key totals: [count, seconds of outermost spans, self seconds, depth]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []

    def wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        count = COUNTERS.get(key)
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            outer = stats[3] == 0
            stats[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[3] -= 1
                stats[2] += dt - frame[0]
                if outer:
                    stats[1] += dt
                if stack:
                    stack[-1][0] += dt
            if outer:
                stats[0] += 1 if count is None else count(result)
            return result

        span.__wrapped__ = fn
        return span

    def wrap_generator(self, key: str, fn):
        """Each resumption is a span; the count is the number of items yielded."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stats[1] += dt
                    stats[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                stats[0] += 1
                yield item

        span.__wrapped__ = fn
        return span

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """key -> (count, seconds, self seconds)."""
        return {k: (v[0], v[1], v[2]) for k, v in self.stats.items()}


def install(tracer: Tracer) -> None:
    """Route every listed function and construction check through `tracer`."""
    home = {name: importlib.import_module(f"scdposet.{name}") for name in LAYERS}
    modules = [importlib.import_module("scdposet"), *home.values()]
    for key, (modname, names) in FUNCTIONS.items():
        for name in names:
            orig = getattr(home[modname], name)
            wrapper = (tracer.wrap_generator if name in GENERATORS else tracer.wrap)(key, orig)
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapper)
    core, starts = home["core"], home["starts"]
    # Value validation: the __post_init__ checks run on every construction.
    for cls in (core.GridShape, core.Composition, starts.StartVector):
        cls.__post_init__ = tracer.wrap("core.validate", cls.__post_init__)
    of = core.Composition.__dict__["of"].__func__
    core.Composition.of = classmethod(tracer.wrap("core.ops", of))
