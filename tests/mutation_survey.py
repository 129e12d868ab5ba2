"""Mutation survey: which one-site edits of a module does tier-1 not notice?

Run by hand from any directory; pytest does not collect this file, whose
name matches none of its patterns:

    python3 tests/mutation_survey.py src/scdposet/decompose.py [more modules]

Each mutant makes one edit at one site of one module: it swaps `<`/`<=`,
`>`/`>=`, `==`/`!=` or `+`/`-` (in an augmented assignment too), or adds 1
to an int constant.  The module is rewritten by `ast.unparse`, so comments
and layout are lost; a control run of the unmutated rewrite must pass
first.  Every mutant is written into one temporary copy of the checkout,
never into the checkout itself, and tier-1 runs there with `-x`, under
`AS_LIMIT` bytes of address space, which the control run must pass under
too.  A mutant that tier-1 passes survived; one that exhausts the limit,
or runs past `TIMEOUT_FACTOR` times the control run's wall time, is
killed.  One line is printed per mutant, and the survivors are listed at
the end.  Only the standard library is used, and each mutant costs one
tier-1 run up to its first failure or its timeout.
"""

from __future__ import annotations

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER_1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_FACTOR = 3
AS_LIMIT = 512 << 20

SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
}
SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
}


def _swap_compare(node: ast.Compare, k: int) -> str:
    old = type(node.ops[k])
    node.ops[k] = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def _swap_op(node: ast.BinOp | ast.AugAssign) -> str:
    old = type(node.op)
    node.op = SWAPS[old]()
    return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"


def _raise_constant(node: ast.Constant) -> str:
    node.value += 1
    return f"{node.value - 1} -> {node.value}"


def sites(tree: ast.AST) -> list[tuple[int, object]]:
    """(line, edit) for each mutation site of `tree`, in source order; each
    edit changes its node in place and returns a description."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, lambda node=node, k=k: _swap_compare(node, k)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, lambda node=node: _swap_op(node)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:  # not bool
            found.append((node, lambda node=node: _raise_constant(node)))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset))
    return [(node.lineno, edit) for node, edit in found]


def mutants(source: str):
    """(line, description, mutated source) for each site of `source`."""
    for k in range(len(sites(ast.parse(source)))):
        tree = ast.parse(source)
        line, edit = sites(tree)[k]
        yield line, edit(), ast.unparse(tree)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def tier_1(copy: Path, timeout: float | None) -> bool:
    """Whether tier-1 passes in `copy` under `AS_LIMIT`; a run past
    `timeout` seconds fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        run = subprocess.run(
            TIER_1, cwd=copy, env=env, capture_output=True, timeout=timeout, preexec_fn=_limit_address_space
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def survey(modules: list[Path]) -> list[str]:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        skipped = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, copy, ignore=skipped)
        sources = {m: (ROOT / m).read_text() for m in modules}
        for m, source in sources.items():
            (copy / m).write_text(ast.unparse(ast.parse(source)))
        t0 = time.perf_counter()
        if not tier_1(copy, None):
            sys.exit(f"tier-1 fails on the unmutated rewrite under {AS_LIMIT} bytes; no mutant can be judged")
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - t0)
        print(f"control run passed; each mutant's timeout is {timeout:.0f} s", flush=True)
        for m, source in sources.items():
            target, baseline = copy / m, ast.unparse(ast.parse(source))
            for line, what, mutated in mutants(source):
                target.write_text(mutated)
                t0 = time.perf_counter()
                killed = not tier_1(copy, timeout)
                name = f"{m}:{line}  {what}"
                print(f"{'killed  ' if killed else 'SURVIVED'}  {name}  ({time.perf_counter() - t0:.1f} s)", flush=True)
                if not killed:
                    survivors.append(name)
            target.write_text(baseline)
    return survivors


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    modules = [Path(a).resolve().relative_to(ROOT) for a in argv]
    total = sum(len(sites(ast.parse((ROOT / m).read_text()))) for m in modules)
    survivors = survey(modules)
    print(f"{len(survivors)} of {total} mutants survived")
    for name in survivors:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
