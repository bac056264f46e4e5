"""Mutation run: how many small faults in one module the test suite kills.

    python3 tools/mutants.py src/matchlab/expansion.py --seed 1 --count 25

The script lists every mutation site of the module, draws `--count` of
them with `random.Random(seed)`, and runs each mutant in a fresh copy of
the repository: first against the module's own test file
(tests/test_<module>.py, when there is one), then, if it survives,
against the whole suite.  A mutant is killed when pytest fails or runs
past its timeout: TIMEOUT_FACTOR times the same pytest target's run on
the unparsed module, and at least TIMEOUT_FLOOR_S.  The own-file run is
timed first; the whole-suite run only when a mutant first survives its
own file.  A timeout is printed as a result of its own, so a mutant that
is merely slow stays visible.  The operators:

- comparison flips: < <-> <=, > <-> >=, == <-> !=;
- arithmetic and bitwise swaps: + <-> -, & <-> |, ^ -> |, << <-> >>,
  * <-> //, in expressions and augmented assignments;
- integer constants: c -> c + 1, except 1 -> 0.

A mutant is the module's syntax tree with one operator or constant
changed, written back with `ast.unparse`, so comments are dropped and
line numbers refer to the original file.  The run needs only the
standard library and pytest, takes minutes, and is not part of the test
suite: run it by hand.  It prints one row per mutant and the kill rate.
"""

from __future__ import annotations

import argparse
import ast
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
BINARY = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>", ast.Mult: "*", ast.FloorDiv: "//",
}
# Copied into each mutant's repository: what the suite imports or reads.
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
MEMORY_CAP = 2 << 30  # address space of one pytest run, in bytes
# A mutant can loop forever: its pytest run may take TIMEOUT_FACTOR times
# the unparsed module's run of the same target, and at least
# TIMEOUT_FLOOR_S, so that a short file's start-up jitter kills nothing.
TIMEOUT_FACTOR = 3
TIMEOUT_FLOOR_S = 20.0


class Mutator(ast.NodeTransformer):
    """Walks a module in source order, numbering its mutation sites, and
    applies the one numbered `target` (none when `target` is None)."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.sites: list[tuple[int, int, str]] = []

    def _site(self, at: ast.AST, label: str) -> bool:
        # an operator's site is where its left operand ends
        self.sites.append((at.end_lineno, at.end_col_offset, label))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node: ast.Compare) -> ast.AST:
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = COMPARE.get(type(op))
            left = node.comparators[i - 1] if i else node.left
            if swap and self._site(left, f"{SYMBOL[type(op)]} -> {SYMBOL[swap]}"):
                node.ops[i] = swap()
        return node

    def _swap_op(self, node) -> ast.AST:
        self.generic_visit(node)
        swap = BINARY.get(type(node.op))
        left = node.left if isinstance(node, ast.BinOp) else node.target
        if swap and self._site(left, f"{SYMBOL[type(node.op)]} -> {SYMBOL[swap]}"):
            node.op = swap()
        return node

    visit_BinOp = _swap_op
    visit_AugAssign = _swap_op

    def visit_Constant(self, node: ast.Constant) -> ast.AST:
        if type(node.value) is int:
            new = 0 if node.value == 1 else node.value + 1
            if self._site(node, f"{node.value} -> {new}"):
                return ast.copy_location(ast.Constant(new), node)
        return node


def mutant_source(source: str, target: int | None) -> str:
    tree = Mutator(target).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_tests(root: Path, tests: str, timeout: float | None) -> str:
    """'pass', 'fail' or 'timeout' for pytest on `tests` under `root`."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests]
    try:
        done = subprocess.run(
            cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout, preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def measured_timeout(root: Path, module: Path, source: str, tests: str) -> float:
    """Write the unparsed module, no site changed, and time its run of
    `tests`, which must pass; a mutant's run of `tests` may take
    TIMEOUT_FACTOR times as long, and at least TIMEOUT_FLOOR_S."""
    (root / module).write_text(mutant_source(source, None))
    start = time.perf_counter()
    if run_tests(root, tests, None) != "pass":
        sys.exit(f"{tests} does not pass on the unparsed module; no kill rate")
    took = time.perf_counter() - start
    timeout = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * took)
    print(f"{tests} passes on the unparsed module in {took:.1f} s: a mutant's run times out at {timeout:.0f} s", flush=True)
    return timeout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module file, relative to --root (e.g. src/matchlab/expansion.py)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=25)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository to mutate (default: the one holding this script)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    module = Path(args.module)
    source = (root / module).read_text()
    counter = Mutator()
    counter.visit(ast.parse(source))
    sites = counter.sites
    drawn = sorted(random.Random(args.seed).sample(range(len(sites)), min(args.count, len(sites))))
    own = f"tests/test_{module.stem}.py"
    if not (root / own).exists():
        own = "tests"
    lines = source.splitlines()
    print(f"mutants of {module} at {root}: seed {args.seed}, {len(drawn)} of {len(sites)} sites")

    killed = 0
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        copy.mkdir()
        for name in COPIED:
            path = root / name
            if path.is_dir():
                shutil.copytree(path, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            elif path.exists():
                shutil.copy2(path, copy / name)
        timeouts = {own: measured_timeout(copy, module, source, own)}
        print(f"{'site':>5} {'line:col':>9}  {'mutation':<10} {'result':<28} source")

        def run_mutant(site: int, tests: str) -> str:
            if tests not in timeouts:
                timeouts[tests] = measured_timeout(copy, module, source, tests)
            (copy / module).write_text(mutant_source(source, site))
            return run_tests(copy, tests, timeouts[tests])

        for site in drawn:
            line, col, label = sites[site]
            result = run_mutant(site, own)
            where = own
            if result == "pass" and own != "tests":
                result = run_mutant(site, "tests")
                where = "tests"
            if result == "pass":
                status = "SURVIVED"
                survivors.append((line, col, label))
            else:
                killed += 1
                status = f"killed ({result}, {where})"
            print(f"{site:>5} {f'{line}:{col}':>9}  {label:<10} {status:<28} {lines[line - 1].strip()[:60]}", flush=True)
    rate = 100 * killed / len(drawn) if drawn else 0.0
    print(f"killed {killed} of {len(drawn)} ({rate:.0f}%)")
    for line, col, label in survivors:
        print(f"survivor: {module}:{line}:{col} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
