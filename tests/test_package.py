"""Package-wide properties: each exact cap is one module constant that
every analysis above its kernel reads, the package imports nothing
outside the standard library, it raises only its own three errors, and
every exported name has a reader besides its own tests."""

import ast
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import matchlab
from matchlab import expansion, graphs, pm, stats, switching, walks
from matchlab.errors import ResourceLimitError
from matchlab.graphs import complete_graph
from matchlab.stats import (
    avoidance_ratio,
    disjoint_probability,
    edge_probability,
    empirical_edge_freq,
    intersection_pmf,
)
from matchlab.switching import ratio_report
from matchlab.walks import StochasticMatrix, matrix_power, mixing_bound_check, uniform_distribution


ANALYSES_ON_K6 = {
    "edge_probability": lambda g: edge_probability(g, (0, 1)),
    "intersection_pmf": lambda g: intersection_pmf(g, [(0, 1)]),
    "avoidance_ratio": lambda g: avoidance_ratio(g, [(0, 1)]),
    "ratio_report": lambda g: ratio_report(g, [(0, 1)], 1, 2),
    "disjoint_exact": lambda g: disjoint_probability(g, 2),
    "disjoint_montecarlo": lambda g: disjoint_probability(g, 2, mode="montecarlo", samples=10, seed=0),
    "empirical_edge_freq": lambda g: empirical_edge_freq(g, 10, seed=0),
}


@pytest.mark.parametrize("name", sorted(ANALYSES_ON_K6))
def test_lowered_counting_cap_reaches_every_analysis(monkeypatch, name):
    monkeypatch.setattr(pm, "DEFAULT_DP_LIMIT", 4)
    with pytest.raises(ResourceLimitError, match="^n=6 above the counting cap 4$"):
        ANALYSES_ON_K6[name](complete_graph(6))


def test_raised_counting_cap_reaches_edge_probability(monkeypatch):
    with pytest.raises(ResourceLimitError, match="^n=28 above the counting cap 26$"):
        edge_probability(complete_graph(28), (0, 1))
    monkeypatch.setattr(pm, "DEFAULT_DP_LIMIT", 28)
    assert edge_probability(complete_graph(28), (0, 1)) == Fraction(1, 27)


def test_matrix_cap_reaches_mixing_bound_check(monkeypatch):
    # refused below the dimension, computed at it, by both callers alike
    sigma = uniform_distribution(5)
    p = StochasticMatrix(((1,) * 5,) * 5, 5)
    for cap in (3, 4):
        monkeypatch.setattr(walks, "DEFAULT_MATRIX_CAP", cap)
        for run in (lambda: matrix_power(p, 2), lambda: mixing_bound_check(p, sigma, 2)):
            with pytest.raises(ResourceLimitError, match=f"^dimension 5 above the exact-power cap {cap}$"):
                run()
    monkeypatch.setattr(walks, "DEFAULT_MATRIX_CAP", 5)
    assert matrix_power(p, 2) == p
    assert mixing_bound_check(p, sigma, 2).passes


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(matchlab.__file__).parent.rglob("*.py"))
    assert modules
    outside = {
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"matchlab"}
    }
    assert not outside


def test_no_function_takes_a_cap_keyword():
    functions = [
        pm.count_pm, pm.count_pm_containing, pm.enumerate_pm, pm.sample_pm, pm.stratify,
        switching.build_switch_graph, switching._switches, expansion.certify_exact,
        expansion.certify_bipartite, walks.matrix_power, walks._integer_power, walks.count_paths,
        stats.disjoint_probability, graphs.random_regular,
    ]
    knobs = {"limit", "cap", "budget", "tuple_budget", "max_restarts"}
    found = {f.__name__: knobs & set(inspect.signature(f).parameters) for f in functions}
    assert not any(found.values()), found


PACKAGE = Path(matchlab.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _reads(path: Path) -> set[str]:
    """Names a module reads, as a bare name or an attribute; inside the
    top-level def or class that defines a name, that name is not counted."""
    read = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name != own:
                read.add(name)
    return read


def test_every_export_has_a_reader_besides_its_tests():
    # a name stays public when a runner, a benchmark operation or an
    # acceptance criterion reads it, not only its own test
    readers = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers += sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(_reads, readers))
    assert sorted(_exports() - read) == []


ERRORS = {"MatchlabError", "NoPerfectMatchingError", "ResourceLimitError"}


def _raised(path: Path):
    """(top-level def or class, raised name) for every raise in a module;
    a bare `raise` or a raised expression that is not a name gives its source."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(node)
                yield getattr(top, "name", None), name


def test_package_raises_only_its_own_errors():
    # argparse's type= turns exactly ValueError and TypeError into a usage
    # error, so as_fraction, the type of --nu and --tau, keeps them
    raised = {(path.name, top, name) for path in sorted(PACKAGE.glob("*.py")) for top, name in _raised(path)}
    assert {name for _, _, name in raised} >= ERRORS
    stray = {r for r in raised if r[2] not in ERRORS}
    assert stray == {("rational.py", "as_fraction", "ValueError"), ("rational.py", "as_fraction", "TypeError")}
    module = ast.parse((PACKAGE / "errors.py").read_text())
    assert {node.name for node in module.body if isinstance(node, ast.ClassDef)} == ERRORS
