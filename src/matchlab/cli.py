"""Command-line orchestration.

One binary with subcommands; every analysis loads or generates a graph,
runs the corresponding module operations, and emits JSON (stdout by
default) or CSV.  The library returns typed exact values; this module
alone renders them, as flat rows with rationals as 'num/den' strings.
All randomness sits behind an explicit --seed, so reports are
byte-deterministic given the same invocation.

Each subcommand parses only the flags its runner reads (build_parser):
--seed, --out and --format everywhere, the host flags (--family, --file,
-a, -b, -n, -d) wherever the runner calls build_graph, which is all but
the two suites, and the analysis's own flags.  Any other flag is refused,
as are a size flag the family does not use and --samples or --trials on
the branch that does not sample.

A host is named once: exactly one of --family (complete, multipartite,
random_regular) and --file.  `expander` runs the bipartite sweep
whenever the host has a bipartition (a file with an 'A:' line, or -a 2)
and --sampled is not given; `suite_tv` builds K_size, or with -a the
complete multipartite graph of a parts of each size.

Exit codes: 0 success, 1 input error (a MatchlabError, an unreadable
file, or a flag argparse refuses), 2 instance too large for the
configured exact caps (a ResourceLimitError, whose message names the
cap).  Any other exception is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import expansion, pm, stats, switching, walks
from .errors import MatchlabError, ResourceLimitError
from .graphs import (
    Bipartition,
    Graph,
    complete_graph,
    complete_multipartite,
    random_regular,
    read_edge_list,
    regularity,
    to_bidirected,
)
from .rational import as_fraction

DEFAULT_SUITE_CAP = 20
# walk-count propagation steps `walks` may take: ell per source vertex,
# and k per vertex for the k-step checks
WALK_STEP_BUDGET = 100_000
# the size flags each host family reads; a bare --file is the file family
_FAMILY_FLAGS = {"complete": "n", "multipartite": "ab", "random_regular": "nd", "file": ""}


def build_graph(args: argparse.Namespace) -> tuple[Graph, Optional[Bipartition]]:
    family = args.family or "file"
    takes = _FAMILY_FLAGS[family]
    unused = [f"-{f}" for f in "abnd" if f not in takes and getattr(args, f) is not None]
    if unused:
        raise MatchlabError(f"{family} family does not take {' '.join(unused)}")
    if any(getattr(args, f) is None for f in takes):
        raise MatchlabError(f"{family} family needs {' and '.join('-' + f for f in takes)}")
    if family == "complete":
        return complete_graph(args.n), None
    if family == "multipartite":
        g = complete_multipartite(args.a, args.b)
        part = None
        if args.a == 2:
            part = Bipartition(range(args.b), range(args.b, 2 * args.b))
        return g, part
    if family == "random_regular":
        return random_regular(args.n, args.d, args.seed), None
    return read_edge_list(args.path)


def _reference_matching(g: Graph, kind: str):
    """Deterministic reference edge set: the canonical first perfect
    matching, or just its first edge."""
    first = pm.first_pm(g)
    if first is None:
        raise MatchlabError("graph has no perfect matching to use as reference")
    if kind == "edge":
        if not first.pairs:
            raise MatchlabError("graph has no edge to use as reference")
        return [first.pairs[0]]
    return first


def _require_even(g: Graph) -> None:
    if g.n % 2 != 0:
        raise MatchlabError("matching analyses need an even number of vertices")


def _params(args: argparse.Namespace) -> expansion.ExpansionParams:
    if args.nu is None or args.tau is None:
        raise MatchlabError("this analysis needs --nu and --tau")
    params = expansion.ExpansionParams(args.nu, args.tau)
    if params.nu > params.tau:
        print("warning: nu > tau is outside the usual hypothesis range", file=sys.stderr)
    return params


def _branch_flag(value: Optional[int], default: int, read: bool, flag: str, branch: str) -> int:
    """A flag that only one branch of a runner reads: its value, or its
    default, where `read`; refused where it would be ignored."""
    if value is not None and not read:
        raise MatchlabError(f"{flag} needs {branch}")
    return default if value is None else value


def _warn_if_vacuous(cert: expansion.ExpansionCertificate) -> None:
    # A sweep passes, and a sampled search (at least one trial) ends
    # inconclusive, after no set only when the size window is empty.
    if cert.sets_checked == 0:
        what = "pass" if cert.verdict is expansion.Verdict.PASS else "search"
        print(f"warning: the size window holds no set, so the {what} is vacuous", file=sys.stderr)


def _overlap_vs_poisson(g: Graph, ref, d: int):
    """Exact PMF of |M & ref|, its Poisson reference at rate e(ref)/d
    (0 when d is 0, as in stats.avoidance_ratio) and their TV distance."""
    dist = stats.intersection_pmf(g, ref)
    lam = len(ref) / d if d else 0.0
    pois = stats.poisson_reference(lam, dist)
    return dist, lam, pois, stats.tv_distance(dist, pois)


def _avoidance_fields(g: Graph, ref) -> dict:
    """Exact avoidance ratio next to its Poisson zero-term."""
    exact, reference = stats.avoidance_ratio(g, ref)
    return {
        "exact": str(exact),
        "exact_float": float(exact),
        "reference": reference,
        "abs_diff": abs(float(exact) - reference),
    }


# -- analysis runners (each returns a list of flat rows) --------------------

def run_count(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    return [{"n": g.n, "m": g.m, "count": str(pm.count_pm(g))}]


def run_edge_prob(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    _require_even(g)
    if pm.count_pm(g) == 0:
        raise MatchlabError("graph has no perfect matching")
    d = regularity(g)
    inv = 1.0 / d if d else None
    rows = []
    for u, v in g.edges:
        p = stats.edge_probability(g, (u, v))
        rows.append(
            {
                "u": u,
                "v": v,
                "exact": str(p),
                "exact_float": float(p),
                "d": d,
                "one_over_d": inv,
                "abs_dev": abs(float(p) - inv) if d else None,
            }
        )
    return rows


def run_pmf(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    _require_even(g)
    d = regularity(g)
    if d is None:
        raise MatchlabError("pmf analysis needs a regular graph")
    ref = _reference_matching(g, args.reference)
    dist, lam, pois, tv = _overlap_vs_poisson(g, ref, d)
    rows = []
    for k in sorted(set(dist.probs) | set(pois.probs)):
        p = dist.prob(k)
        rows.append(
            {
                "k": k,
                "exact": str(p),
                "exact_float": float(p),
                "poisson": float(pois.prob(k)),
                "lambda": lam,
                "tv": tv,
                "poisson_truncation": pois.truncation_mass,
            }
        )
    return rows


def run_avoidance(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    _require_even(g)
    ref = _reference_matching(g, args.reference)
    return [
        {
            "n": g.n,
            "d": regularity(g),
            "reference_edges": len(ref),
            **_avoidance_fields(g, ref),
        }
    ]


def run_disjoint(args: argparse.Namespace) -> list[dict]:
    montecarlo = args.mode == "montecarlo"
    samples = _branch_flag(args.samples, 100_000, montecarlo, "--samples", "--mode montecarlo")
    g, _ = build_graph(args)
    _require_even(g)
    value, reference = stats.disjoint_probability(
        g, args.r, mode=args.mode, samples=samples, seed=args.seed
    )
    exact = isinstance(value, Fraction)
    return [
        {
            "r": args.r,
            "mode": args.mode,
            "value": str(value) if exact else float(value),
            "value_float": float(value),
            "reference": reference,
            "samples": samples if montecarlo else None,
        }
    ]


def run_switching(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    _require_even(g)
    ref = _reference_matching(g, args.reference)
    ells = [args.ell] if args.ell is not None else list(range(2, g.n // 2 + 1))
    if not ells:
        raise MatchlabError("switching needs n >= 4, so that some ell has 2 <= ell and 2*ell <= n")
    rows = []
    for ell in ells:
        rep = switching.ratio_report(g, ref, 1 if args.k is None else args.k, ell)
        lmin, lmax, lmean = rep.left_stats
        rmin, rmax, rmean = rep.right_stats
        rows.append(
            {
                "k": rep.k,
                "ell": rep.ell,
                "stratum_k": str(rep.size_k),
                "stratum_k_minus_1": str(rep.size_km1),
                "exact_ratio": str(rep.exact_ratio),
                "exact_float": float(rep.exact_ratio),
                "predicted": str(rep.predicted),
                "predicted_float": float(rep.predicted),
                "switch_edges": rep.edge_count,
                "left_min": lmin,
                "left_max": lmax,
                "left_mean": float(lmean),
                "right_min": rmin,
                "right_max": rmax,
                "right_mean": float(rmean),
                "double_count_ok": rep.double_count_ok,
            }
        )
    return rows


def run_walks(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    d = regularity(g)
    if d is None or d == 0:
        raise MatchlabError("walks analysis needs a regular graph with edges")
    params = _params(args)
    n = g.n
    nu = params.nu
    ell = args.ell if args.ell is not None else min(n, math.ceil(1 / nu) + 1)
    if ell < 0:
        raise MatchlabError("length must be non-negative")
    k = args.k if args.k is not None else math.ceil(1 / nu) + 1
    if k < 1:
        raise MatchlabError("--k must be at least 1")
    if k * n > WALK_STEP_BUDGET:
        # P^k, the k-step walk rows and the mixing checks all grow with k
        raise ResourceLimitError(
            f"the k-step checks need {k * n} propagation steps, over the budget of {WALK_STEP_BUDGET}"
        )
    if ell * n > WALK_STEP_BUDGET:
        # before the float bounds, whose exact powers cost ell steps on big
        # ints; a low degree keeps the counts in the float range at any ell
        raise ResourceLimitError(
            f"walk counts need {ell * n} propagation steps, over the budget of {WALK_STEP_BUDGET}"
        )
    delta = Fraction(d, n)
    bound = (nu * n) ** (ell - 1)
    ell_too_large = f"--ell {ell} is too large: the walk counts leave the float range"
    try:
        # an ell past the float range is refused before the sweep and walks
        lower = float(bound)
        expected = float(delta**ell * n ** (ell - 1))
    except OverflowError:
        raise MatchlabError(ell_too_large) from None
    dg = to_bidirected(g)
    cert = expansion.certify_exact(dg, params)
    _warn_if_vacuous(cert)
    counts = [walks.count_walks(dg, u, v, ell) for u in range(n) for v in range(n) if u != v]
    lo, hi = min(counts), max(counts)
    try:
        # |c/expected - 1| is largest at the smallest or the largest count,
        # and one count can leave the float range where their mean does not
        rel_err = max(abs(c / expected - 1.0) for c in (lo, hi))
    except OverflowError:
        raise MatchlabError(ell_too_large) from None
    pk = walks.matrix_power(walks.transition_matrix(dg), k)
    sigma = walks.uniform_distribution(n)
    row: dict = {
        "nu": float(nu),
        "tau": float(params.tau),
        "certificate": cert.verdict.value,
        "ell": ell,
        "min_walks": lo,
        "max_walks": hi,
        "walk_lower_bound": lower,
        "walk_bound_ok": lo >= bound,
        "max_rel_err_vs_regular_count": rel_err,
        "k": k,
        "sandwich_ok": walks.sandwich_check(dg, k, nu, delta),
    }
    try:
        mix, sig = walks._mixing_params(pk, sigma)
        t = math.ceil(mix.threshold)
        row.update(
            alpha=float(mix.alpha),
            beta=float(mix.beta),
            mixing_threshold=mix.threshold,
            mixing_t=t,
            mixing_passes=walks._envelope_holds(pk, sig, mix.alpha, t),
        )
    except MatchlabError as exc:
        row["mixing_error"] = str(exc)
    return [row]


def run_expander(args: argparse.Namespace) -> list[dict]:
    trials = _branch_flag(args.trials, 1000, args.sampled, "--trials", "--sampled")
    if args.sampled and trials < 1:
        raise MatchlabError("sampled mode needs at least one trial")
    g, part = build_graph(args)
    if args.sampled and part is not None:
        # The refuter draws sets of all n vertices at scale n, while the
        # sweep on this host ranges over one side: the two would disagree.
        raise MatchlabError("a host with a bipartition takes the bipartite sweep: drop --sampled")
    params = _params(args)
    if args.sampled:
        cert = expansion.refute_sampled(g, params, trials, args.seed)
    elif part is not None:
        cert = expansion.certify_bipartite(g, part, params)
    else:
        cert = expansion.certify_exact(g, params)
    _warn_if_vacuous(cert)
    return [
        {
            "verdict": cert.verdict.value,
            "nu": float(cert.nu),
            "tau": float(cert.tau),
            "witness": " ".join(map(str, cert.witness)) if cert.witness is not None else None,
            "sets_checked": cert.sets_checked,
        }
    ]


def run_suite_multipartite(args: argparse.Namespace) -> list[dict]:
    """Avoidance ratios across the balanced complete multipartite family,
    from the bipartite end (two parts) to the complete graph (parts of
    size one).  The smallest host, K_4, needs --b-max >= 1 and --cap >= 4."""
    if args.b_max < 1 or args.cap < 4:
        raise MatchlabError("the suite holds no host: it needs --b-max >= 1 and --cap >= 4")
    rows = []
    for b in range(1, args.b_max + 1):
        for parts in range(2, args.cap // b + 1):
            n = parts * b
            if n % 2 != 0 or n < 4:
                continue
            g = complete_multipartite(parts, b)
            rows.append(
                {
                    "parts": parts,
                    "part_size": b,
                    "n": n,
                    "d": (parts - 1) * b,
                    **_avoidance_fields(g, pm.first_pm(g)),
                }
            )
    rows.sort(key=lambda r: (r["n"], r["parts"]))
    return rows


def run_suite_tv(args: argparse.Namespace) -> list[dict]:
    """Distance between the exact overlap distribution (reference: one
    fixed perfect matching) and its Poisson reference across sizes: K_size,
    or with -a the complete multipartite graph of a parts of that size."""
    a = args.a
    family = "complete" if a is None else "multipartite"
    rows = []
    for size in args.sizes:
        g = complete_graph(size) if a is None else complete_multipartite(a, size)
        if g.n % 2 != 0:
            raise MatchlabError(f"size {size} gives an odd vertex count")
        ref = pm.first_pm(g)
        if ref is None:
            raise MatchlabError(f"size {size} gives a graph with no perfect matching")
        d = regularity(g)
        dist, lam, pois, tv = _overlap_vs_poisson(g, ref, d)
        p0 = dist.prob(0)
        rows.append(
            {
                "family": family,
                "n": g.n,
                "d": d,
                "lambda": lam,
                "tv": tv,
                "p0_exact": str(p0),
                "p0_float": float(p0),
                "poisson_truncation": pois.truncation_mass,
                "out_of_regime": g.n < 4,
            }
        )
    return rows


_RUNNERS = {
    "count": run_count,
    "edge_prob": run_edge_prob,
    "pmf": run_pmf,
    "avoidance": run_avoidance,
    "disjoint": run_disjoint,
    "switching": run_switching,
    "walks": run_walks,
    "expander": run_expander,
    "suite_multipartite": run_suite_multipartite,
    "suite_tv": run_suite_tv,
}


# -- output -----------------------------------------------------------------

def render_json(args: argparse.Namespace, rows: list[dict]) -> str:
    doc = {"analysis": args.analysis, "seed": args.seed, "rows": rows}
    return json.dumps(doc, indent=2) + "\n"


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if not rows:
        return ""
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = {}
        for key in fields:
            val = row.get(key)
            # a float carries 12 significant digits
            out[key] = format(val, ".12g") if isinstance(val, float) else val
        writer.writerow(out)
    return buf.getvalue()


def run(args: argparse.Namespace) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        rows = _RUNNERS[args.analysis](args)
        text = render_csv(rows) if args.fmt == "csv" else render_json(args, rows)
    except ResourceLimitError as exc:
        print(f"error: instance too large: {exc}", file=sys.stderr)
        return 2
    except (MatchlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ---------------------------------------------------------

class _SubcommandParser(argparse.ArgumentParser):
    """Refuses a flag it does not take with its own usage, which lists the
    flags the subcommand does take, rather than with the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="Exact perfect-matching experiments on small graphs.",
    )
    sub = parser.add_subparsers(dest="analysis", required=True, parser_class=_SubcommandParser)
    subs = {name: sub.add_parser(name) for name in _RUNNERS}
    for name, p in subs.items():
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        if name.startswith("suite_"):
            continue
        host = p.add_mutually_exclusive_group(required=True)
        host.add_argument("--family", choices=["complete", "multipartite", "random_regular"])
        host.add_argument("--file", dest="path")
        for flag in ("-a", "-b", "-n", "-d"):
            p.add_argument(flag, type=int)
    for name in ("pmf", "avoidance", "switching"):
        subs[name].add_argument("--reference", choices=["pm", "edge"], default="pm")
    for name in ("switching", "walks"):
        subs[name].add_argument("--ell", type=int)
        subs[name].add_argument("--k", type=int)
    for name in ("walks", "expander"):
        subs[name].add_argument("--nu", type=as_fraction)
        subs[name].add_argument("--tau", type=as_fraction)
    p = subs["disjoint"]
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
    p.add_argument("--samples", type=int)
    p = subs["expander"]
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--trials", type=int)
    p = subs["suite_multipartite"]
    p.add_argument("--b-max", dest="b_max", type=int, default=6)
    p.add_argument("--cap", type=int, default=DEFAULT_SUITE_CAP)
    p = subs["suite_tv"]
    p.add_argument("-a", type=int)
    p.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 10, 12])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
