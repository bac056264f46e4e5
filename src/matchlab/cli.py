"""Command-line orchestration.

One binary with subcommands; every analysis loads or generates a graph,
runs the corresponding module operations, and emits JSON (stdout by
default) or CSV.  All randomness sits behind an explicit --seed, so
reports are byte-deterministic given the same invocation.

Exit codes: 0 success, 1 input error, 2 instance too large for the
configured exact caps.
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
from .rational import as_fraction, fmt12, frac_str

DEFAULT_SUITE_CAP = 20


def build_graph(args: argparse.Namespace) -> tuple[Graph, Optional[Bipartition]]:
    if args.family == "complete":
        if args.n is None:
            raise ValueError("complete family needs -n")
        return complete_graph(args.n), None
    if args.family == "multipartite":
        if args.a is None or args.b is None:
            raise ValueError("multipartite family needs -a and -b")
        g = complete_multipartite(args.a, args.b)
        part = None
        if args.a == 2:
            part = Bipartition(range(args.b), range(args.b, 2 * args.b))
        return g, part
    if args.family == "random_regular":
        if args.n is None or args.d is None:
            raise ValueError("random_regular family needs -n and -d")
        return random_regular(args.n, args.d, args.seed), None
    if args.family == "file" or args.path:
        if not args.path:
            raise ValueError("file family needs --file")
        return read_edge_list(args.path)
    raise ValueError(f"unknown family {args.family!r}")


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
        raise ValueError("matching analyses need an even number of vertices")


def _params(args: argparse.Namespace) -> expansion.ExpansionParams:
    if args.nu is None or args.tau is None:
        raise ValueError("this analysis needs --nu and --tau")
    params = expansion.ExpansionParams(args.nu, args.tau)
    if params.nu > params.tau:
        print("warning: nu > tau is outside the usual hypothesis range", file=sys.stderr)
    return params


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
        "exact": frac_str(exact),
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
    d = regularity(g)
    inv = 1.0 / d if d else None
    rows = []
    for u, v in g.edges:
        p = stats.edge_probability(g, (u, v))
        rows.append(
            {
                "u": u,
                "v": v,
                "exact": frac_str(p),
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
                "exact": frac_str(p),
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
    g, _ = build_graph(args)
    _require_even(g)
    value, reference = stats.disjoint_probability(
        g, args.r, mode=args.mode, samples=args.samples, seed=args.seed
    )
    exact = isinstance(value, Fraction)
    return [
        {
            "r": args.r,
            "mode": args.mode,
            "value": frac_str(value) if exact else float(value),
            "value_float": float(value),
            "reference": reference,
            "samples": args.samples if args.mode == "montecarlo" else None,
        }
    ]


def run_switching(args: argparse.Namespace) -> list[dict]:
    g, _ = build_graph(args)
    _require_even(g)
    ref = _reference_matching(g, args.reference)
    ells = [args.ell] if args.ell is not None else list(range(2, g.n // 2 + 1))
    rows = []
    for ell in ells:
        rep = switching.ratio_report(g, ref, args.k, ell)
        lmin, lmax, lmean = rep.left_stats
        rmin, rmax, rmean = rep.right_stats
        rows.append(
            {
                "k": rep.k,
                "ell": rep.ell,
                "stratum_k": str(rep.size_k),
                "stratum_k_minus_1": str(rep.size_km1),
                "exact_ratio": frac_str(rep.exact_ratio),
                "exact_float": float(rep.exact_ratio),
                "predicted": frac_str(rep.predicted),
                "predicted_float": float(rep.predicted),
                "switch_edges": rep.edge_count,
                "left_min": lmin,
                "left_max": lmax,
                "left_mean": float(lmean) if lmean is not None else None,
                "right_min": rmin,
                "right_max": rmax,
                "right_mean": float(rmean) if rmean is not None else None,
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
    dg = to_bidirected(g)
    cert = expansion.certify_exact(dg, params)
    n = g.n
    nu = params.nu
    ell = args.ell if args.ell is not None else min(n, math.ceil(1 / nu) + 1)
    counts = [
        walks.count_walks(dg, u, v, ell) for u in range(n) for v in range(n) if u != v
    ]
    lower = float((nu * n) ** (ell - 1))
    delta = Fraction(d, n)
    expected = float(delta**ell * n ** (ell - 1))
    rel_err = max(abs(c / expected - 1.0) for c in counts) if counts else 0.0
    k = args.k if args.k > 1 else math.ceil(1 / nu) + 1
    p = walks.transition_matrix(dg)
    pk = walks.matrix_power(p, k)
    sigma = walks.uniform_distribution(n)
    row: dict = {
        "nu": float(nu),
        "tau": float(params.tau),
        "certificate": cert.verdict.value,
        "ell": ell,
        "min_walks": min(counts) if counts else 0,
        "max_walks": max(counts) if counts else 0,
        "walk_lower_bound": lower,
        "walk_bound_ok": all(c >= (nu * n) ** (ell - 1) for c in counts),
        "max_rel_err_vs_regular_count": rel_err,
        "k": k,
        "sandwich_ok": walks.sandwich_check(dg, k, nu, delta),
    }
    try:
        mix = walks.mixing_params(pk, sigma)
        t = math.ceil(mix.threshold)
        rep = walks.mixing_bound_check(pk, sigma, t)
        row.update(
            {
                "alpha": float(mix.alpha),
                "beta": float(mix.beta),
                "mixing_threshold": mix.threshold,
                "mixing_t": t,
                "mixing_passes": rep.passes,
            }
        )
    except MatchlabError as exc:
        row.update({"mixing_error": str(exc)})
    return [row]


def run_expander(args: argparse.Namespace) -> list[dict]:
    g, part = build_graph(args)
    params = _params(args)
    if args.sampled:
        cert = expansion.refute_sampled(g, params, args.trials, args.seed)
    elif args.bipartite or part is not None:
        if part is None:
            raise ValueError("--bipartite needs a file with an 'A:' line or -a 2")
        cert = expansion.certify_bipartite(g, part, params)
    else:
        cert = expansion.certify_exact(g, params)
    out = cert.to_json_dict()
    out["witness"] = (
        " ".join(str(v) for v in cert.witness) if cert.witness is not None else None
    )
    return [out]


def suite_multipartite_limit(b_max: int, cap: int = DEFAULT_SUITE_CAP) -> list[dict]:
    """Avoidance ratios across the balanced complete multipartite family,
    from the bipartite end (two parts) to the complete graph (parts of
    size one)."""
    rows = []
    for b in range(1, b_max + 1):
        for parts in range(2, cap // b + 1):
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


def suite_tv_trend(family: str, sizes: list[int], a: Optional[int] = None) -> list[dict]:
    """Distance between the exact overlap distribution (reference: one
    fixed perfect matching) and its Poisson reference across sizes."""
    rows = []
    for size in sizes:
        if family == "complete":
            g = complete_graph(size)
        elif family == "multipartite":
            if a is None:
                raise ValueError("multipartite trend needs -a")
            g = complete_multipartite(a, size)
        else:
            raise ValueError(f"unknown family {family!r}")
        if g.n % 2 != 0:
            raise ValueError(f"size {size} gives an odd vertex count")
        d = regularity(g)
        dist, lam, pois, tv = _overlap_vs_poisson(g, pm.first_pm(g), d)
        p0 = dist.prob(0)
        rows.append(
            {
                "family": family,
                "n": g.n,
                "d": d,
                "lambda": lam,
                "tv": tv,
                "p0_exact": frac_str(p0),
                "p0_float": float(p0),
                "poisson_truncation": pois.truncation_mass,
                "out_of_regime": g.n < 4,
            }
        )
    return rows


def run_suite_multipartite(args: argparse.Namespace) -> list[dict]:
    return suite_multipartite_limit(args.b_max, args.cap)


def run_suite_tv(args: argparse.Namespace) -> list[dict]:
    # --file with no --family names the file family, which has no trend
    family = args.family or ("file" if args.path else "complete")
    sizes = args.sizes or [6, 8, 10, 12]
    return suite_tv_trend(family, sizes, args.a)


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
            out[key] = fmt12(val) if isinstance(val, float) else val
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
    except (MatchlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="Exact perfect-matching experiments on small graphs.",
    )
    sub = parser.add_subparsers(dest="analysis", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--family", choices=["complete", "multipartite", "random_regular", "file"])
        p.add_argument("--file", dest="path")
        p.add_argument("-a", type=int)
        p.add_argument("-b", type=int)
        p.add_argument("-n", type=int)
        p.add_argument("-d", type=int)
        p.add_argument("--nu", type=as_fraction)
        p.add_argument("--tau", type=as_fraction)
        p.add_argument("--ell", type=int)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--r", type=int, default=2)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=["exact", "montecarlo"], default="exact")
        p.add_argument("--reference", choices=["pm", "edge"], default="pm")
        p.add_argument("--sampled", action="store_true")
        p.add_argument("--bipartite", action="store_true")
        p.add_argument("--sizes", type=int, nargs="*", default=[])
        p.add_argument("--b-max", dest="b_max", type=int, default=6)
        p.add_argument("--cap", type=int, default=DEFAULT_SUITE_CAP)
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
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
