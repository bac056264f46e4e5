"""matchlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-reports --seed 0 --seconds 25 --trace 0

A run first times several set-ups, each in a fresh interpreter
(`probe.py`).  It then repeats passes over the workload's operations,
in this process and on one thread, until `--seconds` have gone by; every
pass gets freshly built inputs.  Every time is scaled to a reference
speed of the machine (`speed.py`).  With `--trace 1` the passes
alternate between untraced and traced (spans around every call into the
package, see `tracer.py`), and the run reports per-layer figures and the
tracing overhead instead of the end-to-end metrics.

Outputs are checked outside the timed region: every pass must match the
first one, the first one must satisfy the exact identities in
`workloads.check_outputs`, and at seed 0 it must also match the values
recorded from the seed commit in `expected_seed0.json`.  An exception or
a failed check counts one failed operation.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`, the metric names and units as in BENCHMARK.json
at the root of the checkout.  `--record FILE` also appends every figure
the run measured, as one JSON line, for `compare.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected_seed0.json"
SPANS_DIR = HERE / "out"
RECORDED_SEED = 0
SETUPS = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=RECORDED_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append all measured figures as one JSON line")
    p.add_argument(
        "--write-expected",
        action="store_true",
        help=f"store this workload's checked outputs at seed {RECORDED_SEED} "
        "as the recorded values (run on the seed commit only)",
    )
    return p.parse_args(argv)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


# -- set-up ----------------------------------------------------------------------


def measure_setups(workload: str, seed: int) -> list[dict]:
    """Set up SETUPS times, each in a fresh interpreter; the set-up time is
    the wall time of the whole child process, scaled to the reference
    speed."""
    out = []
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        row = json.loads(done.stdout.strip().splitlines()[-1])
        # The child times the speed reference after its set-up; scale by it
        # like every other time, leaving the reference's own time out.
        factor = speed.NOMINAL_S / row["reference_s"]
        row["setup_raw_s"] = wall - row["reference_s"]
        row["setup_s"] = row["setup_raw_s"] * factor
        for key in ("cli.import_s", "graphs.inputs_build_s", "bench.generate_s"):
            row[key] *= factor
        out.append(row)
    return out


# -- passes ----------------------------------------------------------------------


class Pass:
    """One pass: per operation, the measured seconds (`raw`), the speed
    factor from the references around it (`scale`, see speed.py) and
    their product (`times`), which is what every reported time sums."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.raw: dict[str, float] = {}
        self.scale: dict[str, float] = {}
        self.times: dict[str, float] = {}
        self.outs: dict = {}
        self.digests: dict = {}
        self.failures: dict[str, str] = {}
        self.table: dict = {}
        self.counters: dict = {}
        self.top_level_s = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw.values())


def run_pass(workloads, hosts, ops, tr=None) -> Pass:
    """Each operation's input is built, and the previous one's garbage
    collected, just before it, outside the timed region; so only one
    operation's memo tables are alive at a time, as in one CLI call."""
    result = Pass(tr is not None)
    shared = {op.host: hosts[op.host].build() for op in ops if op.shared}
    if tr is not None:
        tr.reset()
        tr.install()
    refs = [speed.reference_s()]
    try:
        for op in ops:
            gc.collect()
            obj = shared[op.host] if op.shared else hosts[op.host].build()
            if tr is not None:
                tr.op = op.key
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(op, obj)
            except Exception:
                out = None
                result.failures[op.key] = traceback.format_exc(limit=4)
            result.raw[op.key] = time.perf_counter() - t0
            result.outs[op.key] = out
            del obj
            refs.append(speed.reference_s())
            result.scale[op.key] = 2 * speed.NOMINAL_S / (refs[-2] + refs[-1])
            result.times[op.key] = result.raw[op.key] * result.scale[op.key]
    finally:
        if tr is not None:
            tr.uninstall()
    for op in ops:
        if op.key not in result.failures:
            try:
                result.digests[op.key] = workloads.digest(op, result.outs[op.key])
            except Exception:
                result.failures[op.key] = traceback.format_exc(limit=4)
    if tr is not None:
        result.table = tr.table(result.scale)
        result.counters = dict(tr.counters)
        result.top_level_s = tr.top_level_s(result.scale)
    return result


def run_passes(workloads, tracer, hosts, ops, seconds: float, trace: bool):
    """Passes until `seconds` have elapsed; with tracing, untraced and
    traced passes alternate and each kind runs at least once."""
    tr = tracer.Tracer() if trace else None
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced = sum(not p.traced for p in passes)
        traced_next = trace and len(passes) - untraced < untraced
        passes.append(run_pass(workloads, hosts, ops, tr if traced_next else None))
        done_kinds = all(any(p.traced == t for p in passes) for t in ((False, True) if trace else (False,)))
        if time.perf_counter() - start >= seconds and done_kinds:
            break
    return passes, tr, time.perf_counter() - start


# -- checks ----------------------------------------------------------------------


def load_expected(workload: str) -> dict:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get("outputs", {}).get(workload, {})


def failed_ops(workloads, workload, hosts, ops, passes, seed: int) -> tuple[dict, int]:
    """Errors per operation, and the number of failed (pass, operation)
    pairs."""
    first = passes[0]
    errors: dict[str, list] = {}
    for key, tb in first.failures.items():
        errors.setdefault(key, []).append(tb)
    ok_ops = [op for op in ops if op.key not in first.failures]
    for key, errs in workloads.check_outputs(hosts, ok_ops, first.outs).items():
        errors.setdefault(key, []).extend(errs)
    if seed == RECORDED_SEED:
        recorded = load_expected(workload)
        for op in ok_ops:
            if op.key not in recorded:
                errors.setdefault(op.key, []).append("no recorded value")
            elif not workloads.same(workloads.decode(recorded[op.key]), first.digests[op.key]):
                errors.setdefault(op.key, []).append("differs from the recorded value")
    failed = 0
    for p in passes:
        for op in ops:
            bad = op.key in errors or op.key in p.failures
            if not bad and p is not first:
                bad = not workloads.same(first.digests.get(op.key), p.digests.get(op.key))
                if bad:
                    errors.setdefault(op.key, []).append("output changed between passes")
            failed += bad
    return errors, failed


# -- metrics ---------------------------------------------------------------------


def analysis_sums(workloads, ops, p: Pass) -> dict:
    out = {}
    for metric, analyses in workloads.ANALYSIS_SUMS.items():
        out[metric] = sum(p.times[op.key] for op in ops if op.analysis in analyses)
    draws = sum(workloads.draws_of(op) for op in ops)
    mc_s = sum(p.times[op.key] for op in ops if workloads.draws_of(op))
    out["draws_per_s"] = draws / mc_s if mc_s else 0.0
    return out


def per_layer(p: Pass) -> dict:
    t, c = p.table, p.counters

    def field(name, key):
        return t.get(name, {}).get(key, 0)

    out = {}
    for name, row in t.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    for key, value in c.items():
        if not key.endswith(".calls"):
            out[key] = value
    calls = field("pm.sample_pm", "calls")
    out["pm.sample_pm.us_per_call"] = 1e6 * field("pm.sample_pm", "busy_s") / calls if calls else 0.0
    pairs = c.get("switching.candidate_pairs", 0)
    out["switching.edge_yield"] = c.get("switching.switch_edges", 0) / pairs if pairs else 0.0
    sets = c.get("expansion.sets_checked", 0)
    sweep_s = field("expansion.certify_exact", "busy_s") + field("expansion.certify_bipartite", "busy_s")
    out["expansion.us_per_set"] = 1e6 * sweep_s / sets if sets else 0.0
    out["bench.own_s"] = p.wall_s - p.top_level_s
    return out


def collect(workloads, ops, passes, setups, elapsed) -> dict:
    """Every figure of the run, medians over passes (and set-ups)."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    walls = [p.wall_s for p in plain]
    figures = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "setup_raw_s": median([s["setup_raw_s"] for s in setups]),
        "wall_s": median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("cli.import_s", "graphs.inputs_build_s", "bench.generate_s"):
        figures[key] = median([s[key] for s in setups])
    sums = [analysis_sums(workloads, ops, p) for p in plain]
    for key in sums[0]:
        figures[key] = median([s[key] for s in sums])
    if traced:
        layers = [per_layer(p) for p in traced]
        for key in sorted({k for layer in layers for k in layer}):
            figures[key] = median([layer.get(key, 0) for layer in layers])
        figures["trace.untraced_wall_s"] = median(walls)
        figures["trace.traced_wall_s"] = median([p.wall_s for p in traced])
        figures["trace.overhead_frac"] = figures["trace.traced_wall_s"] / figures["trace.untraced_wall_s"] - 1
    figures["run.passes"] = len(passes)
    figures["run.elapsed_s"] = elapsed
    figures["wall_s.q1"], figures["wall_s.q3"] = quartiles(walls)
    figures["raw_wall_s"] = median([p.raw_wall_s for p in plain])
    figures["speed_scale"] = median([p.wall_s / p.raw_wall_s for p in plain])
    return figures


# -- reporting -------------------------------------------------------------------


def report(args, bench, ops, passes, figures, errors, attempted, failed) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[kind]:
        # A layer the workload never calls has no spans: it reads 0.
        if m["name"] not in figures and not args.trace:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": figures.get(m["name"], 0), "unit": m["unit"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} operations in {figures['run.elapsed_s']:.1f} s")
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for key, errs in errors.items():
        for err in errs:
            print(f"  FAILED {key}: {err.strip()}", file=sys.stderr)
    print(f"  wall_s quartiles {figures['wall_s.q1']:.4f} .. {figures['wall_s.q3']:.4f} s; "
          f"unscaled wall {figures['raw_wall_s']:.4f} s, speed factor {figures['speed_scale']:.4f}")
    shown = [m["name"] for m in bench["end_to_end"]] if not args.trace else []
    shown += ["pmf_s", "switching_s", "disjoint_s", "draws_per_s", "expander_s", "walks_s"]
    for name in dict.fromkeys(shown):
        if figures[name]:
            print(f"  {name:<24} {figures[name]:>14.6g} {units.get(name, '')}")
    plain = [p for p in passes if not p.traced]
    for op in ops:
        print(f"    {op.key:<44} {median([p.times[op.key] for p in plain]):>10.4f} s")
    if args.trace:
        print_trace(passes, figures)
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return metrics


def print_trace(passes, figures):
    last = [p for p in passes if p.traced][-1]
    print("  last traced pass, per span name:")
    print(f"    {'name':<36} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    rows = sorted(last.table.items(), key=lambda kv: -kv[1]["self_s"])
    self_sum = 0.0
    for name, row in rows:
        self_sum += row["self_s"]
        print(f"    {name:<36} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}")
    own = last.wall_s - last.top_level_s
    print(f"  accounting: layer self {self_sum:.4f} s + benchmark own {own:.4f} s "
          f"= {self_sum + own:.4f} s of traced wall {last.wall_s:.4f} s")
    print(f"  trace.overhead_frac {figures['trace.overhead_frac']:.4f} "
          f"(traced wall {figures['trace.traced_wall_s']:.4f} s over untraced "
          f"{figures['trace.untraced_wall_s']:.4f} s)")


def write_expected(workloads, ops, first: Pass, workload: str):
    import platform

    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    doc["python"] = platform.python_version()
    doc.setdefault("outputs", {})[workload] = {
        op.key: workloads.encode(first.digests[op.key]) for op in ops
    }
    # One operation per line keeps the file diffable.
    lines = [f' "python": {json.dumps(doc["python"])},', ' "outputs": {']
    for i, (name, outs) in enumerate(sorted(doc["outputs"].items())):
        lines.append(f"  {json.dumps(name)}: {{")
        rows = [f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(outs.items())]
        lines.append(",\n".join(rows))
        lines.append("  }" + ("," if i < len(doc["outputs"]) - 1 else ""))
    EXPECTED.write_text("{\n" + "\n".join(lines) + "\n }\n}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "matchlab" / "__init__.py").is_file():
        print(f"error: no matchlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setups = measure_setups(args.workload, args.seed)
    hosts, ops = workloads.generate(args.workload, args.seed)
    passes, tr, elapsed = run_passes(workloads, tracer, hosts, ops, args.seconds, bool(args.trace))
    figures = collect(workloads, ops, passes, setups, elapsed)
    if args.write_expected:
        if args.seed != RECORDED_SEED or passes[0].failures:
            print("error: record from a clean run at the recorded seed", file=sys.stderr)
            return 2
        write_expected(workloads, ops, passes[0], args.workload)
    errors, failed = failed_ops(workloads, args.workload, hosts, ops, passes, args.seed)
    attempted = len(ops) * len(passes)
    if tr is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        tr.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = report(args, bench, ops, passes, figures, errors, attempted, failed)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "attempted": attempted, "failed": failed, "figures": figures,
            }) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
