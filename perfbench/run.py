"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload zo-score --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` of the
same checkout. With ``--trace 0`` the run times attack pairs with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it attacks each
pair of the pool untraced and then traced and prints the per-layer
metrics. The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds the environment and per-pair details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "pair_s": "s",
    "pair_s_tail": "s",
    "queries_per_s": "1/s",
    "host_us_per_query": "us",
    "asr": "ratio",
    "queries_to_success": "queries",
    "l2_mean": "l2",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "victim.calls": "count",
    "victim.rows": "count",
    "victim.us_per_call": "us",
    "losses.ProcessOracle.calls": "count",
    "losses.ProcessOracle.us_per_query": "us",
    "losses.score_loss.calls": "count",
    "losses.score_loss.self_us": "us",
    "losses.smoothed_decision_loss.calls": "count",
    "losses.smoothed_decision_loss.self_us": "us",
    "losses.is_success.calls": "count",
    "grad_est.rge_with_base.calls": "count",
    "grad_est.rge_with_base.self_us": "us",
    "prox.zstep.calls": "count",
    "prox.zstep.us": "us",
    "admm.iterations": "count",
    "admm.admm_iterate.self_us": "us",
    "bo.step.calls": "count",
    "bo.step.self_ms": "ms",
    "bo.ei_gradient.calls": "count",
    "bo.ei_gradient.self_us": "us",
    "bo.ei_degenerate_ratio": "ratio",
    "gp.fit_hypers.calls": "count",
    "gp.fit_hypers.ms": "ms",
    "gp.fit_hypers.failures": "count",
    "gp.nlml.calls": "count",
    "gp.nlml.us": "us",
    "gp.nlml_grad.calls": "count",
    "gp.nlml_grad.us": "us",
    "gp.posterior_with_grad.calls": "count",
    "gp.posterior_with_grad.us": "us",
    "gp.posterior.calls": "count",
    "gp.posterior.us": "us",
    "core.project_box_linf.calls": "count",
    "trace.overhead_ratio": "ratio",
    "gp.factor.n20.us": "us",
    "gp.factor.n100.us": "us",
    "gp.posterior_with_grad.n20.us": "us",
    "gp.posterior_with_grad.n100.us": "us",
    "gp.nlml_grad.n20.us": "us",
    "gp.nlml_grad.n100.us": "us",
    "gp.fit_hypers.n20.ms": "ms",
    "gp.fit_hypers.n100.ms": "ms",
    "prox.zstep.l0.us": "us",
    "prox.zstep.l1.us": "us",
    "prox.zstep.l2.us": "us",
    "prox.zstep.elastic.us": "us",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("zo-score", "zo-decision", "bo-score"))
    p.add_argument("--seed", type=int, help="default: the acceptance suite's seed")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="minimum timed attack time (at least one pass of the pool)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--unpinned", action="store_true",
                   help="leave the BLAS thread count to OpenBLAS (information only)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas(unpinned: bool) -> None:
    """Must run before numpy is imported; children inherit the setting."""
    if unpinned:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def import_library():
    """Import the library from this checkout's sources, and nowhere else."""
    if not (SRC / "admmattack" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import admmattack

    if Path(admmattack.__file__).resolve().parent != SRC / "admmattack":
        raise SystemExit(f"error: admmattack imported from {admmattack.__file__}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is not a stable numpy API
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


# -- statistics -----------------------------------------------------------


def tail(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank. With ten samples or fewer no percentile qualifies; the
    maximum is reported with percentile 100 and zero samples beyond.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return {"value": xs[-1], "percentile": 100, "samples": n, "beyond": 0}
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return {"value": xs[rank - 1], "percentile": pct, "samples": n, "beyond": n - rank}


def quality(first_pass, overhead: int, budget: int) -> dict:
    wins = [r for r in first_pass if r.success]
    if not wins:  # the worst values: the whole budget, the largest l2 in the box
        return {"asr": 0.0, "queries_to_success": float(budget),
                "l2_mean": math.sqrt(first_pass[0].pair.x0.size)}
    return {
        "asr": len(wins) / len(first_pass),
        # ledger count at first success, so the decision initializer check
        # (1 query) is included and the value is never 0
        "queries_to_success": statistics.fmean(
            r.queries_first_success + overhead for r in wins),
        "l2_mean": statistics.fmean(r.l2 for r in wins),
    }


# -- runs -------------------------------------------------------------------


def setup_samples(args) -> list[float]:
    """Process start to ready, in fresh processes doing the full set-up."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        finally:
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        out.append(elapsed)
    return out


def attack_pool(session, seconds: float):
    """Attack the pool in order, cycling until ``seconds`` have passed.

    Returns every result; a repeated pair must reproduce its first outcome.
    """
    pairs = session.pairs
    results = []
    t0 = time.perf_counter()
    while len(results) < len(pairs) or time.perf_counter() - t0 < seconds:
        i = len(results)
        r = session.attack(pairs[i % len(pairs)])
        if i >= len(pairs) and r.outcome() != results[i % len(pairs)].outcome():
            r.problems.append("repeat of the pair changed its outcome")
        results.append(r)
    return results


def end_to_end(args, session, samples) -> tuple[dict, list, dict]:
    from perfbench.workloads import init_overhead

    results = attack_pool(session, args.seconds)
    w = session.workload
    blocks = timing_blocks(results, w.block)
    # a pair that raised before its first query is failed, not timed per query
    charged = [b for b in blocks if b["queries"]]
    tl = tail([r.wall_s for r in results])
    metrics = {
        "setup_s": statistics.median(samples),
        "pair_s": statistics.median(b["wall_s"] / b["pairs"] for b in blocks),
        "pair_s_tail": tl["value"],
        "queries_per_s": statistics.median(b["queries"] / b["wall_s"] for b in charged),
        "host_us_per_query": statistics.median(
            1e6 * (b["wall_s"] - b["boundary_s"]) / b["queries"] for b in charged),
        **quality(results[:len(session.pairs)], init_overhead(w), w.budget),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"setup_samples_s": samples, "pair_s_tail": tl, "timing_blocks": blocks}
    return metrics, results, extra


def timing_blocks(results, size: int) -> list[dict]:
    """Totals over consecutive runs of ``size`` pairs; a partial last block is dropped."""
    blocks = []
    for start in range(0, len(results) - size + 1, size):
        chunk = results[start:start + size]
        blocks.append({
            "pairs": size,
            "wall_s": sum(r.wall_s for r in chunk),
            "boundary_s": sum(r.boundary_s for r in chunk),
            "queries": sum(r.ledger for r in chunk),
        })
    return blocks


def per_layer(session) -> tuple[dict, list, dict]:
    from perfbench.probes import run_probes
    from perfbench.tracer import Stat, patch_table

    tracer = session.tracer
    # each pair untraced, then traced, so both see the same machine load
    untraced, traced, diff = [], [], {}
    for pair in session.pairs:
        untraced.append(session.attack(pair))
        before = tracer.snapshot()
        with patch_table(tracer) as absent:
            traced.append(session.attack(pair))
        for k, v in tracer.stats.items():
            diff[k] = diff.get(k, Stat()).plus(v.minus(before.get(k, Stat())))
    for u, t in zip(untraced, traced):
        if u.outcome() != t.outcome():
            t.problems.append("traced run changed the pair's outcome")

    n = len(traced)

    def stat(name):
        return diff.get(name, Stat())

    def calls(name):
        return stat(name).calls / n

    def mean(name, scale, self_time=False):
        s = stat(name)
        t = s.self_seconds if self_time else s.seconds
        return scale * t / s.calls if s.calls else 0.0

    deg = stat("bo.ei_gradient")
    metrics = {
        "victim.calls": calls("victim"),
        "victim.rows": stat("victim").rows / n,
        "victim.us_per_call": mean("victim", 1e6),
        "losses.score_loss.calls": calls("losses.score_loss"),
        "losses.score_loss.self_us": mean("losses.score_loss", 1e6, True),
        "losses.smoothed_decision_loss.calls": calls("losses.smoothed_decision_loss"),
        "losses.smoothed_decision_loss.self_us":
            mean("losses.smoothed_decision_loss", 1e6, True),
        "losses.is_success.calls": calls("losses.is_success"),
        "grad_est.rge_with_base.calls": calls("grad_est.rge_with_base"),
        "grad_est.rge_with_base.self_us": mean("grad_est.rge_with_base", 1e6, True),
        "prox.zstep.calls": calls("prox.zstep"),
        "prox.zstep.us": mean("prox.zstep", 1e6),
        "admm.iterations": calls("admm.admm_iterate"),
        "admm.admm_iterate.self_us": mean("admm.admm_iterate", 1e6, True),
        "bo.step.calls": calls("bo.step"),
        "bo.step.self_ms": mean("bo.step", 1e3, True),
        "bo.ei_gradient.calls": calls("bo.ei_gradient"),
        "bo.ei_gradient.self_us": mean("bo.ei_gradient", 1e6, True),
        "bo.ei_degenerate_ratio": deg.flagged / deg.calls if deg.calls else 0.0,
        "gp.fit_hypers.calls": calls("gp.fit_hypers"),
        "gp.fit_hypers.ms": mean("gp.fit_hypers", 1e3),
        "gp.fit_hypers.failures": stat("gp.fit_hypers").raised / n,
        "gp.nlml.calls": calls("gp.nlml"),
        "gp.nlml.us": mean("gp.nlml", 1e6),
        "gp.nlml_grad.calls": calls("gp.nlml_grad"),
        "gp.nlml_grad.us": mean("gp.nlml_grad", 1e6),
        "gp.posterior_with_grad.calls": calls("gp.posterior_with_grad"),
        "gp.posterior_with_grad.us": mean("gp.posterior_with_grad", 1e6),
        "gp.posterior.calls": calls("gp.posterior"),
        "gp.posterior.us": mean("gp.posterior", 1e6),
        "core.project_box_linf.calls": calls("core.project_box_linf"),
        "trace.overhead_ratio": statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced),
        **run_probes(session.model, str(ROOT)),
    }
    return metrics, untraced + traced, {"absent": absent}


def pair_record(r) -> dict:
    return {
        "index": r.pair.index, "image": r.pair.image, "target": r.pair.target,
        "wall_s": r.wall_s, "boundary_s": r.boundary_s, "ledger": r.ledger,
        "success": r.success, "queries_first_success": r.queries_first_success,
        "total_queries": r.total_queries, "l2": r.l2 if math.isfinite(r.l2) else None,
        "problems": r.problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas(args.unpinned)
    import_library()
    from perfbench.workloads import WORKLOADS, Session

    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.default_seed

    if args.setup_probe:
        Session(workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        samples = setup_samples(args)
        metrics, results, extra = end_to_end(args, Session(workload, args.seed), samples)
        units = END_TO_END
    else:
        metrics, results, extra = per_layer(Session(workload, args.seed))
        units = PER_LAYER

    failed = sum(1 for r in results if r.problems)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "pairs": [pair_record(r) for r in results], "failed_pairs": failed / len(results),
        **extra,
    }
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_pairs':40s} {failed / len(results):14.6g} ratio")
    for r in results:
        for problem in r.problems:
            print(f"pair {r.pair.index}: {problem}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
