"""Baseline and spread: every workload at several seeds, as separate runs.

    python3 perfbench/baseline.py --out perfbench/results/BENCH_seed.json

For each workload it makes one untraced run per seed and reports, per
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles over the median, the figure BENCHMARK.json's bounds
are set against). It adds one traced run per workload at the default seed
and one bo-score pass with BLAS left unpinned, for information only: it
shows whether per-pair queries depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def bench(workload: str, seed: int | None, seconds: float, trace: int,
          unpinned: bool = False) -> dict:
    cmd = [sys.executable, *RUN, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if unpinned:
        cmd.append("--unpinned")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    return {"seed": detail["seed"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": detail}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--no-extras", action="store_true",
                   help="skip the traced and unpinned runs")
    args = p.parse_args(argv)

    doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = bench(workload, seed, args.seconds, 0)
            print(workload, seed, r["correct"], r["failed"],
                  {k: round(v, 4) for k, v in r["metrics"].items()}, flush=True)
            runs.append(r)
        names = runs[0]["metrics"]
        entry = {
            "summary": {k: spread([r["metrics"][k] for r in runs]) for k in names},
            "runs": [{k: v for k, v in r.items() if k != "detail"} for r in runs],
            "environment": runs[0]["detail"]["environment"],
        }
        for k, s in entry["summary"].items():
            print(f"  {k:22s} median {s['median']:.6g} spread {s['spread']:.3f}")
        if not args.no_extras:
            traced = bench(workload, None, args.seconds, 1)
            entry["trace"] = {k: traced[k] for k in ("correct", "failed", "metrics")}
            entry["trace"]["absent"] = traced["detail"]["absent"]
        doc["workloads"][workload] = entry

    if not args.no_extras and "bo-score" in args.workloads:
        pinned = bench("bo-score", None, 0, 0)
        unpinned = bench("bo-score", None, 0, 0, unpinned=True)

        def per_pair(r):
            return [(p["index"], p["queries_first_success"], p["total_queries"])
                    for p in r["detail"]["pairs"]]

        doc["unpinned_bo_score"] = {
            "environment": unpinned["detail"]["environment"],
            "pinned_pairs": per_pair(pinned),
            "unpinned_pairs": per_pair(unpinned),
            "same_queries": per_pair(pinned) == per_pair(unpinned),
            "pinned_pair_s": pinned["metrics"]["pair_s"],
            "unpinned_pair_s": unpinned["metrics"]["pair_s"],
        }
        print("unpinned bo-score:", doc["unpinned_bo_score"], flush=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
