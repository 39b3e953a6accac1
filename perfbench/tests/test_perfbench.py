"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import admmattack  # noqa: E402
from admmattack.admm import RunReport  # noqa: E402
from admmattack.losses import ModelOracle  # noqa: E402

from perfbench import run, tracer  # noqa: E402
from perfbench.probes import BATCHES, SERVED_BATCH, served_probe  # noqa: E402
from perfbench.tracer import Tracer, patch_table  # noqa: E402
from perfbench.workloads import WORKLOADS, Session, check_pair  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_session(name="zo-score", budget=300):
    w = dataclasses.replace(WORKLOADS[name], budget=budget, pool=1)
    return Session(w, w.default_seed)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert declared == table
        for name in table:
            assert NAME.fullmatch(name), name
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def bindings():
    """Every module global and class attribute of the library, by identity."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("admmattack"):
            continue
        for key, value in vars(module).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("admmattack"):
                for attr, raw in vars(value).items():
                    out[(mod_name, key, attr)] = raw
    return out


def test_tracer_restores_every_patched_name():
    before = bindings()
    table = tracer.TRACE_TABLE + (
        # inherited: shadowed on the subclass while tracing, then removed
        ("admmattack.losses.ModelOracle.query_label", "inherited", None),
    )
    t = Tracer()
    with patch_table(t, table) as absent:
        assert absent == []
        assert admmattack.admm.score_loss is not before[("admmattack.admm", "score_loss")]
        assert "query_label" in vars(admmattack.losses.ModelOracle)
        session = small_session()
        session.attack(session.pairs[0])
    assert bindings() == before
    assert "query_label" not in vars(admmattack.losses.ModelOracle)
    assert t.stats["losses.score_loss"].calls > 0
    assert t.stats["prox.zstep"].calls > 0
    assert t.stats["inherited"].calls > 0


def test_missing_names_are_reported_absent():
    table = (
        ("admmattack.grad_est.no_such_function", "a", None),
        ("admmattack.no_such_module.f", "b", None),
        ("admmattack.gp.GpModel.no_such_method", "c", None),
        ("admmattack.losses.score_loss", "d", None),
    )
    with patch_table(Tracer(), table) as absent:
        pass
    assert absent == [entry[0] for entry in table[:3]]


def test_tracing_does_not_change_the_attack():
    session = small_session()
    plain = session.attack(session.pairs[0])
    with patch_table(session.tracer):
        traced = session.attack(session.pairs[0])
    assert plain.problems == [] and traced.problems == []
    assert plain.outcome() == traced.outcome()


def test_checks_pass_on_an_honest_ledger():
    session = small_session()
    result = session.attack(session.pairs[0])
    assert result.problems == []
    assert result.ledger == result.boundary_rows == result.total_queries


class OverchargingOracle(ModelOracle):
    """Charges two queries for every score query."""

    def query_scores(self, x):
        self.queries_used += 1
        return super().query_scores(x)


def test_checks_fail_on_an_overcharged_ledger():
    session = small_session()
    result = session.attack(
        session.pairs[0], wrap_oracle=lambda o: OverchargingOracle(o.model))
    assert any("victim boundary" in p for p in result.problems)


def test_checks_fail_when_the_initializer_check_is_not_charged():
    session = small_session("zo-decision", budget=600)
    honest = session.attack(session.pairs[0])
    assert honest.problems == []
    assert honest.ledger - honest.total_queries == 1
    # a report that also counted the initializer check as its own
    report = RunReport(config={}, total_queries=honest.ledger)
    problems = check_pair(report, honest, session.workload, None, session.model)
    assert any("expected 1" in p for p in problems)


def test_served_probe_round_trips_and_cleans_up(tmp_path):
    session = small_session()
    out = served_probe(session.model, str(tmp_path))
    assert out["losses.ProcessOracle.calls"] == 1 + BATCHES * SERVED_BATCH
    assert out["losses.ProcessOracle.us_per_query"] > 0
    assert list(tmp_path.iterdir()) == []


def test_tail_percentile_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1, 31)]
    t = run.tail(values)
    assert t["percentile"] == 66 and t["beyond"] >= 10
    assert sum(v > t["value"] for v in values) >= 10
    assert run.tail([3.0, 1.0, 2.0]) == {"value": 3.0, "percentile": 100,
                                          "samples": 3, "beyond": 0}


def test_timing_blocks_cover_whole_blocks_only():
    def result(wall, ledger):
        return SimpleNamespace(wall_s=wall, boundary_s=wall / 4, ledger=ledger)

    results = [result(1.0, 10), result(2.0, 20), result(3.0, 30), result(9.0, 90)]
    assert [b["wall_s"] for b in run.timing_blocks(results, 1)] == [1.0, 2.0, 3.0, 9.0]
    (block,) = run.timing_blocks(results, 3)  # the fourth pair starts a partial block
    assert block == {"pairs": 3, "wall_s": 6.0, "boundary_s": 1.5, "queries": 60}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zo-score",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
