"""tools/same_attack.py on one tiny batch, and its comparison on saved outputs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_attack", REPO / "tools" / "same_attack.py")
same_attack = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_attack)


@pytest.fixture
def trees(tmp_path, monkeypatch):
    """Two roots, each with a copy of this repository's src/, and one tiny batch to run."""
    monkeypatch.setattr(same_attack, "BATCHES",
                        [("score", "softmax", "--budget 100 --pairs 1 --seed 1")])
    roots = tmp_path / "base", tmp_path / "head"
    for root in roots:
        shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return roots


def test_two_copies_of_one_tree_are_identical(trees, capsys):
    assert same_attack.main([str(root) for root in trees]) == 0
    assert capsys.readouterr().out == "1 batches: identical\n"


def test_a_changed_init_scale_names_the_weight_file(trees, capsys):
    victim = trees[1] / "src" / "admmattack" / "victim.py"
    text = victim.read_text()
    assert text.count("0.01 * rng.standard_normal") == 1
    victim.write_text(text.replace("0.01 * rng.standard_normal", "0.011 * rng.standard_normal"))
    assert same_attack.main([str(root) for root in trees]) == 1
    assert "differs: weights/softmax.weights" in capsys.readouterr().out.splitlines()


def test_a_changed_report_format_names_the_report_tsv(trees, capsys):
    cli = trees[1] / "src" / "admmattack" / "cli.py"
    text = cli.read_text()
    assert text.count('"-" if v is None') == 1  # the tiny batch's pair does not succeed
    cli.write_text(text.replace('"-" if v is None', '"NA" if v is None'))
    assert same_attack.main([str(root) for root in trees]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: score/report.tsv"]


def test_a_tree_without_the_library_is_named(tmp_path):
    with pytest.raises(SystemExit) as stop:
        same_attack.run_tree(tmp_path / "nothing", tmp_path / "out")
    assert str(stop.value).startswith(f"{tmp_path / 'nothing'}: ")


def _save(out, pairs, timestamp):
    """A batch's saved outputs: a weight file, an aggregate.csv and one report per pair."""
    (out / "weights").mkdir(parents=True)
    (out / "weights" / "softmax.weights").write_bytes(b"\x00\x01")
    (out / "score").mkdir()
    (out / "score" / "aggregate.csv").write_text("pair,queries\n0,10\n")
    for i, queries in enumerate(pairs):
        doc = {"pair": i, "timestamp": timestamp, "records": [{"queries": queries}]}
        (out / "score" / f"pair_{i:04d}.json").write_text(json.dumps(doc, indent=1) + "\n")


def test_saved_outputs_differ_only_where_a_report_or_file_does(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    _save(base, [10, 12], "2026-01-01T00:00:00")
    _save(head, [10, 12], "2026-01-02T09:30:00")
    assert same_attack.differences(base, head) == []
    doc = json.loads((head / "score" / "pair_0000.json").read_text())
    doc["records"][0]["queries"] = 11
    (head / "score" / "pair_0000.json").write_text(json.dumps(doc, indent=1) + "\n")
    (head / "score" / "pair_0001.json").unlink()
    assert same_attack.differences(base, head) == [
        "only in BASE: score/pair_0001.json", "differs: score/pair_0000.json"]
