import csv
import hashlib
import io
import json
import os
import runpy
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admmattack.cli as cli
from admmattack.admm import RunReport
from admmattack.cli import (
    CSV_HEADER,
    EXIT_INTERNAL,
    EXIT_NO_SUCCESS,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    SETTINGS,
    _find_exemplar,
    _select_pairs,
    build_parser,
    main,
    plan_pairs,
    summarize_reports,
)
from admmattack.losses import ModelOracle
from admmattack.core import Distortion
from admmattack.victim import Dataset, SoftmaxModel, digits8x8, load_weights, save_weights


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def trained_weights(tmp_path_factory):
    out = tmp_path_factory.mktemp("weights") / "victim.weights"
    code = main([
        "train", "--model", "softmax", "--data", "digits8x8",
        "--epochs", "60", "--lr", "0.5", "--seed", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    return out


def run_attack(out_dir, weights, *extra):
    args = [
        "attack", "--weights", str(weights), "--out", str(out_dir),
        "--pairs", "3", "--budget", "3000", "--seed", "7", *extra,
    ]
    return main(args)


class TestTrain:
    def test_weights_stable_across_reruns(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.weights"
            code = main(["train", "--epochs", "5", "--seed", "3", "--out", str(out)])
            assert code == EXIT_OK
            paths.append(out)
        assert sha256(paths[0]) == sha256(paths[1])

    def test_seed_changes_weights(self, tmp_path):
        hashes = []
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}.weights"
            main(["train", "--epochs", "5", "--seed", seed, "--out", str(out)])
            hashes.append(sha256(out))
        assert hashes[0] != hashes[1]

    def test_loadable_mlp(self, tmp_path):
        out = tmp_path / "mlp.weights"
        code = main(["train", "--model", "mlp", "--hidden", "8",
                     "--epochs", "3", "--out", str(out)])
        assert code == EXIT_OK
        model = load_weights(out)
        assert model.kind == "mlp"
        assert model.hidden == 8

    def test_missing_data_file_is_usage_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "w")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "-1"), ("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"),
        ("--hidden", "0"),
    ])
    def test_invalid_training_value_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "w"
        code = main(["train", "--model", "mlp", "--epochs", "1", flag, value, "--out", str(out)])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0.5,0.5,-1\n0.2,0.1,0\n", "0.5,nan,1\n0.2,0.1,0\n",
                                      "1\n0\n", "0.5,0.5,1\n0.2,0.1," + "1" + "0" * 29 + "\n"],
                             ids=["negative-label", "nan-feature", "label-only",
                                  "label-past-int64"])
    def test_bad_data_values_are_usage_errors(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "w"
        assert main(["train", "--data", str(data), "--out", str(out)]) == EXIT_USAGE
        assert f"malformed data file {data}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["softmax", "mlp"])
    def test_a_class_count_too_large_to_allocate_is_usage_error(self, tmp_path, capsys, model):
        data = tmp_path / "data.csv"
        data.write_text(f"0.5,0.5,{2 ** 62}\n0.2,0.1,0\n")
        out = tmp_path / "w"
        assert main(["train", "--model", model, "--data", str(data), "--out", str(out)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"for {2 ** 62 + 1} classes" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_a_single_class_data_file_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.5,0.5,0\n0.2,0.1,0\n")
        out = tmp_path / "w"
        assert main(["train", "--data", str(data), "--out", str(out)]) == EXIT_USAGE
        assert "at least 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_is_allowed(self, tmp_path):
        assert main(["train", "--epochs", "0", "--out", str(tmp_path / "w")]) == EXIT_OK


class TestAttack:
    def test_smoke_writes_reports_and_csv(self, tmp_path, trained_weights):
        out = tmp_path / "reports"
        code = run_attack(out, trained_weights)
        assert code == EXIT_OK
        jsons = sorted(out.glob("pair_*.json"))
        assert len(jsons) == 3
        with open(out / "aggregate.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 4
        doc = json.loads(jsons[0].read_text())
        assert set(doc) == {"pair", "target", "timestamp", "config", "records", "summary"}
        assert doc["summary"]["total_queries"] <= 3000

    def test_same_seed_byte_identical_csv(self, tmp_path, trained_weights):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_attack(out, trained_weights) == EXIT_OK
            outs.append(out / "aggregate.csv")
        assert sha256(outs[0]) == sha256(outs[1])

    def test_different_seed_changes_csv(self, tmp_path, trained_weights):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_attack(out1, trained_weights)
        main(["attack", "--weights", str(trained_weights), "--out", str(out2),
              "--pairs", "3", "--budget", "3000", "--seed", "8"])
        assert sha256(out1 / "aggregate.csv") != sha256(out2 / "aggregate.csv")

    def test_an_out_that_holds_a_batch_is_refused(self, tmp_path, trained_weights, capsys,
                                                  monkeypatch):
        # a second batch into the same --out would leave pair_0002.json and
        # pair_0003.json of the first, and report would count them
        out = tmp_path / "run"
        args = ["attack", "--weights", str(trained_weights), "--budget", "400", "--out", str(out)]
        assert main(args + ["--pairs", "4", "--seed", "1"]) in (EXIT_OK, EXIT_NO_SUCCESS)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(first) == 5
        capsys.readouterr()
        monkeypatch.setattr(cli, "_attack_pair", lambda *a: pytest.fail("a pair ran"))
        assert main(args + ["--pairs", "2", "--seed", "2", "--norm", "l1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"output directory {out} already holds a batch (pair_0000.json)" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_an_out_that_holds_an_aggregate_csv_is_refused(self, tmp_path, trained_weights,
                                                           capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "aggregate.csv").write_text("kept\n")
        assert run_attack(out, trained_weights) == EXIT_USAGE
        assert "(aggregate.csv)" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["aggregate.csv"]
        assert (out / "aggregate.csv").read_text() == "kept\n"

    def test_unknown_norm_is_usage_error(self, tmp_path, trained_weights, capsys):
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--norm", "l3") == EXIT_USAGE
        assert "unknown norm 'l3'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--init-from"])
    def test_a_dataset_of_another_width_is_usage_error_naming_the_flag(
            self, tmp_path, trained_weights, capsys, flag):
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("0.5,0.25,0.75,1\n0,1,0.5,0\n")
        out = tmp_path / "r"
        extra = [flag, str(narrow)] + (["--feedback", "decision"] if flag == "--init-from" else [])
        assert run_attack(out, trained_weights, *extra) == EXIT_USAGE
        assert f"{flag} has 3 features, the victim takes 64" in capsys.readouterr().err
        assert not out.exists()

    def test_each_setting_is_an_attack_flag_and_there_is_no_config_or_preset(
            self, tmp_path, trained_weights, capsys):
        args = build_parser().parse_args(["attack", "--weights", "w"])
        parsed = [getattr(args, key) for key in SETTINGS]
        assert parsed == list(SETTINGS.values())
        assert [type(v) for v in parsed] == [type(v) for v in SETTINGS.values()]
        for extra in (["--config", "f"], ["--preset", "mnist-like"]):
            out = tmp_path / "r"
            assert run_attack(out, trained_weights, *extra) == EXIT_USAGE
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
            assert not out.exists()
        out = tmp_path / "flags"
        code = run_attack(out, trained_weights, "--gamma", "2.0", "--budget", "1234",
                          "--pairs", "1")
        assert code in (EXIT_OK, EXIT_NO_SUCCESS)
        doc = json.loads((out / "pair_0000.json").read_text())
        assert doc["config"]["gamma"] == 2.0
        assert doc["config"]["max_queries"] == 1234
        assert doc["summary"]["total_queries"] <= 1234

    @pytest.mark.parametrize("key", list(SETTINGS))
    def test_each_setting_flag_sets_only_its_setting(self, key):
        default = SETTINGS[key]
        value = "l1" if isinstance(default, str) else default + 1
        args = build_parser().parse_args(
            ["attack", "--weights", "w", "--" + key.replace("_", "-"), str(value)])
        assert getattr(args, key) == value and type(getattr(args, key)) is type(default)
        assert {k: getattr(args, k) for k in SETTINGS} == {**SETTINGS, key: value}

    @pytest.mark.parametrize("flag, value, kind", [
        ("--q", "2.5", "int"), ("--n-smooth", "4.0", "int"), ("--budget", "1e3", "int"),
        ("--pairs", "two", "int"), ("--eps", "one", "float"),
    ])
    def test_a_wrongly_typed_setting_flag_is_usage_error(self, tmp_path, trained_weights,
                                                         capsys, flag, value, kind):
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, flag, value) == EXIT_USAGE
        assert f"argument {flag}: invalid {kind} value: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_misspelt_setting_flag_is_usage_error(self, tmp_path, trained_weights, capsys):
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--budgt", "100") == EXIT_USAGE
        assert "unrecognized arguments: --budgt 100" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_row_text_of_handmade_reports(self, tmp_path, trained_weights, monkeypatch):
        made = [
            RunReport(config={}, success=True, queries_first_success=None,
                      final_norms=(7, 0.5, 0.1 + 0.2, 0.25), total_queries=42),
            RunReport(config={}, success=False, queries_first_success=12,
                      final_norms=(0, 0.0, 1e-20, 3.0), total_queries=3000),
        ]
        targets = []

        def fake_run_attack(spec, *args, **kwargs):
            targets.append(spec.target)
            return made[len(targets) - 1]

        monkeypatch.setattr(cli, "run_attack", fake_run_attack)
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--pairs", "2") == EXIT_OK
        assert (out / "aggregate.csv").read_bytes().decode() == (
            "pair,target,success,queries_first_success,l0,l1,l2,linf,total_queries\r\n"
            f"0,{targets[0]},1,,7,0.5,0.30000000000000004,0.25,42\r\n"
            f"1,{targets[1]},0,12,0,0.0,1e-20,3.0,3000\r\n"
        )

    @pytest.mark.parametrize("case", ["attack-weights", "attack-data", "serve-weights"])
    def test_directory_path_is_usage_error(self, tmp_path, trained_weights, capsys, case):
        folder = tmp_path / "a_directory"
        folder.mkdir()
        command, flag = case.split("-")
        args = {
            "attack": ["attack", "--weights", str(trained_weights), "--out", str(tmp_path / "r")],
            "serve": ["serve", "--weights", str(trained_weights)],
        }[command]
        assert main(args + [f"--{flag}", str(folder)]) == EXIT_USAGE
        assert str(folder) in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_a_weight_file_shorter_than_its_declared_array_is_usage_error(self, tmp_path,
                                                                           capsys):
        # one (2**32 - 1, 2**32 - 1) array, whose element count overflows int64
        weights = tmp_path / "huge.weights"
        weights.write_bytes(b"SPAV1" + struct.pack("<III", 0, 1, 2)
                            + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(88))
        assert len(weights.read_bytes()) == 113
        out = tmp_path / "r"
        assert main(["attack", "--weights", str(weights), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed weight file {weights}: truncated weight file" in err
        assert not out.exists()

    def test_missing_weights_is_usage_error(self, tmp_path):
        code = main(["attack", "--weights", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_USAGE

    def test_nonpositive_budget_is_usage_error(self, tmp_path, trained_weights):
        code = main(["attack", "--weights", str(trained_weights),
                     "--out", str(tmp_path / "r"), "--budget", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("how", ["0", "-3"])
    def test_nonpositive_pairs_is_usage_error(self, tmp_path, trained_weights, how):
        out = tmp_path / "r"
        assert main(["attack", "--weights", str(trained_weights), "--out", str(out),
                     "--pairs", how]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("fault", [
        ValueError("non-finite loss value at the base point"),
        # what NumPy raises for a setting whose arrays the host cannot
        # allocate; raised here, so no test asks the host for the memory
        MemoryError("Unable to allocate 954. GiB for an array with shape "
                    "(2, 1000000000, 64) and data type float64"),
    ], ids=lambda fault: type(fault).__name__)
    def test_mid_run_fault_is_not_a_usage_error(self, tmp_path, trained_weights,
                                                monkeypatch, capsys, fault):
        real_run_attack = cli.run_attack
        calls = []

        def faulty_run_attack(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise fault
            return real_run_attack(*args, **kwargs)

        monkeypatch.setattr(cli, "run_attack", faulty_run_attack)
        code = run_attack(tmp_path / "r", trained_weights, "--budget", "200")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert f"pair 1: {type(fault).__name__}: {fault}" in err

    def test_an_unexpected_exception_is_an_internal_error_not_no_success(
            self, tmp_path, trained_weights, monkeypatch, capsys):
        def broken_run_attack(*args, **kwargs):
            raise IndexError("index 4 is out of bounds")

        monkeypatch.setattr(cli, "run_attack", broken_run_attack)
        assert run_attack(tmp_path / "r", trained_weights, "--budget", "200") == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error: IndexError: index 4 is out of bounds" in err
        assert "Traceback" in err and "broken_run_attack" in err

    def test_a_malformed_victim_reply_is_a_run_fault_naming_the_pair(
            self, tmp_path, trained_weights, monkeypatch, capsys):
        class NanVictim:
            def __init__(self, model):
                self.model = model

            def predict_scores(self, x):
                return self.model.predict_scores(x) * np.nan

        monkeypatch.setattr(cli, "ModelOracle", lambda model, scores_available: ModelOracle(
            NanVictim(model), scores_available=scores_available))
        code = run_attack(tmp_path / "r", trained_weights, "--budget", "200")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "pair 0" in err and "OracleReplyError" in err

    @pytest.mark.parametrize("blocked", ["pair_0001.json", "aggregate.csv"])
    def test_unwritable_report_file_is_a_run_fault_naming_it(self, tmp_path, trained_weights,
                                                             capsys, blocked):
        out = tmp_path / "r"
        (out / blocked).mkdir(parents=True)  # a directory where the file goes
        assert run_attack(out, trained_weights, "--budget", "200") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "cannot write" in err and blocked in err

    @pytest.mark.parametrize("extra", [
        ["--rho", "-1"], ["--q", "0"], ["--nu", "0"], ["--alpha", "0"], ["--eps", "0"],
        ["--gamma", "-1"], ["--kappa", "-1"], ["--feedback", "decision", "--n-smooth", "0"],
        ["--feedback", "decision", "--mu", "0"], ["--feedback", "score", "--n-smooth", "0"],
    ], ids="=".join)
    def test_invalid_setting_is_usage_error(self, tmp_path, trained_weights, capsys, extra):
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, *extra) == EXIT_USAGE
        assert "invalid setting" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, extra", [
        ("rho", "inf", []), ("alpha", "inf", []), ("nu", "nan", []), ("nu", "inf", []),
        ("gamma", "nan", []), ("gamma", "inf", []), ("kappa", "nan", []),
        ("beta", "nan", ["--norm", "elastic"]), ("mu", "nan", ["--feedback", "decision"]),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
    def test_non_finite_setting_is_usage_error(self, tmp_path, trained_weights, capsys,
                                               key, value, extra):
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, *extra, "--" + key, value) == EXIT_USAGE
        assert "invalid setting" in capsys.readouterr().err
        assert not out.exists()

    def test_an_infinite_eps_runs(self, tmp_path, trained_weights):
        out = tmp_path / "r"
        code = run_attack(out, trained_weights, "--eps", "inf", "--pairs", "1", "--budget", "200")
        assert code in (EXIT_OK, EXIT_NO_SUCCESS)
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        doc = json.loads((out / "pair_0000.json").read_text(), parse_constant=reject)
        assert doc["config"]["epsilon"] == "inf"
        assert (out / "aggregate.csv").exists()

    def test_a_non_finite_report_is_a_run_fault_naming_the_pair(
            self, tmp_path, trained_weights, monkeypatch, capsys):
        made = [RunReport(config={}, total_queries=1),
                RunReport(config={"gamma": float("nan")}, total_queries=1)]
        monkeypatch.setattr(cli, "run_attack", lambda *args, **kwargs: made.pop(0))
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--pairs", "2") == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "pair 1" in err and "not valid JSON" in err
        assert (out / "pair_0000.json").exists()
        assert not (out / "pair_0001.json").exists()

    def test_an_infeasible_initializer_is_a_usage_error_before_any_pair_runs(
            self, tmp_path, trained_weights, capsys):
        # at this eps, pairs 0 and 1 start on their goal and pair 2 does not
        out = tmp_path / "r"
        code = run_attack(out, trained_weights, "--feedback", "decision", "--eps", "0.28",
                          "--pairs", "40", "--budget", "100")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "pair 2 (target 2)" in err and "does not meet the attack goal" in err
        assert not list(out.glob("pair_*.json"))
        assert not (out / "aggregate.csv").exists()

    @pytest.mark.parametrize("text", ["0.5,0.5,abc\n", "0.5,0.5,1\n0.5,1\n", "1.5,-0.5,1\n"],
                             ids=["not-numbers", "ragged", "wrong-width"])
    def test_bad_data_file_is_usage_error(self, tmp_path, trained_weights, capsys, text):
        # malformed rows, ragged rows, and rows the victim cannot take (d = 2)
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--data", str(data)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(data) in err or "--data" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--data", "--init-from"])
    @pytest.mark.parametrize("row", ["0.5," * 64 + "-1\n", "0.5," * 63 + "nan,1\n",
                                     "0.5," * 64 + "1" + "0" * 29 + "\n"],
                             ids=["negative-label", "nan-feature", "label-past-int64"])
    def test_bad_data_values_are_usage_errors(self, tmp_path, trained_weights, capsys,
                                              flag, row):
        data = tmp_path / "data.csv"
        data.write_text("0.5," * 64 + "0\n" + row)
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, flag, str(data)) == EXIT_USAGE
        assert f"malformed data file {data}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.5, -0.25])
    def test_data_outside_the_unit_box_is_usage_error(self, tmp_path, trained_weights, capsys,
                                                      value):
        # training data may leave [0, 1]; an attacked input may not
        digits = digits8x8()
        rows = digits.inputs[:3].copy()
        rows[0, 0] = value
        data = tmp_path / "data.csv"
        data.write_text("".join(",".join(map(repr, x.tolist())) + f",{y}\n"
                                for x, y in zip(rows, digits.labels)))
        out = tmp_path / "r"
        assert run_attack(out, trained_weights, "--data", str(data)) == EXIT_USAGE
        assert f"malformed data file {data}: " in capsys.readouterr().err
        assert not out.exists()

    def test_decision_mode_smoke(self, tmp_path, trained_weights):
        out = tmp_path / "reports"
        code = run_attack(out, trained_weights, "--feedback", "decision",
                          "--budget", "6000", "--mu", "1.0")
        assert code in (EXIT_OK, EXIT_NO_SUCCESS)
        assert (out / "aggregate.csv").exists()

    def test_untargeted_decision_batch_starts_off_the_original_label(self, tmp_path,
                                                                     trained_weights):
        out = tmp_path / "reports"
        code = run_attack(out, trained_weights, "--feedback", "decision", "--untargeted",
                          "--budget", "300", "--pairs", "2")
        assert code in (EXIT_OK, EXIT_NO_SUCCESS)
        assert (out / "aggregate.csv").exists()
        assert sorted(p.name for p in out.glob("pair_*.json")) == ["pair_0000.json",
                                                                   "pair_0001.json"]

    def test_a_missing_exemplar_is_a_usage_error_before_any_pair_runs(self, tmp_path,
                                                                       trained_weights, capsys):
        # --init-from holds only inputs the victim classifies as 0, 1 or 2
        digits = digits8x8()
        keep = load_weights(trained_weights).predict_label(digits.inputs) <= 2
        init = tmp_path / "init.csv"
        init.write_text("".join(",".join(map(repr, x.tolist())) + f",{y}\n"
                                for x, y in zip(digits.inputs[keep], digits.labels[keep])))
        out = tmp_path / "r"
        code = run_attack(out, trained_weights, "--feedback", "decision",
                          "--init-from", str(init), "--pairs", "9", "--budget", "300")
        assert code == EXIT_USAGE
        assert "no exemplar of target class" in capsys.readouterr().err
        assert not list(out.glob("pair_*.json"))
        assert not (out / "aggregate.csv").exists()

    @pytest.mark.parametrize("feedback, bad_flag", [("score", "--data"), ("decision", "--data"),
                                                    ("decision", "--init-from")])
    def test_a_victim_with_non_finite_scores_is_a_usage_error_naming_the_file(
            self, tmp_path, capsys, feedback, bad_flag):
        # finite weights whose logits overflow where features 0 and 1 sum past 1.8
        w = np.zeros((10, 64))
        w[0, :2], w[1, :2] = 1e308, -1e308
        weights = tmp_path / "overflow.weights"
        save_weights(SoftmaxModel(w, np.zeros(10)), weights)
        files = {}
        for name, head in (("finite", 0.1), ("overflow", 1.0)):
            files[name] = tmp_path / f"{name}.csv"
            files[name].write_text(",".join(map(repr, [head] * 2 + [0.5] * 62)) + ",0\n")
        given = {"--data": files["finite"], bad_flag: files["overflow"]}
        inputs = [str(arg) for flag_and_file in given.items() for arg in flag_and_file]
        out = tmp_path / "r"
        code = main(["attack", "--weights", str(weights), "--feedback", feedback,
                     "--pairs", "2", "--budget", "200", "--out", str(out), *inputs])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"the victim's scores over {files['overflow']} are not all finite" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()


class TestReport:
    def make_reports(self, tmp_path, summaries):
        for i, s in enumerate(summaries):
            doc = {"pair": i, "target": 1, "timestamp": "t", "config": {},
                   "records": [], "summary": s}
            (tmp_path / f"pair_{i:04d}.json").write_text(json.dumps(doc))

    def summary(self, success, qfs, l2, total):
        return {"success": success, "queries_first_success": qfs,
                "l0": 3, "l1": 1.0, "l2": l2, "linf": 0.5, "total_queries": total}

    def test_asr_and_means(self, tmp_path, capsys):
        self.make_reports(tmp_path, [
            self.summary(True, 100, 2.0, 150),
            self.summary(True, 300, 4.0, 350),
            self.summary(False, None, 9.0, 500),
        ])
        assert main(["report", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("#")
        header = lines[1].split("\t")
        values = dict(zip(header, lines[2].split("\t")))
        assert float(values["asr"]) == pytest.approx(2 / 3)
        # failure's l2=9.0 excluded from the mean
        assert float(values["mean_l2"]) == pytest.approx(3.0)
        assert float(values["mean_queries_first_success"]) == pytest.approx(200.0)
        assert float(values["mean_total_queries"]) == pytest.approx(1000 / 3)

    def test_all_failures_prints_dashes(self, tmp_path, capsys):
        self.make_reports(tmp_path, [self.summary(False, None, 9.0, 500)])
        assert main(["report", str(tmp_path)]) == EXIT_OK
        last = capsys.readouterr().out.strip().splitlines()[-1].split("\t")
        assert "-" in last

    def test_empty_dir_is_usage_error(self, tmp_path):
        assert main(["report", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_json_is_usage_error(self, tmp_path):
        (tmp_path / "pair_0000.json").write_text("{not json")
        assert main(["report", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("make, says", [
        (lambda path: path.mkdir(), "cannot read report"),
        (lambda path: path.write_bytes(b'{"pair": "\xff"}'), "malformed report"),
    ], ids=["a-directory", "not-utf8"])
    def test_unreadable_report_is_usage_error_naming_it(self, tmp_path, capsys, make, says):
        self.make_reports(tmp_path, [self.summary(True, 100, 2.0, 150)])
        make(tmp_path / "pair_0001.json")
        assert main(["report", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert says in err and "pair_0001.json" in err

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        '{"summary": null}',
        '{"summary": {"success": true, "total_queries": 10}}',
    ])
    def test_report_missing_keys_is_usage_error(self, tmp_path, capsys, text):
        self.make_reports(tmp_path, [self.summary(True, 100, 2.0, 150)])
        (tmp_path / "pair_0001.json").write_text(text)
        assert main(["report", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "malformed report" in err and "pair_0001.json" in err

    @pytest.mark.parametrize("text, says", [
        ("[" * 200_000 + "]" * 200_000, "maximum recursion depth exceeded"),
        ('{"pair": ' + "9" * 5000 + "}", "Exceeds the limit"),
        (json.dumps({"summary": {"success": False, "queries_first_success": None, "l0": 0,
                                 "l1": 0.0, "l2": 0.0, "linf": 0.0,
                                 "total_queries": 10 ** 399}}),
         "OverflowError: int too large to convert to float"),
    ], ids=["nested-past-the-recursion-limit", "5000-digit-pair", "400-digit-total-queries"])
    def test_a_report_python_cannot_decode_or_average_is_usage_error(self, tmp_path, capsys,
                                                                      text, says):
        self.make_reports(tmp_path, [self.summary(True, 100, 2.0, 150)])
        (tmp_path / "pair_0001.json").write_text(text)
        assert main(["report", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed report {tmp_path / 'pair_0001.json'}: " in err and says in err

    @pytest.mark.parametrize("field, value, says", [
        ("total_queries", [[1], [1, 2]], "summary total_queries cannot be a list"),
        ("l2", [1, 2], "summary l2 cannot be a list"),
        ("success", "yes", "summary success cannot be a str"),
        ("l0", 3.0, "summary l0 cannot be a float"),
        ("linf", True, "summary linf cannot be a bool"),
        ("queries_first_success", 1.5, "summary queries_first_success cannot be a float"),
    ], ids=["ragged-total-queries", "l2-list", "success-yes", "float-l0", "bool-linf",
            "float-queries-first-success"])
    def test_a_summary_field_of_another_type_is_usage_error(self, tmp_path, capsys, field,
                                                            value, says):
        self.make_reports(tmp_path, [self.summary(True, 100, 2.0, 150),
                                     {**self.summary(True, 100, 2.0, 150), field: value}])
        assert main(["report", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"malformed report {tmp_path / 'pair_0001.json'}: TypeError: {says}" in err

    def test_summarize_empty(self):
        out = summarize_reports([])
        assert out["runs"] == 0
        assert out["asr"] == 0.0


def frame(a, dtype="<f8"):
    """One frame of the serve protocol: (rows, cols) as little-endian
    uint64, then the values as little-endian 8-byte numbers."""
    a = np.asarray(a, dtype=dtype)
    return struct.pack("<QQ", *a.shape) + a.tobytes()


def unframe(data, dtype="<f8"):
    """Every frame in data, as arrays."""
    out = []
    while data:
        rows, cols = struct.unpack("<QQ", data[:16])
        body, data = data[16:16 + 8 * rows * cols], data[16 + 8 * rows * cols:]
        out.append(np.frombuffer(body, dtype=dtype).reshape(rows, cols))
    return out


class TestServe:
    def serve(self, monkeypatch, weights, data, mode="scores"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BufferedReader(io.BytesIO(data))))
        return main(["serve", "--weights", str(weights), "--mode", mode])

    @pytest.mark.parametrize("data, words, answered", [
        (b"abc\n", ["ended 4 bytes into a frame header"], 0),
        (frame(np.full((1, 64), 0.5)) + frame(np.full((1, 63), 0.5)), ["1 x 63", "1 x 64"], 1),
        (frame(np.full((1, 65), 0.5)), ["1 x 65", "1 x 64"], 0),
        (frame(np.full((2, 64), 0.5))[:-8], ["ended inside a frame of 2 x 64"], 0),
        (struct.pack("<QQ", 2 ** 40, 64), ["1099511627776 x 64", "cannot be allocated"], 0),
    ], ids=["header-cut-short", "too-narrow-second-request", "too-wide", "body-cut-short",
            "2^40-rows-then-EOF"])
    def test_bad_request_is_a_one_line_run_fault(self, monkeypatch, capsysbinary,
                                                 trained_weights, data, words, answered):
        assert self.serve(monkeypatch, trained_weights, data) == EXIT_RUNTIME
        out, err = capsysbinary.readouterr()
        err = err.decode()
        assert err.startswith("error: bad request: ") and len(err.splitlines()) == 1, err
        assert all(word in err for word in words), err
        assert len(unframe(out)) == answered

    def test_good_requests_are_answered(self, monkeypatch, capsysbinary, trained_weights):
        # one reply frame per request, in both modes
        model = load_weights(trained_weights)
        X = np.linspace(0.0, 1.0, 4 * 64).reshape(4, 64)
        data = frame(X[:1]) + frame(X[1:])
        assert self.serve(monkeypatch, trained_weights, data) == EXIT_OK
        out = capsysbinary.readouterr().out
        assert [a.shape for a in unframe(out)] == [(1, 10), (3, 10)]
        assert out == frame(model.predict_scores(X[:1])) + frame(model.predict_scores(X[1:]))
        assert self.serve(monkeypatch, trained_weights, data, "label") == EXIT_OK
        labels = [model.predict_label(x)[:, None] for x in (X[:1], X[1:])]
        assert capsysbinary.readouterr().out == b"".join(frame(a, "<i8") for a in labels)

    def test_a_client_that_stops_reading_is_a_run_fault(self, trained_weights):
        # the client closes its end of the reply pipe before it sends a request
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "admmattack.cli", "serve", "--weights", str(trained_weights)],
            env={**os.environ, "PYTHONPATH": src}, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            proc.stdout.close()
            proc.stdin.write(frame(np.full((1, 64), 0.25)) * 3)
            proc.stdin.close()
            assert proc.wait(timeout=60) == EXIT_RUNTIME
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert len(err.splitlines()) == 1, err  # no traceback, no "Exception ignored"
        assert err.startswith("error: ") and "reply stream" in err


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["train", "--frobnicate"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_a_stray_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # exit 2 is for input validation, which raises UsageError where it
        # happens; any other ValueError is an internal error
        (tmp_path / "pair_0000.json").write_text("{}")

        def broken(docs):
            raise ValueError("not a usage error")

        monkeypatch.setattr(cli, "summarize_reports", broken)
        assert main(["report", str(tmp_path)]) == EXIT_INTERNAL
        assert "internal error: ValueError: not a usage error" in capsys.readouterr().err

    def test_a_type_error_from_a_file_parser_is_an_internal_error(self, tmp_path, monkeypatch,
                                                                 capsys):
        # only a read fault or a ValueError or RecursionError of the parser
        # means a bad input file
        weights = tmp_path / "victim.weights"
        weights.write_bytes(b"")

        def broken(path):
            raise TypeError("not a bad input file")

        monkeypatch.setattr(cli, "load_weights", broken)
        assert main(["serve", "--weights", str(weights)]) == EXIT_INTERNAL
        assert "internal error: TypeError: not a bad input file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "attack"])
    def test_a_negative_seed_is_usage_error(self, tmp_path, trained_weights, capsys, command):
        args = {"train": ["train", "--epochs", "1"],
                "attack": ["attack", "--weights", str(trained_weights), "--pairs", "1"]}[command]
        assert main(args + ["--seed", "-1", "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("case", ["attack-out-is-a-file", "train-out-is-a-directory",
                                      "train-out-in-a-missing-directory"])
    def test_unwritable_out_is_usage_error(self, tmp_path, trained_weights, capsys,
                                           monkeypatch, case):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        a_directory = tmp_path / "a_directory"
        a_directory.mkdir()
        args, out = {
            "attack-out-is-a-file": (["attack", "--weights", str(trained_weights)], a_file),
            "train-out-is-a-directory": (["train", "--epochs", "1"], a_directory),
            "train-out-in-a-missing-directory": (["train", "--epochs", "1"],
                                                 tmp_path / "missing" / "v.w"),
        }[case]
        pairs_run = []
        monkeypatch.setattr(cli, "run_attack", lambda *a, **k: pairs_run.append(a))
        assert main(args + ["--out", str(out)]) == EXIT_USAGE
        assert str(out) in capsys.readouterr().err
        assert pairs_run == []


def test_bo_batch_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, trained_weights):
    # the GP's (100, 100) matrices give OpenBLAS thread-dependent bits
    # unless the CLI pins one thread
    src = str(Path(cli.__file__).resolve().parent.parent)
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "admmattack.cli", "attack", "--weights",
             str(trained_weights), "--backend", "bo", "--budget", "200", "--pairs", "1",
             "--seed", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (EXIT_OK, EXIT_NO_SUCCESS), proc.stderr
        csvs.append((out / "aggregate.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("pool, decision", [(25, False), (20, True), (3, False)],
                         ids=["zo-score", "zo-decision", "bo-score"])
def test_the_plan_is_the_benchmark_pool(softmax_victim, digits, pool, decision):
    # perfbench builds each workload's pool from _select_pairs and _find_exemplar
    plan = plan_pairs(softmax_victim, digits, pool, init_data=digits if decision else None,
                      epsilon=1.0, gamma=1.0, distortion=Distortion.L2)
    chosen = _select_pairs(softmax_victim, digits, pool, untargeted=False)
    assert [(image, spec.target) for image, spec, _ in plan] == chosen
    for (image, spec, init), (_, target) in zip(plan, chosen):
        x0 = digits.inputs[image]
        assert spec.x0.tobytes() == x0.tobytes()
        if decision:
            assert init.tobytes() == (_find_exemplar(softmax_victim, digits, target)
                                      - x0).tobytes()
        else:
            assert init is None


def test_a_batch_with_no_correctly_classified_input_is_a_usage_error():
    model = SoftmaxModel(np.zeros((2, 3)), np.array([1.0, 0.0]))  # every input is class 0
    data = Dataset(np.full((4, 3), 0.5), np.ones(4, dtype=np.int64))
    with pytest.raises(cli.UsageError, match="no correctly classified inputs"):
        plan_pairs(model, data, 2, epsilon=1.0)


def test_pinning_skips_a_bundled_blas_that_cannot_be_loaded(monkeypatch):
    tried = []

    def cannot_load(path):
        tried.append(path)
        raise OSError("cannot load")

    monkeypatch.setattr(cli.ctypes, "CDLL", cannot_load)
    cli._pin_blas_threads()
    if not tried:
        pytest.skip("this NumPy bundles no OpenBLAS")


def test_python_m_admmattack_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["admmattack", "--help"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("admmattack", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: admmattack")
