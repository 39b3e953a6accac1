"""Command-line harness: train victims, run attack batches, report results.

Each attack setting is a flag whose default is its SETTINGS value. A single
``--seed`` deterministically derives every module seed, so identical
invocations produce byte-identical aggregate CSVs (timestamps are isolated
in one JSON field).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .admm import AdmmConfig, DeltaBackend, run_attack
from .core import AttackMode, Distortion, ProblemSpec, RngStream, project_box_linf
from .grad_est import RgeConfig
from .losses import FeedbackMode, LossConfig, ModelOracle, _goal_met, hard_label, serve_oracle
from .victim import (
    Dataset,
    MlpModel,
    SoftmaxModel,
    accuracy,
    digits8x8,
    load_weights,
    save_weights,
    train,
)

EXIT_OK = 0
EXIT_NO_SUCCESS = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERNAL = 4

# The attack settings; each is an ``attack`` flag of its value's type and default.
SETTINGS = {
    "norm": "l2",
    "eps": 1.0,
    "gamma": 1.0,
    "rho": 10.0,
    "alpha": 1.0,
    "q": 20,
    "nu": 0.5,
    "mu": 1.0,
    "n_smooth": 10,
    "kappa": 0.0,
    "beta": 1.0,
    "budget": 20000,
    "pairs": 50,
}

# A pair's summary, in the order of its JSON keys and of aggregate.csv columns.
SUMMARY_FIELDS = ("success", "queries_first_success", "l0", "l1", "l2", "linf", "total_queries")
CSV_HEADER = ["pair", "target", *SUMMARY_FIELDS]


class UsageError(Exception):
    pass


class RunFault(Exception):
    """A fault raised while a pair was attacked or a request was served, as
    opposed to bad input."""


def _on_path(verb: str, what: str, path, op, error=UsageError):
    """op(path), with an OSError (missing, unreadable or unwritable path) as
    ``error``, by default a usage error, that names the path."""
    try:
        return op(path)
    except OSError as exc:
        raise error(f"cannot {verb} {what} {path}: {exc.strerror or exc}") from None


def _read(what: str, path, parse):
    """parse(path), with a fault of reading an input file (an OSError) or of
    parsing it (a ValueError, say of UTF-8, JSON or the weight format, or the
    RecursionError of deep nesting) as a usage error that names the file."""
    try:
        return _on_path("read", what, path, parse)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"malformed {what} {path}: {exc}") from None


def _load_dataset(name: str) -> Dataset:
    return digits8x8() if name == "digits8x8" else _read("data file", name, Dataset.from_csv)


def _valid(build):
    """build(), with the ValueError of an invalid setting as a usage error."""
    try:
        return build()
    except ValueError as exc:
        raise UsageError(f"invalid setting: {exc}") from None


# -- train ---------------------------------------------------------------


def cmd_train(args) -> int:
    if args.epochs < 0:
        raise UsageError(f"--epochs must be nonnegative, got {args.epochs}")
    if not 0 < args.lr < math.inf:
        raise UsageError(f"--lr must be positive and finite, got {args.lr}")
    if args.hidden < 1:
        raise UsageError(f"--hidden must be at least 1, got {args.hidden}")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    data = _load_dataset(args.data)
    if np.unique(data.labels).size < 2:
        raise UsageError(f"data file {args.data} must hold examples of at least 2 classes")
    rng = RngStream(args.seed)
    k = int(np.max(data.labels)) + 1
    try:
        if args.model == "softmax":
            model = SoftmaxModel.init(data.dim, k, rng.child(0))
        else:
            model = MlpModel.init(data.dim, k, args.hidden, rng.child(0))
    except (ValueError, MemoryError):  # NumPy's "array is too big" is a ValueError
        raise UsageError(f"cannot allocate a {args.model} model for {k} classes") from None
    model = train(model, data, epochs=args.epochs, lr=args.lr, rng=rng.child(1))
    _on_path("write", "weight file", args.out, lambda p: save_weights(model, p))
    print(f"saved {args.model} weights to {args.out} "
          f"(train accuracy {accuracy(model, data):.3f})")
    return EXIT_OK


# -- attack ---------------------------------------------------------------


def _labels(model, inputs, source) -> np.ndarray:
    """The victim's label of each row; non-finite scores are a usage error."""
    with np.errstate(over="ignore", invalid="ignore"):
        scores = model.predict_scores(inputs)
    if not np.isfinite(scores).all():
        raise UsageError(f"the victim's scores over {source} are not all finite")
    return hard_label(scores)


def _select_pairs(model, data: Dataset, n_pairs: int, untargeted: bool):
    """The first n_pairs deterministic (image index, target) pairs over
    correctly classified inputs; targeted mode cycles each image through
    the other classes."""
    pairs = []
    for idx in np.flatnonzero(_labels(model, data.inputs, data.source) == data.labels):
        if len(pairs) >= n_pairs:
            break
        label = int(data.labels[idx])
        targets = [label] if untargeted else [t for t in range(model.num_classes) if t != label]
        pairs += [(int(idx), t) for t in targets]
    return pairs[:n_pairs]


def _find_exemplar(model, data: Dataset, target: int):
    """First training example the victim classifies as the target class."""
    hits = np.flatnonzero(model.predict_label(data.inputs) == target)
    return data.inputs[hits[0]] if hits.size else None


def plan_pairs(model, data: Dataset, n_pairs: int, *, untargeted=False, init_data=None,
               **spec_settings):
    """The pairs of _select_pairs as (image index, ProblemSpec with the fields
    ``spec_settings``, initial perturbation or None). With ``init_data``
    (decision feedback), a pair starts from the first example there that meets
    its goal: classified as the target, or untargeted, as any class but t0. An
    uncharged pass checks every start that run_attack will verify, so a batch
    fails before its first pair runs."""
    pairs = _select_pairs(model, data, n_pairs, untargeted)
    if not pairs:
        raise UsageError("no correctly classified inputs available for pairing")
    mode = AttackMode.UNTARGETED if untargeted else AttackMode.TARGETED
    specs = _valid(lambda: [ProblemSpec(x0=data.inputs[idx], target=target, attack_mode=mode,
                                        num_classes=model.num_classes, **spec_settings)
                            for idx, target in pairs])
    inits = [None] * len(specs)
    if init_data is not None:
        labels = _labels(model, init_data.inputs, init_data.source)
        for pair, spec in enumerate(specs):
            hits = np.flatnonzero(_goal_met(labels, spec))
            if not hits.size:
                wanted = (f"a class other than the original label {spec.target}" if untargeted
                          else f"target class {spec.target}")
                raise UsageError(f"no exemplar of {wanted} found for decision-mode "
                                 "initialization (see --init-from)")
            inits[pair] = init_data.inputs[hits[0]] - spec.x0
        starts = np.array([spec.x0 + project_box_linf(spec.x0, init, spec.epsilon)
                           for spec, init in zip(specs, inits)]).clip(0.0, 1.0)
        labels = _labels(model, starts, "the initial perturbed inputs")
        for pair, (spec, label) in enumerate(zip(specs, labels)):
            if not _goal_met(label, spec):
                raise UsageError(f"pair {pair} (target {spec.target}): the initial perturbed input "
                                 "does not meet the attack goal within --eps (see --init-from)")
    return [(idx, spec, init) for (idx, _), spec, init in zip(pairs, specs, inits)]


def _attack_pair(model, spec, init_delta, cfg, loss_cfg, rge_cfg, seed: int, pair: int,
                 timestamp: str):
    """Attack pair ``pair`` of the batch seeded ``seed``, on its own stream
    RngStream(seed).child(pair): (its report text, its aggregate.csv row,
    whether it succeeded). A fault of the run or of its report is a RunFault
    that names the pair."""
    oracle = ModelOracle(model, scores_available=loss_cfg.mode is FeedbackMode.SCORE)
    try:
        report = run_attack(spec, cfg, loss_cfg, oracle, RngStream(seed).child(pair),
                            rge_cfg=rge_cfg, init_delta=init_delta)
    except (ValueError, RuntimeError, MemoryError) as exc:
        raise RunFault(f"pair {pair}: {type(exc).__name__}: {exc}") from exc
    summary = (report.success, report.queries_first_success, *report.final_norms,
               report.total_queries)
    doc = {
        "pair": pair,
        "target": spec.target,
        "timestamp": timestamp,
        # JSON has no infinity; of the settings, only --eps may be infinite
        "config": {k: "inf" if v == math.inf else v for k, v in report.config.items()},
        "records": [vars(r) for r in report.records],
        "summary": dict(zip(SUMMARY_FIELDS, summary, strict=True)),
    }
    try:
        text = json.dumps(doc, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise RunFault(f"pair {pair}: the report is not valid JSON: {exc}") from None
    # csv.writer writes None as an empty cell and a float by its repr
    return text, [pair, spec.target, int(report.success), *summary[1:]], report.success


def cmd_attack(args) -> int:
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    if args.pairs < 1:
        raise UsageError("--pairs must be positive")
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    try:
        distortion = Distortion(args.norm)
    except ValueError:
        raise UsageError(f"unknown norm {args.norm!r}; "
                         f"choices: {sorted(d.value for d in Distortion)}") from None
    feedback = FeedbackMode(args.feedback)
    cfg = _valid(lambda: AdmmConfig(
        rho=args.rho,
        alpha=args.alpha,
        max_queries=args.budget,
        success_then_refine=not args.no_refine,
        delta_backend=DeltaBackend(args.backend),
    ))
    loss_cfg = _valid(lambda: LossConfig(
        mode=feedback,
        smoothing_mu=args.mu,
        smoothing_samples=args.n_smooth,
    ))
    rge_cfg = _valid(lambda: RgeConfig(q=args.q, nu=args.nu))

    model = _read("weight file", args.weights, load_weights)
    data = _load_dataset(args.data)
    if not np.all((data.inputs >= 0.0) & (data.inputs <= 1.0)):
        raise UsageError(f"malformed data file {args.data}: an attack input lies outside [0, 1]")
    init_data = _load_dataset(args.init_from) if args.init_from else data
    for name, ds in (("--data", data), ("--init-from", init_data)):
        if ds.dim != model.dim:
            raise UsageError(f"{name} has {ds.dim} features, the victim takes {model.dim}")

    plan = plan_pairs(model, data, args.pairs, untargeted=args.untargeted,
                      init_data=init_data if feedback is FeedbackMode.DECISION else None,
                      epsilon=args.eps, gamma=args.gamma, kappa=args.kappa,
                      distortion=distortion, beta=args.beta)

    out_dir = Path(args.out)
    held = [p for p in sorted(out_dir.glob("pair_*.json")) + [out_dir / "aggregate.csv"]
            if p.is_file()]
    if held:  # a second batch would leave the first one's extra pair reports
        raise UsageError(f"output directory {out_dir} already holds a batch ({held[0].name}); "
                         "write each batch to a new --out")
    _on_path("create", "output directory", out_dir,
             lambda p: p.mkdir(parents=True, exist_ok=True))
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    rows, n_success = [], 0
    for pair, (_, spec, init_delta) in enumerate(plan):
        text, row, success = _attack_pair(model, spec, init_delta, cfg, loss_cfg, rge_cfg,
                                          args.seed, pair, timestamp)
        # the pairs have run, so a file that cannot be written is a fault
        _on_path("write", "report", out_dir / f"pair_{pair:04d}.json",
                 lambda p: p.write_text(text), RunFault)
        rows.append(row)
        n_success += success

    def write_csv(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)

    _on_path("write", "aggregate", out_dir / "aggregate.csv", write_csv, RunFault)

    asr = n_success / len(plan)
    print(f"{len(plan)} pairs, ASR {asr:.1%}, reports in {out_dir}")
    return EXIT_OK if n_success > 0 else EXIT_NO_SUCCESS


# -- report ----------------------------------------------------------------


def summarize_reports(docs: list[dict]) -> dict:
    """Batch summary; failures are excluded from the distortion means. A
    summary field of another JSON type raises TypeError; a bool is no number."""
    summaries = [d["summary"] for d in docs]
    types = {"success": (bool,), "queries_first_success": (int, type(None)), "l0": (int,),
             "total_queries": (int,)}
    for s in summaries:
        for key in SUMMARY_FIELDS:
            if type(s[key]) not in types.get(key, (int, float)):
                raise TypeError(f"summary {key} cannot be a {type(s[key]).__name__}")
    successes = [s for s in summaries if s["success"]]
    out = {"runs": len(docs), "asr": len(successes) / len(docs) if docs else 0.0}
    for key in SUMMARY_FIELDS[1:]:
        over = summaries if key == "total_queries" else successes
        out[f"mean_{key}"] = float(np.mean([s[key] for s in over])) if over else None
    return out


def cmd_report(args) -> int:
    in_dir = Path(args.dir)
    paths = sorted(in_dir.glob("pair_*.json"))
    if not paths:
        raise UsageError(f"no report files found in {args.dir}")
    docs = []
    for path in paths:
        doc = _read("report", path, lambda p: json.loads(p.read_bytes()))
        try:
            summarize_reports([doc])  # a well-formed report summarizes on its own
        except (KeyError, TypeError, OverflowError) as exc:
            raise UsageError(f"malformed report {path}: {type(exc).__name__}: {exc}")
        docs.append(doc)
    summary = summarize_reports(docs)

    def fmt(v):
        return "-" if v is None else (f"{v:.6g}" if isinstance(v, float) else str(v))

    print("# distortion means computed over successful runs only")
    print("\t".join(summary))
    print("\t".join(fmt(val) for val in summary.values()))
    return EXIT_OK


# -- serve ------------------------------------------------------------------


def cmd_serve(args) -> int:
    model = _read("weight file", args.weights, load_weights)
    try:
        serve_oracle(model, mode=args.mode)
    except (ValueError, EOFError) as exc:
        raise RunFault(f"bad request: {exc}") from exc
    except BrokenPipeError:
        # the unsent reply would fail again when Python flushes stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise RunFault("cannot write a reply: the client closed the reply stream "
                       "(stdout)") from None
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admmattack",
        description="Gradient-free ADMM black-box adversarial attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a bundled victim classifier")
    p_train.add_argument("--model", choices=("softmax", "mlp"), default="softmax")
    p_train.add_argument("--data", default="digits8x8",
                         help="'digits8x8' or a CSV dataset path")
    p_train.add_argument("--epochs", type=int, default=100)
    p_train.add_argument("--lr", type=float, default=0.5)
    p_train.add_argument("--hidden", type=int, default=32)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", default="victim.weights")
    p_train.set_defaults(func=cmd_train)

    p_attack = sub.add_parser("attack", help="run an attack batch")
    p_attack.add_argument("--weights", required=True)
    p_attack.add_argument("--data", default="digits8x8")
    p_attack.add_argument("--backend", choices=("zo", "bo"), default="zo")
    p_attack.add_argument("--feedback", choices=("score", "decision"), default="score")
    for key, value in SETTINGS.items():
        p_attack.add_argument("--" + key.replace("_", "-"), type=type(value), default=value)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", default="reports")
    p_attack.add_argument("--untargeted", action="store_true")
    p_attack.add_argument("--no-refine", action="store_true",
                          help="stop at first success instead of refining")
    p_attack.add_argument("--init-from",
                          help="dataset supplying decision-mode target exemplars")
    p_attack.set_defaults(func=cmd_attack)

    p_report = sub.add_parser("report", help="summarize attack reports")
    p_report.add_argument("dir", help="directory of pair_*.json reports")
    p_report.set_defaults(func=cmd_report)

    p_serve = sub.add_parser("serve", help="serve a victim over the framed oracle protocol")
    p_serve.add_argument("--weights", required=True)
    p_serve.add_argument("--mode", choices=("scores", "label"), default="scores")
    p_serve.set_defaults(func=cmd_serve)

    return parser


# OpenBLAS functions that set its thread count: NumPy's bundled build
# (64-bit integer interface, prefixed names), then plain OpenBLAS names.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _pin_blas_threads() -> None:
    """Run NumPy's bundled OpenBLAS on one thread, if a known setter resolves.

    OpenBLAS's results for large matrices (BO's GP) depend on its thread
    count, so the CLI pins one thread to give the same bytes whatever
    OPENBLAS_NUM_THREADS says; where no setter resolves, it runs unpinned.
    The library itself leaves BLAS to its caller.
    """
    site = Path(np.__file__).parent.parent
    # where NumPy's wheels keep their bundled libraries, by platform
    for lib in (lib for pattern in ("numpy.libs/*openblas*", "numpy/.libs/*openblas*",
                                    "numpy/.dylibs/*openblas*")
                for lib in sorted(site.glob(pattern))):
        try:
            handle = ctypes.CDLL(str(lib))  # already loaded by NumPy: the same handle
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(handle, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    _pin_blas_threads()
    try:
        return args.func(args)
    except RunFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not "no pair succeeded"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
