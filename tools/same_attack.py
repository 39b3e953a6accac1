"""Same attack, byte for byte: python3 tools/same_attack.py BASE HEAD

BASE and HEAD are repository roots, and each tree runs the admmattack in its own src/.
In a temporary directory, each tree writes ard.csv and init.csv, trains three victims
with seed 0 and runs every batch in BATCHES at one BLAS thread. An attack that exits 1
(no pair succeeded) is still a result; any other failure stops the script, naming the
tree, the command and the tail of its stderr. Both trees must then hold the same files
with the same bytes, or the script names each one that differs and exits 1: the weight
files, their .json sidecars, ard.csv and init.csv, so that a change to training, the
weight format or the RNG shows; every aggregate.csv; and every pair report but its
"timestamp" line, as at these budgets a decision batch's final norms can hide a change
in its trajectory.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# The batches cover ZO with score and decision feedback on both victims, the BO
# delta-step (its GP fit and EI ascent, and the success probe in its last loss call)
# with score and decision feedback, under l2, l1 and l0, untargeted and on the MLP, a
# run that stops at its first success, the z-step of every distortion (l0, l1, l2,
# elastic net; l0 and l1 also with decision feedback) and an untargeted score loss, on
# the softmax victim with kappa > 0 and on the MLP. The l0 and bo-l0 batches each
# leave a pair without success, so an aggregate.csv row with an empty cell (the l0
# batch's pair 0: 0,0,0,,0,0.0,0.0,0.0,1980) is compared byte for byte. The ard
# batch attacks, with BO, a softmax victim trained on the first 8 features of the
# digits: below 33 features the GP fits one lengthscale per dimension, which the
# 64-feature batches never reach. The score-50 batch is the quick start's 50-pair
# score batch at the full 20000-query budget.
# A score-feedback ZO run draws its RGE directions in blocks of
# grad_est.block_iterations(q, d) iterations, 51 at q = 20 and d = 64, each block after
# the first on a helper thread: every score batch runs past its first block, and
# no-refine closes the helper early, at a first success. Decision runs draw inline; the
# no-refine-decision batch stops at its first success, the initializer, so each pair
# ends before its first iteration. Every other decision batch smooths with the default
# mu = 1 and N = 10, except zo-untargeted-decision: an untargeted ZO decision run with
# mu = 0.5 and N = 3, so that the smoothing stack's sizes and scale differ. Every other
# batch runs rho, alpha, q, nu, gamma and eps at their defaults; score-settings sets all
# six, so that the configs that check them are built with other values too. Every other
# decision batch takes its initializers from its --data rows; decision-init-from takes
# them from init.csv, the digits in reverse row order, so its exemplars differ.
BATCHES = [  # name, victim, attack flags
    ("score", "softmax", "--feedback score --budget 2000 --pairs 8 --seed 1"),
    ("decision", "softmax", "--feedback decision --budget 2000 --pairs 5 --seed 108"),
    ("bo", "softmax", "--backend bo --budget 300 --pairs 2 --seed 3"),
    ("bo-decision", "softmax", "--backend bo --feedback decision --budget 800 --pairs 2 --seed 9"),
    ("bo-l1", "softmax", "--backend bo --norm l1 --budget 300 --pairs 2 --seed 11"),
    ("no-refine", "softmax", "--no-refine --budget 2000 --pairs 4 --seed 2"),
    ("mlp-score", "mlp", "--feedback score --budget 2000 --pairs 3 --seed 5"),
    ("mlp-decision", "mlp", "--feedback decision --budget 2000 --pairs 3 --seed 5"),
    ("l0", "softmax", "--norm l0 --budget 2000 --pairs 3 --seed 4"),
    ("l1", "softmax", "--norm l1 --budget 2000 --pairs 3 --seed 4"),
    ("elastic", "softmax", "--norm elastic --beta 0.5 --budget 2000 --pairs 3 --seed 4"),
    ("untargeted", "softmax", "--untargeted --kappa 0.5 --budget 2000 --pairs 3 --seed 6"),
    ("l1-decision", "softmax", "--norm l1 --feedback decision --budget 2000 --pairs 3 --seed 7"),
    ("l0-decision", "softmax", "--norm l0 --feedback decision --budget 2000 --pairs 3 --seed 13"),
    ("mlp-untargeted", "mlp", "--untargeted --budget 2000 --pairs 3 --seed 14"),
    ("ard", "ard", "--data ard.csv --backend bo --budget 150 --pairs 2 --seed 12"),
    ("bo-untargeted-decision", "softmax",
     "--backend bo --untargeted --feedback decision --budget 800 --pairs 2 --seed 21"),
    ("bo-l0", "softmax", "--backend bo --norm l0 --budget 300 --pairs 2 --seed 22"),
    ("bo-mlp", "mlp", "--backend bo --budget 300 --pairs 2 --seed 23"),
    ("score-50", "softmax", "--feedback score --budget 20000 --pairs 50 --seed 1"),
    ("no-refine-decision", "softmax", "--no-refine --feedback decision --budget 2000 --pairs 3 "
     "--seed 31"),
    ("zo-untargeted-decision", "softmax", "--feedback decision --untargeted --mu 0.5 "
     "--n-smooth 3 --budget 2000 --pairs 3 --seed 41"),
    ("score-settings", "softmax", "--rho 3 --alpha 0.5 --q 8 --nu 0.3 --gamma 0.5 --eps 0.5 "
     "--budget 2000 --pairs 3 --seed 51"),
    ("decision-init-from", "softmax",
     "--feedback decision --init-from init.csv --budget 2000 --pairs 3 --seed 61"),
]

# names the admmattack it imported, then writes the first 8 features of the digits
# and all the digits in reverse row order
WRITE_ARD = """import admmattack
from admmattack.victim import digits8x8
print(admmattack.__file__)
data = digits8x8()
for name, inputs, labels in (("ard.csv", data.inputs[:, :8], data.labels),
                             ("init.csv", data.inputs[::-1], data.labels[::-1])):
    with open(name, "w") as fh:
        for x, y in zip(inputs, labels):
            fh.write(",".join(map(repr, x.tolist())) + f",{y}\\n")
"""

TRAIN = {"softmax": [], "mlp": ["--model", "mlp", "--epochs", "5"], "ard": ["--data", "ard.csv"]}


def run_tree(root: Path, out: Path) -> None:
    """Victims into out/weights and each batch's reports into out/<name>, with root/src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    weights = out / "weights"
    weights.mkdir(parents=True)

    def run(argv, accept=(0,)):
        proc = subprocess.run([sys.executable, *argv], cwd=weights, env=env,
                              capture_output=True, text=True)
        if proc.returncode not in accept:
            sys.exit(f"{root}: {shlex.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    imported = Path(run(["-c", WRITE_ARD]).strip()).resolve()
    if imported != (root / "src" / "admmattack" / "__init__.py").resolve():
        sys.exit(f"{root}: admmattack was imported from {imported}, not from this tree's src/")
    for victim, flags in TRAIN.items():
        run(["-m", "admmattack.cli", "train", "--seed", "0", *flags, "--out", f"{victim}.weights"])
    for name, victim, flags in BATCHES:
        run(["-m", "admmattack.cli", "attack", "--weights", f"{victim}.weights", *flags.split(),
             "--out", str(out / name)], accept=(0, 1))


def outputs(out: Path) -> dict:
    """Each file's bytes by its path under out; a pair report loses its timestamp line."""
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    for name, data in files.items():
        if Path(name).match("pair_*.json"):
            files[name] = re.sub(rb'(?m)^ "timestamp": .*\n', b"", data)
    return files


def differences(base_out: Path, head_out: Path) -> list:
    """One line per file that is missing from one side or differs."""
    base, head = outputs(base_out), outputs(head_out)
    return ([f"only in BASE: {p}" for p in sorted(base.keys() - head.keys())]
            + [f"only in HEAD: {p}" for p in sorted(head.keys() - base.keys())]
            + [f"differs: {p}" for p in sorted(base.keys() & head.keys()) if base[p] != head[p]])


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.splitlines()[0])
    with tempfile.TemporaryDirectory(prefix="same-attack-") as work:
        for root, side in zip(argv, ("base", "head")):
            run_tree(Path(root).resolve(), Path(work, side))
        found = differences(Path(work, "base"), Path(work, "head"))
    print("\n".join(found) if found else f"{len(BATCHES)} batches: identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
