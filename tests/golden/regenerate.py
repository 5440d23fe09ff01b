"""Regenerate the golden corpus: what a fixed list of sqkd commands prints and writes.

    python tests/golden/regenerate.py

Every command runs in-process through `sqkd.cli.main`, from this
directory (so the input files it names are relative paths and enter the
documents as such), with `--out` pointing at a temporary file.  For each
command `corpus.json` keeps its argv (without `--out`), exit code,
stdout, stderr and the text of the `--out` file (null if none was
written), beside the numpy version that made them.  The input files
under `inputs/` are written first, from the program's own constructors.
`tests/test_golden.py` replays the corpus.  A change that alters an
entry says why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from sqkd.attacks import random_attack  # noqa: E402
from sqkd.cli import main  # noqa: E402
from sqkd.serialize import attack_to_dict, write_document  # noqa: E402

CORPUS = HERE / "corpus.json"
SUITES = ("lemma1", "lemma2", "theorem", "proof-chain")
VERIFY_TRIALS = (1100, 3000)
VERIFY_SEEDS = (0, 7, 2**33 + 1)  # the last has two 32-bit entropy words
NAMED = ("identity", "forward-cnot", "return-cz", "partial-forward-cnot(0.4)", "partial-return-cz(0.7)")
RANDOM = ((1, 0), (2, 3), (3, 1))  # (d, seed) of random_attack
FAMILY_GRID = "theta=0:1.5707963267948966:61"
POVMS = ("z", "x", "optimize")


def _u_scaled_flip() -> dict:
    """U = (1 + 4e-11) X (x) 1 at d = 2: within TOL_UNITARY (deviation 8e-11),
    yet it pushes P(z_B|z) past 1 by far more than the 1e-12 clamp."""
    eye = np.eye(4, dtype=complex)
    flip = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2)).astype(complex)
    return {"ancilla_dim": 2, "omega": [[1.0, 0.0], [0.0, 0.0]],
            "v": np.stack([eye.real, eye.imag], axis=-1).tolist(),
            "u": np.stack([(1 + 4e-11) * flip.real, flip.imag], axis=-1).tolist()}


def _negative_povm() -> dict:
    """{diag(1 + 0.99e-10, -0.99e-10), its complement}: each element's least
    eigenvalue is within TOL_POSITIVE of 0, and the two sum to 1 exactly."""
    eps = 0.99e-10
    elements = np.array([np.diag([1 + eps, -eps]), np.diag([-eps, 1 + eps])])
    return {"elements": np.stack([elements, np.zeros_like(elements)], axis=-1).tolist()}


INPUTS = {
    **{f"inputs/random-d{d}-s{s}.json": (lambda d=d, s=s: attack_to_dict(random_attack(d, s))) for d, s in RANDOM},
    "inputs/unitary-off-by-4e-11.json": _u_scaled_flip,
    "inputs/povm-negative-0.99e-10.json": _negative_povm,
}


def commands() -> list:
    """The argv of every corpus command, without --out."""
    argvs = [["verify", "--suite", s, "--trials", str(n), "--seed", str(seed)]
             for s in SUITES for n in VERIFY_TRIALS for seed in VERIFY_SEEDS]
    attacks = [*NAMED, *(f"inputs/random-d{d}-s{s}.json" for d, s in RANDOM)]
    argvs += [["run", "--attack", a, "--povm", p] for a in attacks for p in POVMS]
    argvs += [["sweep", "--family", f, "--param", FAMILY_GRID, "--povm", p]
              for f in ("partial-forward-cnot", "partial-return-cz") for p in POVMS]
    argvs += [["run", "--attack", "inputs/unitary-off-by-4e-11.json"],
              ["run", "--attack", "forward-cnot", "--povm", "inputs/povm-negative-0.99e-10.json"]]
    return argvs


def run(argv: list, out: Path) -> dict:
    """One command in-process, from this directory: its exit code, stdout, stderr and --out text."""
    out.unlink(missing_ok=True)
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
            "out": out.read_text(encoding="utf-8") if out.exists() else None}


def regenerate() -> None:
    (HERE / "inputs").mkdir(exist_ok=True)
    for name, build in INPUTS.items():
        write_document(build(), HERE / name)
    with tempfile.TemporaryDirectory() as tmp:
        entries = [run(argv, Path(tmp) / "out") for argv in commands()]
    CORPUS.write_text(json.dumps({"numpy": np.__version__, "entries": entries}, indent=1) + "\n",
                      encoding="utf-8")
    print(f"{len(entries)} commands, {CORPUS.stat().st_size} bytes in {CORPUS.name}")


if __name__ == "__main__":
    regenerate()
