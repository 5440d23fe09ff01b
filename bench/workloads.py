"""The three workloads: their inputs, one round of CLI commands, and the
checks on a round's output documents.

A round is a fixed list of `sqkd` commands.  `povm-search` and
`family-sweep` repeat the same commands on the same inputs in every round,
so the share of failed operations is the same in every run.  `suite-verify`
gives round k its own suite seeds, drawn from `--seed` and k, so that a run
averages over many instance mixes; it fails no operation.  `--seed` picks
the inputs: suite seeds, sweep grid ends and random attacks for
`suite-verify` and `family-sweep`.
`povm-search` keeps fixed instances and solver seed, because the solver
shortfalls it counts are known on those instances; there the seed only
sets the order in which the instances are solved.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

EQUALITY_TOL = 1e-12
ROUTE_TOL = 1e-10
INFO_TOL = 1e-9
SHORTFALL_TOL = 1e-6


@dataclass(frozen=True)
class Command:
    label: str  # unique within a round; also the name of its --out file
    kind: str
    argv: tuple
    ops: int


class Checks:
    """Collects failed checks; the run is correct when there are none."""

    def __init__(self):
        self.errors = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def close(self, label: str, got, want, tol: float) -> None:
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
        self.expect(err <= tol, f"{label}: off by {err:.3e} (tolerance {tol:.0e})")


def write_attack(path: Path, attack) -> tuple:
    """Write an attack document; return the (V, U, omega) read back from it."""
    doc = {
        "ancilla_dim": attack.ancilla_dim,
        "omega": ref.to_pairs(attack.omega),
        "v": ref.to_pairs(attack.v),
        "u": ref.to_pairs(attack.u),
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = json.loads(path.read_text(encoding="utf-8"))
    return tuple(ref.complex_array(back[k]) for k in ("v", "u", "omega"))


def percentile_with_tail(values, min_beyond: int = 10):
    """Highest of p90/p95/p99/p99.9 with at least `min_beyond` samples above it."""
    n = len(values)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= min_beyond:
            best = p
    if best is None:
        return None, None
    return best, float(np.percentile(values, best))


class Workload:
    name = ""

    def __init__(self, sqkd, seed: int, inputs: Path):
        self.sqkd = sqkd
        self.inputs = inputs

    def prepare(self) -> None:
        """Write the input files (called once per set-up repetition)."""

    def warm_up(self) -> list:
        raise NotImplementedError

    def commands(self, k: int) -> list:
        """The commands of round k."""
        raise NotImplementedError

    def check(self, outdir: Path, records: list, checks: Checks) -> set:
        """Check one round's outputs; return the labels of failed operations."""
        raise NotImplementedError

    def diagnostics(self, rounds: list, outdir: Path) -> dict:
        """Workload-specific figures, {name: (value, unit)}."""
        raise NotImplementedError


class SuiteVerify(Workload):
    """`sqkd verify` on the theorem, proof-chain and lemma2 suites."""

    name = "suite-verify"
    # Command lengths about 0.35, 0.85 and 1.5 s on the reference machine:
    # kept apart, so the median command is always the proof-chain one.
    TRIALS = {"theorem": 200, "proof-chain": 400, "lemma2": 3000}
    SUBSAMPLE = 6

    def __init__(self, sqkd, seed, inputs):
        super().__init__(sqkd, seed, inputs)
        self.seed = seed

    def _suite_seeds(self, k: int) -> dict:
        rng = np.random.default_rng([self.seed, k])
        return {suite: int(rng.integers(2**31)) for suite in self.TRIALS}

    @staticmethod
    def _verify(suite: str, trials: int, suite_seed: int, label: str) -> Command:
        argv = ("verify", "--suite", suite, "--trials", str(trials), "--seed", str(suite_seed))
        return Command(label, "verify", argv, trials)

    def warm_up(self):
        return [self._verify(suite, 3, s, f"warm-{suite}.json") for suite, s in self._suite_seeds(0).items()]

    def commands(self, k):
        seeds = self._suite_seeds(k)
        return [self._verify(suite, n, seeds[suite], f"{suite}.json") for suite, n in self.TRIALS.items()]

    def _instance(self, suite_seed: int, trials: int, index: int):
        child = np.random.SeedSequence(suite_seed).spawn(trials)[index]
        return self.sqkd.suites.sample_theorem_instance(child)

    def check(self, outdir, records, checks):
        sqkd = self.sqkd
        for rec in records:
            suite = rec.command.argv[2]
            suite_seed = int(rec.command.argv[-1])
            trials = rec.command.ops
            doc = json.loads((outdir / rec.command.label).read_text(encoding="utf-8"))
            checks.expect(rec.rc == 0 and doc["violations"] == 0,
                          f"{suite}: exit {rec.rc}, {doc['violations']} violations")
            checks.expect(doc["trials"] == trials and 0 <= doc["worst_trial"] < trials,
                          f"{suite}: trials {doc['trials']}, worst trial {doc['worst_trial']}")
            if suite == "lemma2":
                continue
            worst = doc["worst_trial"]
            attack, povm = self._instance(suite_seed, trials, worst)
            if suite == "proof-chain":
                checks.expect(doc["max_equality_residual"] <= EQUALITY_TOL,
                              f"proof-chain: equality residual {doc['max_equality_residual']:.3e}")
                slacks = sqkd.proof_chain(attack, povm).step_slacks
                regen = min(v for k, v in slacks.items() if not k.startswith("s1"))
            else:
                o = ref.observables(attack.v, attack.u, attack.omega, povm.elements)
                regen = ref.tradeoff_rhs(o.p_ctrl, o.p_sift) - ref.mutual_information(o.joint)
            checks.close(f"{suite}: worst trial {worst} regenerated", regen, doc["min_slack"], EQUALITY_TOL)

            sample = set(np.linspace(0, trials - 1, self.SUBSAMPLE).round().astype(int).tolist())
            for i in sorted(sample | {worst}):
                attack, povm = self._instance(suite_seed, trials, i)
                o = ref.observables(attack.v, attack.u, attack.omega, povm.elements)
                where = f"{suite} trial {i}"
                checks.close(f"{where}: P_CTRL", sqkd.ctrl_error(attack), o.p_ctrl, ROUTE_TOL)
                checks.close(f"{where}: P_SIFT", sqkd.sift_branch(attack).p_sift, o.p_sift, ROUTE_TOL)
                checks.close(f"{where}: joint table", sqkd.joint_distribution(attack, povm), o.joint, ROUTE_TOL)
                info = ref.mutual_information(o.joint)
                rhs = ref.tradeoff_rhs(o.p_ctrl, o.p_sift)
                checks.expect(info <= rhs, f"{where}: bound fails on reference numbers ({info!r} > {rhs!r})")
                if suite == "theorem":
                    checks.expect(rhs - info >= doc["min_slack"] - EQUALITY_TOL,
                                  f"{where}: slack below the reported minimum")
        return set()

    def diagnostics(self, rounds, outdir):
        out = {}
        for suite in self.TRIALS:
            recs = [r for rnd in rounds for r in rnd if r.command.argv[2] == suite]
            rate = sum(r.command.ops for r in recs) / sum(r.seconds for r in recs)
            out[f"{suite.replace('-', '_')}_trials_per_s"] = (rate, "trials/s")
        return out


class PovmSearch(Workload):
    """`sqkd run --povm optimize` on fixed instances, 8 restarts, solver seed 0."""

    name = "povm-search"
    NAMED = ("identity", "forward-cnot", "partial-return-cz(0.7)", "partial-forward-cnot(0.4)")
    RANDOM = tuple((d, s) for d in (2, 3, 4) for s in (1, 5))
    RESTARTS = 8
    SOLVER_SEED = 0

    def __init__(self, sqkd, seed, inputs):
        super().__init__(sqkd, seed, inputs)
        self.order = np.random.default_rng(seed).permutation(len(self.NAMED) + len(self.RANDOM))
        self.attacks = {}
        for name in self.NAMED:
            base, _, arg = name.partition("(")
            self.attacks[name] = ref.named_attack(base, float(arg[:-1]) if arg else None)

    def _path(self, d: int, s: int) -> Path:
        return self.inputs / f"random-d{d}-s{s}.json"

    def prepare(self):
        for d, s in self.RANDOM:
            self.attacks[f"random-d{d}-s{s}"] = write_attack(self._path(d, s), self.sqkd.random_attack(d, s))

    def _run(self, label: str, source: str, povm: str, restarts: int) -> Command:
        argv = ("run", "--attack", source, "--povm", povm, "--restarts", str(restarts),
                "--seed", str(self.SOLVER_SEED))
        return Command(label, "run-optimize", argv, 1)

    def warm_up(self):
        return [self._run("warm-optimize.json", "identity", "optimize", 1),
                self._run("warm-z.json", str(self._path(2, 1)), "z", 1)]

    def commands(self, k):
        cmds = [self._run(name, name, "optimize", self.RESTARTS) for name in self.NAMED]
        cmds += [self._run(f"random-d{d}-s{s}", str(self._path(d, s)), "optimize", self.RESTARTS)
                 for d, s in self.RANDOM]
        return [cmds[i] for i in self.order]

    def check(self, outdir, records, checks):
        failed = set()
        for rec in records:
            label = rec.command.label
            doc = json.loads((outdir / label).read_text(encoding="utf-8"))
            checks.expect(rec.rc == 0, f"{label}: exit code {rec.rc}")
            elements = list(ref.complex_array(doc["povm"]["elements"]))
            checks.expect(ref.povm_defect(elements) <= INFO_TOL, f"{label}: returned POVM is not valid")
            v, u, omega = self.attacks[label]
            o = ref.observables(v, u, omega, elements)
            info = doc["report"]["info"]
            checks.close(f"{label}: P_CTRL", doc["report"]["p_ctrl"], o.p_ctrl, ROUTE_TOL)
            checks.close(f"{label}: P_SIFT", doc["report"]["p_sift"], o.p_sift, ROUTE_TOL)
            checks.close(f"{label}: info", info, ref.mutual_information(o.joint), INFO_TOL)
            low, high = doc["optimizer"]["info_interval"]
            checks.close(f"{label}: optimizer's info", low, info, INFO_TOL)
            chi = ref.holevo_chi(o.tau)
            checks.close(f"{label}: Holevo ceiling", high, chi, INFO_TOL)
            checks.expect(info <= chi + INFO_TOL, f"{label}: info {info!r} above Holevo chi {chi!r}")
            if label == "forward-cnot":
                checks.close("forward-cnot: info", info, 1.0, INFO_TOL)
            if label == "identity":
                checks.expect(info <= SHORTFALL_TOL, f"identity: info {info!r}")
            if ref.helstrom_information(o.tau) - info > SHORTFALL_TOL:
                failed.add(label)
        return failed

    def diagnostics(self, rounds, outdir):
        secs = [r.seconds for rnd in rounds for r in rnd]
        info = sum(json.loads((outdir / r.command.label).read_text())["report"]["info"] for r in rounds[0])
        return {"solve_s": (float(np.median(secs)), "s"), "eve_info_bits": (info, "bits")}


class FamilySweep(Workload):
    """`sqkd sweep` over both partial families, then single `sqkd run --povm z`
    commands on random attack files with d in {2, 3, 4}."""

    name = "family-sweep"
    FAMILY_POVM = {"partial-forward-cnot": "z", "partial-return-cz": "x"}
    GRID_POINTS = 201
    DIMS = (2, 3, 4)
    FILES_PER_DIM = 10
    PASSES = 5
    HEADER = "family,theta,p_ctrl,p_sift,info_lower,rhs,gap,holds"

    def __init__(self, sqkd, seed, inputs):
        super().__init__(sqkd, seed, inputs)
        rng = np.random.default_rng(seed)
        self.grid = (float(rng.uniform(0.0, 0.01)), float(math.pi / 2 - rng.uniform(0.0, 0.01)))
        self.files = [(d, i, int(rng.integers(2**31))) for d in self.DIMS for i in range(self.FILES_PER_DIM)]
        self.attacks = {}

    def _path(self, d: int, i: int) -> Path:
        return self.inputs / f"attack-d{d}-{i}.json"

    def prepare(self):
        for d, i, s in self.files:
            self.attacks[(d, i)] = write_attack(self._path(d, i), self.sqkd.random_attack(d, s))

    def _sweep(self, family: str, points: int, label: str) -> Command:
        param = f"theta={self.grid[0]!r}:{self.grid[1]!r}:{points}"
        argv = ("sweep", "--family", family, "--param", param, "--povm", self.FAMILY_POVM[family])
        return Command(label, "sweep", argv, points)

    def _run(self, d: int, i: int, label: str) -> Command:
        return Command(label, "run", ("run", "--attack", str(self._path(d, i)), "--povm", "z"), 1)

    def warm_up(self):
        cmds = [self._sweep(f, 3, f"warm-{f}.csv") for f in self.FAMILY_POVM]
        return cmds + [self._run(d, 0, f"warm-run-d{d}.json") for d in self.DIMS]

    def commands(self, k):
        cmds = [self._sweep(f, self.GRID_POINTS, f"{f}.csv") for f in self.FAMILY_POVM]
        for p in range(self.PASSES):
            cmds += [self._run(d, i, f"run-d{d}-{i}-p{p}.json") for d, i, _ in self.files]
        return cmds

    def check(self, outdir, records, checks):
        thetas = np.linspace(self.grid[0], self.grid[1], self.GRID_POINTS)
        for rec in records:
            label = rec.command.label
            checks.expect(rec.rc == 0, f"{label}: exit code {rec.rc}")
            if rec.command.kind == "sweep":
                self._check_sweep(rec.command.argv[2], outdir / label, thetas, checks)
            elif label.endswith("-p0.json"):
                _, dim, index, _ = label.split("-")
                self._check_run(outdir, label, int(dim[1:]), int(index), checks)
        return set()

    def _check_sweep(self, family: str, path: Path, thetas, checks):
        lines = path.read_text(encoding="utf-8").splitlines()
        checks.expect(lines[0] == self.HEADER, f"{family}: CSV header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        checks.expect(len(rows) == len(thetas), f"{family}: {len(rows)} rows for {len(thetas)} grid points")
        for row, theta in zip(rows, thetas):
            where = f"{family} theta={row[1]}"
            checks.expect(row[0] == family and row[1] == format(theta, ".12g"), f"{where}: out of grid order")
            want = ref.family_closed_form(theta)
            got = [float(x) for x in row[2:7]]
            checks.close(f"{where}: closed form", got[:4], [want[k] for k in ("p_ctrl", "p_sift", "info", "rhs")],
                         INFO_TOL)
            checks.close(f"{where}: gap", got[4], want["rhs"] - want["info"], INFO_TOL)
            checks.expect(row[7] == "true", f"{where}: holds={row[7]}")

    def _check_run(self, outdir, label, d, i, checks):
        doc = json.loads((outdir / label).read_text(encoding="utf-8"))
        o = ref.observables(*self.attacks[(d, i)], ref.z_basis(d))
        rep = doc["report"]
        checks.close(f"{label}: P_CTRL", rep["p_ctrl"], o.p_ctrl, ROUTE_TOL)
        checks.close(f"{label}: P_SIFT", rep["p_sift"], o.p_sift, ROUTE_TOL)
        checks.close(f"{label}: p_a", rep["p_a"], o.p_a, ROUTE_TOL)
        checks.close(f"{label}: joint table", rep["joint"], o.joint, ROUTE_TOL)
        checks.close(f"{label}: info", rep["info"], ref.mutual_information(o.joint), ROUTE_TOL)
        checks.close(f"{label}: rhs", rep["rhs"], ref.tradeoff_rhs(o.p_ctrl, o.p_sift), ROUTE_TOL)
        checks.expect(rep["holds"] is True, f"{label}: holds={rep['holds']}")
        for p in range(1, self.PASSES):
            again = label.replace("-p0.json", f"-p{p}.json")
            checks.expect((outdir / again).read_bytes() == (outdir / label).read_bytes(),
                          f"{again}: differs from the first run of the same command")

    def diagnostics(self, rounds, outdir):
        sweeps = [r for rnd in rounds for r in rnd if r.command.kind == "sweep"]
        runs = [r.seconds * 1e3 for rnd in rounds for r in rnd if r.command.kind == "run"]
        out = {
            "sweep_points_per_s": (sum(r.command.ops for r in sweeps) / sum(r.seconds for r in sweeps), "points/s"),
            "run_p50_ms": (float(np.median(runs)), "ms"),
        }
        p, tail = percentile_with_tail(runs)
        if p is not None:
            out[f"run_p{p:g}_ms"] = (tail, "ms")
        out["run_samples"] = (len(runs), "count")
        return out


WORKLOADS = {w.name: w for w in (SuiteVerify, PovmSearch, FamilySweep)}
