"""Benchmark entry point: one workload, one process, one thread.

    python3 bench/run.py --workload suite-verify --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the program is imported from its
`src/` directory and driven in-process through `sqkd.cli.main`.  With
`--trace 0` the run makes as many whole rounds of the workload's commands
as fit in `--seconds` (at least one), and reports the end-to-end
metrics of BENCHMARK.json, adjusted to a reference host speed that
calibration.py measures during the rounds.  With `--trace 1` round 0
runs untraced and the same round runs again with every public function of the program wrapped in spans;
the per-layer metrics come from the traced round and the spans go to
`.bench_trace/`.  Either way the outputs are checked, and the last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Figures particular to the
workload, and any failed check, are written to standard error.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_TIMING = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import sqkd.cli; print(time.perf_counter() - t)"
IMPORT_TIMEOUT_S = 60
MAX_ERRORS_SHOWN = 20
LAYERS = ("linalg", "info", "protocol", "attacks", "povm", "eavesdropper",
          "tradeoff", "suites", "serialize", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass(frozen=True)
class Record:
    command: object  # workloads.Command
    seconds: float
    rc: int


def run_round(cli, commands, outdir: Path, calibration=None) -> list:
    """Run each command once, writing its --out document into outdir.  A
    command's time leaves out the calibration blocks that interrupted it."""
    outdir.mkdir()
    records = []
    for cmd in commands:
        argv = [*cmd.argv, "--out", str(outdir / cmd.label)]
        sink = io.StringIO()
        blocks_before = calibration.seconds if calibration is not None else 0.0
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)  # attribute lookup, so a traced main is used
        seconds = time.perf_counter() - start
        if calibration is not None:
            seconds -= calibration.seconds - blocks_before
        records.append(Record(cmd, seconds, rc))
    return records


def same_outputs(first: Path, other: Path, records) -> bool:
    return all((first / r.command.label).read_bytes() == (other / r.command.label).read_bytes()
               for r in records)


def layer_metrics(names, tracer, untraced_s, traced_s, workload, outdir, rounds) -> dict:
    summary = tracer.summary()
    values = {
        "trace.untraced_round_s": untraced_s,
        "trace.traced_round_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    if "eve_info_bits" in (diag := workload.diagnostics(rounds, outdir)):
        values["eavesdropper.accessible_information.info_bits"] = diag["eve_info_bits"][0]
    out = {}
    for name, unit in names.items():
        if name in values:
            out[name] = values[name]
            continue
        span, _, field = name.rpartition(".")
        if span in LAYERS:
            out[name] = sum(s for n, (_, s) in summary.items() if n.startswith(span + "."))
        elif span in summary:
            out[name] = summary[span][0 if field == "calls" else 1]
        else:
            print(f"note: {span} is not a public function of the program; reported as 0", file=sys.stderr)
            out[name] = 0
    return out


def import_seconds(first_s: float) -> float:
    """Median of this process's import of the program and SETUP_REPEATS - 1
    more, each in a fresh interpreter."""
    times = [first_s]
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMING, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=IMPORT_TIMEOUT_S)
        times.append(float(proc.stdout))
    return statistics.median(times)


def set_up(cli, workload, work: Path, import_s: float) -> float:
    """Median import time plus the median of repeated input generation and warm-up."""
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare()
        warm = run_round(cli, workload.warm_up(), work / f"warm-{k}")
        times.append(time.perf_counter() - start)
        if any(r.rc != 0 for r in warm):
            raise RuntimeError("a warm-up command failed")
    return import_s + statistics.median(times)


def timed_rounds(cli, workload, work: Path, seconds: float, calibration) -> list:
    """Whole rounds, at least one, while the next is expected to end within `seconds`."""
    rounds = []
    start = time.perf_counter()
    last_s = 0.0
    with calibration:
        while not rounds or time.perf_counter() - start + last_s <= seconds:
            round_start = time.perf_counter()
            k = len(rounds)
            rounds.append(run_round(cli, workload.commands(k), work / f"round-{k}", calibration))
            last_s = time.perf_counter() - round_start
    return rounds


def check_rounds(workload, rounds, work: Path, checks) -> list:
    """Check each round; a round that repeats an earlier round's commands must
    write byte-identical documents.  Returns each round's failed labels."""
    seen = {}
    failed = []
    for k, rnd in enumerate(rounds):
        key = tuple(r.command.argv for r in rnd)
        outdir = work / f"round-{k}"
        if key in seen:
            first, labels = seen[key]
            checks.expect(same_outputs(work / f"round-{first}", outdir, rnd),
                          f"round {k} wrote different --out documents than round {first}")
        else:
            labels = workload.check(outdir, rnd, checks)
            seen[key] = (k, labels)
        failed.append(labels)
    return failed


def traced_rounds(cli, commands, work: Path, sqkd, tracer) -> tuple:
    """One untraced round, then the same round traced; returns (rounds, untraced_s, traced_s)."""
    start = time.perf_counter()
    untraced = run_round(cli, commands, work / "round-0")
    untraced_s = time.perf_counter() - start
    tracer.install({"sqkd": sqkd, **{n: getattr(sqkd, n) for n in LAYERS}})
    try:
        start = time.perf_counter()
        traced = run_round(cli, commands, work / "round-1")
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return [untraced, traced], untraced_s, traced_s


def end_to_end_metrics(rounds, setup_s: float, peak_rss_mb: float, speed: float) -> dict:
    records = [r for rnd in rounds for r in rnd]
    round_s = [sum(r.seconds for r in rnd) for rnd in rounds]
    raw_ops_per_s = sum(r.command.ops for r in records) / sum(round_s)
    print(f"{len(rounds)} rounds, {len(records)} commands; round seconds: "
          + " ".join(f"{s:.3f}" for s in round_s), file=sys.stderr)
    for name, value, unit in (("cmd_p50_ms", 1e3 * statistics.median(r.seconds for r in records), "ms"),
                              ("raw_ops_per_s", raw_ops_per_s, "ops/s"),
                              ("raw_setup_s", setup_s, "s"),
                              ("host_speed", speed, "x reference")):
        print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
    return {
        "setup_s": setup_s * speed,
        "ops_per_s": raw_ops_per_s / speed,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "sqkd" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sqkd'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SQKD_THREADS", None)
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    cli = importlib.import_module("sqkd.cli")
    import_s = time.perf_counter() - start
    import sqkd

    from calibration import Calibration
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        inputs = work / "inputs"
        inputs.mkdir()
        workload = WORKLOADS[args.workload](sqkd, args.seed, inputs)
        setup_s = set_up(cli, workload, work, import_seconds(import_s))
        if args.trace:
            tracer = Tracer()
            rounds, untraced_s, traced_s = traced_rounds(cli, workload.commands(0), work, sqkd, tracer)
        else:
            calibration = Calibration()
            rounds = timed_rounds(cli, workload, work, args.seconds, calibration)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = Checks()
        first = work / "round-0"
        round_failed = check_rounds(workload, rounds, work, checks)
        failed_labels = set().union(*round_failed)
        attempted = sum(r.command.ops for rnd in rounds for r in rnd)
        failed = sum(r.command.ops for rnd, labels in zip(rounds, round_failed)
                     for r in rnd if r.command.label in labels)

        if args.trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = layer_metrics(names, tracer, untraced_s, traced_s, workload, first, rounds[:1])
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json.gz",
                         {"workload": args.workload, "seed": args.seed,
                          "untraced_round_s": untraced_s, "traced_round_s": traced_s})
        else:
            names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = end_to_end_metrics(rounds, setup_s, peak_rss_mb, calibration.speed())
            metrics = {name: values[name] for name in names}
            for name, (value, unit) in workload.diagnostics(rounds, first).items():
                print(f"  {name:48s} {value:14.6g} {unit}", file=sys.stderr)
        for name, value in metrics.items():
            print(f"  {name:48s} {value:14.6g} {names[name]}", file=sys.stderr)
        if failed_labels:
            print(f"failed operations (each round): {', '.join(sorted(failed_labels))}", file=sys.stderr)
        for error in checks.errors[:MAX_ERRORS_SHOWN]:
            print(f"check failed: {error}", file=sys.stderr)
        if len(checks.errors) > MAX_ERRORS_SHOWN:
            print(f"... {len(checks.errors)} checks failed in all", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not checks.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": names[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
