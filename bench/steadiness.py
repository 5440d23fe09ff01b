"""Run each workload repeatedly and print each metric's median and quartiles.

    python3 bench/steadiness.py                     # 10 seeds, every workload
    python3 bench/steadiness.py --runs 5 --workload suite-verify

Run from the root of a source tree.  Each run is `bench/run.py` in its own
process, with seeds first-seed, first-seed + 1, ...  and the run length
from BENCHMARK.json.  For every metric the spread is the distance between
the first and third quartile (`statistics.quantiles(values, n=4)`) as a
share of the median; the bounds in BENCHMARK.json are set from it, and a
spread above a third of its bound is marked.  The failed share of
operations must be the same in every run of a workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    steady = True

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, args.first_seed + k, spec["run_seconds"], args.trace)
                   for k in range(args.runs)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        fail_shares = {f / a for f, a in shares}
        correct = all(r["correct"] for r in results)
        steady &= correct and len(fail_shares) == 1
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"correct={correct}, failed/attempted={sorted(shares)}")
        print(f"  {'metric':46s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                mark = "  above a third of the bound"
                steady = False
            bound_text = f"{bound:6.2f}" if bound is not None else ""
            print(f"  {m['name']:46s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound_text:>6s}{mark}")
            print(f"    values: {' '.join(f'{v:.6g}' for v in values)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
