"""Command-line harness: run, sweep, verify.

Exit codes: 0 success / no violation, 1 a bound violation was found,
2 input error, 3 an internal cross-check failed (two independent routes
to one quantity disagree, an ArithmeticError).  Identical (command, flags, seed) invocations produce
byte-identical output; no timestamps or machine state enter any
document.
"""

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attacks import _NAME_WITH_ARG, FAMILIES, NAMES, _check_thetas, named_attack
from .eavesdropper import OptimizerConfig, _accessible_information, _holevo
from .povm import basis_povm
from .protocol import _evaluate, _evaluate_attack, check_attacks
from .serialize import parse_attack_file, parse_povm_file, povm_to_dict, report_to_dict, write_document
from .suites import SUITE_NAMES, run_suite
from .tradeoff import _assess, _report, _verdict

SWEEP_HEADER = "family,theta,p_ctrl,p_sift,info_lower,rhs,gap,holds"
_CHUNK = 256  # most grid points of a sweep in one stack; bounds the size of the stacks
RESTARTS_HELP = ("POVM optimizer starts: the eigenbasis of p_a(0) rho_0 - p_a(1) rho_1, "
                 "the computational basis, then random POVMs seeded by --seed")


def _versions() -> dict:
    return {"sqkd": __version__, "numpy": np.__version__}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _emit(text: str, out) -> None:
    """Write a command's output to the --out file, or to stdout without one."""
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _family_theta(args, form: str, *kinds) -> list:
    """Check --family and its --param theta=<form>; returns the ":"-separated
    fields after "theta=", each converted by the matching entry of `kinds`."""
    if args.family not in FAMILIES:
        raise ValueError(f"unknown family {args.family!r}; known: {sorted(FAMILIES)}")
    key, _, value = (args.param or "").partition("=")
    fields = value.split(":") if key and value else []
    if fields and key != "theta":
        raise ValueError(f"family {args.family} has no parameter {key!r}")
    if len(fields) == len(kinds):
        try:
            return [kind(field) for kind, field in zip(kinds, fields)]
        except ValueError:
            pass
    raise ValueError(f"expected --param theta={form}, got {args.param!r}")


def _resolve_attack(args) -> tuple:
    """Exactly one attack source; returns (attack, source descriptor)."""
    if (args.attack is None) == (args.family is None):
        raise ValueError("give exactly one attack source: --attack or --family")
    if args.attack is not None:
        name = args.attack
        inline = _NAME_WITH_ARG.match(name.strip())  # NAME(arg), as named_attack parses it
        if name in NAMES or (inline and inline.group(1) in NAMES):
            return named_attack(name), name
        if Path(name).exists():
            return parse_attack_file(name), {"file": name}
        raise ValueError(f"--attack {name!r} is neither a known attack name nor an existing file")
    theta, = _family_theta(args, "value", float)
    return named_attack(args.family, theta), {"family": args.family, "theta": theta}


def _resolve_povm(source: str, ev, args):
    """One POVM per instance of an evaluation: a named basis, a file, or the optimizer's (with its results)."""
    if source in ("z", "x"):
        return [basis_povm(ev.rho_eve.shape[-1], source)] * len(ev.p_a), source, None
    if source == "optimize":
        found = _accessible_information(ev, OptimizerConfig(restarts=args.restarts, seed=args.seed))
        return [f.povm for f in found], "optimize", found
    if Path(source).exists():
        return [parse_povm_file(source)] * len(ev.p_a), {"file": source}, None
    raise ValueError(f"--povm {source!r} is not 'z', 'x', 'optimize', or an existing file")


def cmd_run(args) -> int:
    attack, attack_source = _resolve_attack(args)
    ev = _evaluate_attack(attack)
    povms, povm_source, found = _resolve_povm(args.povm, ev, args)
    report = _report(ev, povms[0])
    doc = {
        "command": "run",
        "versions": _versions(),
        "seed": args.seed,
        "attack_source": attack_source,
        "povm_source": povm_source,
        "ancilla_dim": attack.ancilla_dim,
        "povm": povm_to_dict(povms[0]),
        "report": report_to_dict(report),
    }
    if found is not None:
        doc["optimizer"] = {
            "stop_reasons": found[0].stop_reasons,
            "restart_values": [float(v) for v in found[0].restart_values],
            # the optimizer's information and the Holevo ceiling above it
            "info_interval": [found[0].info, float(_holevo(ev)[0])],
        }
    _emit(write_document(doc), args.out)
    return 0 if report.holds else 1


def cmd_sweep(args) -> int:
    start, stop, count = _family_theta(args, "start:stop:count", float, float, int)
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    if not np.isfinite([start, stop]).all():  # name the end, not the NaN linspace would make of it
        _check_thetas([start, stop])
    grid = _check_thetas(np.linspace(start, stop, count))  # the whole grid, before any point is evaluated
    rows, holds = [], True
    for first in range(0, count, _CHUNK):
        thetas = grid[first:first + _CHUNK]
        stack = FAMILIES[args.family](thetas)
        check_attacks(stack[0].shape[-1], *stack)
        ev = _evaluate(*stack)
        _, info, rhs = _assess(ev, np.stack([p.elements for p in _resolve_povm(args.povm, ev, args)[0]]))
        gap, ok = _verdict(info, rhs)
        holds = holds and bool(ok.all())
        rows += [",".join([args.family, *map(_fmt, row[:-1]), "true" if row[-1] else "false"])
                 for row in zip(thetas, ev.p_ctrl, ev.p_sift, info, rhs, gap, ok)]
    _emit(SWEEP_HEADER + "\n" + "\n".join(rows) + "\n", args.out)
    return 0 if holds else 1


def cmd_verify(args) -> int:
    result = run_suite(args.suite, args.trials, args.seed)
    fields = {k: v for k, v in dataclasses.asdict(result).items() if v is not None}
    sys.stdout.write(" ".join(f"{k}={v}" for k, v in fields.items()) + "\n")
    if args.out is not None:
        write_document({"command": "verify", "versions": _versions(), **fields}, args.out)
    return 0 if result.passed else 1


@functools.cache  # main parses every call with this one parser; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkd",
        description="Simulate and verify the one-qubit semiquantum key-distribution "
                    "protocol: disturbance observables, Eve's information, and the "
                    "information-disturbance trade-off bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="root seed for anything random")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p_run = sub.add_parser("run", help="evaluate one attack/POVM pair and emit a report")
    p_run.add_argument("--attack", help="attack name or attack JSON file")
    p_run.add_argument("--family", help="attack family name (with --param name=value)")
    p_run.add_argument("--param", help="family parameter, e.g. theta=0.3")
    p_run.add_argument("--povm", default="z", help="'z', 'x', 'optimize', or a POVM JSON file")
    p_run.add_argument("--restarts", type=int, default=32, help=RESTARTS_HELP)
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep a family parameter grid to CSV")
    p_sweep.add_argument("--family", required=True, help="attack family name")
    p_sweep.add_argument("--param", required=True, help="grid, e.g. theta=0:1.5707963:100")
    p_sweep.add_argument("--povm", default="z", help="'z', 'x', 'optimize', or a POVM JSON file")
    p_sweep.add_argument("--restarts", type=int, default=8, help=RESTARTS_HELP)
    common(p_sweep)

    p_verify = sub.add_parser("verify", help="run a seeded randomized verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--trials", type=int, default=1000, help="number of random instances")
    common(p_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "verify": cmd_verify}
    try:
        if args.seed < 0:  # every subcommand has --seed
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "restarts", 1) < 1:  # run and sweep
            raise ValueError(f"--restarts must be >= 1, got {args.restarts}")
        if getattr(args, "trials", 1) < 1:  # verify
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a fault of sqkd, not of the input, and not a violation either
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
