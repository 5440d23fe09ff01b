import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sqkd import linalg, protocol
from sqkd.attacks import FAMILIES, named_attack, random_attack
from sqkd.cli import SWEEP_HEADER, _fmt, build_parser, main
from sqkd.eavesdropper import OptimizerConfig, accessible_information
from sqkd.povm import basis_povm, random_povm
from sqkd.serialize import (
    attack_to_dict,
    povm_from_dict,
    povm_to_dict,
    report_to_dict,
    write_document,
)
from sqkd.suites import SUITE_NAMES, SuiteResult
from sqkd.tradeoff import verify_tradeoff


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, **kwargs):
    """Run a child interpreter that imports sqkd from this checkout's src,
    which pytest's pythonpath setting does not pass on to child processes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def record_evaluations(monkeypatch) -> list:
    """The stack size of every kernel evaluation, in order, also of those
    through the `_evaluate` that cli imported by name."""
    from sqkd import cli

    stacks = []
    evaluate = protocol._evaluate
    counted = lambda *a: stacks.append(len(a[0])) or evaluate(*a)
    monkeypatch.setattr(protocol, "_evaluate", counted)
    monkeypatch.setattr(cli, "_evaluate", counted)
    return stacks


def roundtrip(report) -> dict:
    """The report section of a document, as the reader of its JSON sees it."""
    return json.loads(write_document(report_to_dict(report)))


def test_run_named_attack_stdout(capsys):
    code, out, _ = run_cli(capsys, "run", "--attack", "forward-cnot", "--povm", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == roundtrip(verify_tradeoff(named_attack("forward-cnot"), basis_povm(2, "z")))
    assert abs(doc["report"]["info"] - 1.0) <= 1e-9
    assert doc["report"]["holds"] is True
    assert doc["versions"]["sqkd"]
    assert set(doc["versions"]) == {"sqkd", "numpy"}  # a run uses no scipy


def test_run_family_attack(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "run", "--family", "partial-return-cz", "--param", "theta=0.7",
        "--povm", "x", "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    expected = verify_tradeoff(named_attack("partial-return-cz", 0.7), basis_povm(2, "x"))
    assert doc["report"] == roundtrip(expected)
    assert doc["attack_source"] == {"family": "partial-return-cz", "theta": 0.7}


def test_run_attack_file_roundtrip(capsys, tmp_path):
    attack = random_attack(2, 99)
    attack_path = tmp_path / "attack.json"
    write_document(attack_to_dict(attack), attack_path)
    code, out, _ = run_cli(capsys, "run", "--attack", str(attack_path), "--povm", "z")
    assert code == 0
    doc = json.loads(out)
    assert doc["attack_source"] == {"file": str(attack_path)}
    # emitted POVM parses back bit-identically
    povm_from_dict(doc["povm"]).validate()


@pytest.mark.parametrize("povm", ["z", "optimize"])
def test_run_accepts_a_bit_flip_attack_whose_sift_sum_rounds_above_one(capsys, tmp_path, povm):
    x = np.array([[0, 1], [1, 0]])
    attack = protocol.AttackModel(1, [1.0], linalg.haar_unitary(2, 40), x)
    attack_path = tmp_path / "attack.json"
    write_document(attack_to_dict(attack), attack_path)
    code, out, err = run_cli(capsys, "run", "--attack", str(attack_path), "--povm", povm)
    assert code == 0, err
    assert json.loads(out)["report"]["p_sift"] == 1.0


def test_run_rejects_two_attack_sources(capsys):
    code, _, err = run_cli(
        capsys, "run", "--attack", "identity", "--family", "partial-return-cz",
        "--param", "theta=0.1",
    )
    assert code == 2
    assert "exactly one" in err


def test_run_rejects_unknown_attack(capsys):
    code, _, err = run_cli(capsys, "run", "--attack", "no-such-thing")
    assert code == 2
    assert "neither" in err


def test_an_attack_file_named_like_an_inline_attack_is_read_as_a_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("partial-return-cz(0.7).json", "identity(copy).json"):
        write_document(attack_to_dict(random_attack(2, 3)), tmp_path / name)
        code, out, _ = run_cli(capsys, "run", "--attack", name, "--povm", "z")
        assert code == 0
        assert json.loads(out)["attack_source"] == {"file": name}
    code, out, _ = run_cli(capsys, "run", "--attack", "partial-return-cz(0.7)", "--povm", "z")
    assert code == 0
    assert json.loads(out)["attack_source"] == "partial-return-cz(0.7)"
    (tmp_path / "identity(copy).json").unlink()
    code, _, err = run_cli(capsys, "run", "--attack", "identity(copy).json")
    assert code == 2
    assert "neither a known attack name nor an existing file" in err


def test_run_rejects_corrupt_attack_file(capsys, tmp_path):
    from sqkd.attacks import named_attack

    doc = attack_to_dict(named_attack("identity"))
    doc["v"][0] = doc["v"][1]  # duplicate row: deviation 1 from unitarity
    path = tmp_path / "bad.json"
    write_document(doc, path)
    code, _, err = run_cli(capsys, "run", "--attack", str(path))
    assert code == 2
    assert "deviation" in err


def test_run_rejects_nan_attack_file(capsys, tmp_path, recwarn):
    from sqkd.attacks import named_attack

    doc = attack_to_dict(named_attack("identity"))
    doc["v"][1][2] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, _, err = run_cli(capsys, "run", "--attack", str(path))
    assert code == 2
    assert "V is not unitary" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


MALFORMED = [("attack", raw) for raw in ("null", "[2]", "1e400", "2.7", '"2"', "true", "NaN", "-Infinity")]


@pytest.mark.parametrize("kind, raw", MALFORMED + [("povm", "null"), ("povm", "5")])
def test_run_rejects_malformed_documents_with_exit_two(capsys, tmp_path, kind, raw):
    # a wrongly typed field is an input error (exit 2), not a traceback with exit 1
    path = tmp_path / f"{kind}.json"
    if kind == "attack":
        text = json.dumps(attack_to_dict(named_attack("identity"))).replace('"ancilla_dim": 2', f'"ancilla_dim": {raw}')
        argv, field = ["--attack", str(path)], "ancilla_dim"
    else:
        text, argv, field = f'{{"elements": {raw}}}', ["--attack", "identity", "--povm", str(path)], "elements"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, error", [
    (["run", "--family", "nope", "--param", "theta=0.1"], "unknown family 'nope'"),
    (["sweep", "--family", "nope", "--param", "theta=0:1:3"], "unknown family 'nope'"),
    (["run", "--family", "partial-return-cz", "--param", "phi=0.1"],
     "family partial-return-cz has no parameter 'phi'"),
    (["run", "--attack", "identity", "--povm", "nope"], "--povm 'nope' is not 'z', 'x', 'optimize', or an existing file"),
    (["sweep", "--family", "partial-return-cz", "--param", "theta=0:1:0"], "grid count must be >= 1, got 0"),
], ids=["run-family", "sweep-family", "param-name", "povm-source", "grid-count"])
def test_bad_arguments_exit_two_naming_the_cause(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theorem", "--trials", "5"],
    ["verify", "--suite", "proof-chain", "--trials", "5"],
    ["run", "--attack", "forward-cnot"],
    ["sweep", "--family", "partial-return-cz", "--param", "theta=0:1:3"],
], ids=["verify-theorem", "verify-proof-chain", "run", "sweep"])
def test_a_failed_cross_check_exits_three_naming_the_routes(capsys, monkeypatch, argv):
    # two routes to P_SIFT that disagree are a fault of sqkd: neither a violation (1) nor an input error (2)
    operator_route = protocol._sift_error_operator
    monkeypatch.setattr(protocol, "_sift_error_operator", lambda psi, u: operator_route(psi, u) + 1e-9)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: P_SIFT routes disagree: defining sum ") and err.count("\n") == 1
    assert "vs operator form " in err


def test_a_failed_joint_table_cross_check_exits_three(capsys, monkeypatch):
    evaluate = protocol._evaluate

    def perturbed(*stacks):
        ev = evaluate(*stacks)
        return dataclasses.replace(ev, rho_eve=ev.rho_eve + 1e-9 * np.eye(ev.rho_eve.shape[-1]))

    monkeypatch.setattr(protocol, "_evaluate", perturbed)
    code, out, err = run_cli(capsys, "run", "--attack", "forward-cnot", "--povm", "z")
    assert (code, out) == (3, "")
    assert err.startswith("error: joint-distribution routes disagree at (z=0, e=0): ")


def test_run_rejects_a_near_unitary_attack_naming_the_failed_clamp(capsys, tmp_path):
    # U = (1 + 4e-11) X passes the 1e-10 unitarity check but pushes P(z_B|z) past 1 + 1e-12
    x = np.array([[0, 1], [1, 0]])
    attack = protocol.AttackModel(1, [1.0], linalg.haar_unitary(2, 3), (1 + 4e-11) * x)
    path = tmp_path / "flip.json"
    write_document(attack_to_dict(attack), path)
    code, out, err = run_cli(capsys, "run", "--attack", str(path), "--povm", "z")
    assert (code, out) == (2, "")
    assert err.startswith("error: P(z_B|z) 1.00000000008 is not a probability")
    assert "8.000e-11 for U" in err


def test_run_optimize_evaluates_the_attack_once(capsys, monkeypatch):
    calls = []
    evaluate = protocol._evaluate
    monkeypatch.setattr(protocol, "_evaluate", lambda *a: calls.append(1) or evaluate(*a))
    code, _, _ = run_cli(capsys, "run", "--attack", "forward-cnot", "--povm", "optimize", "--restarts", "2")
    assert code == 0
    assert len(calls) == 1


def test_run_with_optimized_povm(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--attack", "forward-cnot", "--povm", "optimize",
        "--restarts", "2", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["info"] >= 1.0 - 1e-6
    optimizer = doc["optimizer"]
    assert len(optimizer["restart_values"]) == len(optimizer["stop_reasons"]) == 2
    assert set(optimizer["stop_reasons"]) <= {"flat", "step", "iterations"}


def test_sweep_header_and_grid(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--family", "partial-forward-cnot",
        "--param", "theta=0:1.5707963267948966:20", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "family,theta,p_ctrl,p_sift,info_lower,rhs,gap,holds"
    assert len(lines) == 21
    p_ctrl = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b - a >= -1e-9 for a, b in zip(p_ctrl, p_ctrl[1:]))
    assert all(line.endswith(",true") for line in lines[1:])


def expected_sweep_rows(family, thetas, povm_for):
    """The CSV rows of a sweep, one verify_tradeoff per grid point."""
    rows = []
    for theta in thetas:
        attack = named_attack(family, float(theta))
        rep = verify_tradeoff(attack, povm_for(attack))
        cells = [family, *map(_fmt, (theta, rep.p_ctrl, rep.p_sift, rep.info, rep.rhs, rep.gap))]
        rows.append(",".join([*cells, "true" if rep.holds else "false"]))
    return rows


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("povm, count", [("z", 600), ("x", 40), ("file", 40), ("optimize", 5)])
def test_sweep_rows_match_verify_tradeoff(capsys, tmp_path, family, povm, count):
    # 600 points span three chunks of the stacked evaluation
    argv = ["sweep", "--family", family, "--param", f"theta=0:1.5707963:{count}", "--seed", "3"]
    if povm == "file":
        fixed = random_povm(2, 3, 11)
        write_document(povm_to_dict(fixed), tmp_path / "povm.json")
        argv += ["--povm", str(tmp_path / "povm.json")]
        povm_for = lambda attack: fixed
    elif povm == "optimize":
        argv += ["--povm", "optimize", "--restarts", "2"]
        povm_for = lambda attack: accessible_information(attack, OptimizerConfig(restarts=2, seed=3)).povm
    else:
        argv += ["--povm", povm]
        povm_for = lambda attack: basis_povm(2, povm)
    code, out, _ = run_cli(capsys, *argv)
    lines = out.split("\n")
    assert lines[0] == SWEEP_HEADER and lines[-1] == ""
    assert lines[1:-1] == expected_sweep_rows(family, np.linspace(0.0, 1.5707963, count), povm_for)
    assert code == 0


def test_sweep_resolves_a_file_povm_once_per_chunk_without_a_report_per_point(capsys, tmp_path, monkeypatch):
    from sqkd import cli

    write_document(povm_to_dict(random_povm(2, 2, 5)), tmp_path / "povm.json")
    parses, reports = [], []
    parse, report = cli.parse_povm_file, cli._report
    monkeypatch.setattr(cli, "parse_povm_file", lambda path: parses.append(path) or parse(path))
    monkeypatch.setattr(cli, "_report", lambda *a: reports.append(a) or report(*a))
    code, out, _ = run_cli(capsys, "sweep", "--family", "partial-return-cz", "--param", "theta=0:1.5:300",
                           "--povm", str(tmp_path / "povm.json"))
    assert code == 0
    assert len(out.strip().split("\n")) == 301
    assert len(parses) == 2  # chunks of 256 and 44 points
    assert reports == []


def test_sweep_validates_each_chunk_once(capsys, monkeypatch):
    from sqkd import cli

    chunks, validations = [], []
    check, validate = protocol.check_attacks, protocol.AttackModel.validate
    counted = lambda d, omega, v, u: chunks.append(len(omega)) or check(d, omega, v, u)
    monkeypatch.setattr(protocol, "check_attacks", counted)
    monkeypatch.setattr(cli, "check_attacks", counted)
    monkeypatch.setattr(protocol.AttackModel, "validate", lambda self: validations.append(1) or validate(self))
    code, out, _ = run_cli(capsys, "sweep", "--family", "partial-return-cz", "--param", "theta=0:1.5:600")
    assert code == 0
    assert len(out.strip().split("\n")) == 601
    assert chunks == [256, 256, 88]
    assert validations == []


def test_sweep_optimize_solves_on_the_chunk_evaluation(capsys, monkeypatch):
    stacks = record_evaluations(monkeypatch)
    argv = ["sweep", "--family", "partial-return-cz", "--povm", "optimize", "--restarts", "3"]
    code, out, _ = run_cli(capsys, *argv, "--param", "theta=0:1.5707963:9")
    assert code == 0
    assert stacks == [9]
    # a point swept alone is evaluated on its own, and its row must not change
    rows = []
    for theta in map(float, np.linspace(0.0, 1.5707963, 9)):
        _, alone, _ = run_cli(capsys, *argv, "--param", f"theta={theta!r}:{theta!r}:1")
        rows.append(alone.split("\n")[1])
    assert out == "\n".join([SWEEP_HEADER, *rows]) + "\n"


def test_sweep_optimize_runs_one_ascent_per_chunk(capsys, monkeypatch):
    from sqkd import eavesdropper

    stacks, starts = record_evaluations(monkeypatch), []
    ascend = eavesdropper._ascend
    monkeypatch.setattr(eavesdropper, "_ascend", lambda tau, v: starts.append(len(v)) or ascend(tau, v))
    argv = ["sweep", "--family", "partial-forward-cnot", "--povm", "optimize", "--restarts", "2"]
    code, out, _ = run_cli(capsys, *argv, "--param", "theta=0:1.5707963:300")
    assert code == 0
    assert stacks == [256, 44]
    assert starts == [512, 88]
    rows = out.split("\n")[1:-1]
    for n in (0, 255, 256, 299):
        theta = float(np.linspace(0.0, 1.5707963, 300)[n])
        _, alone, _ = run_cli(capsys, *argv, "--param", f"theta={theta!r}:{theta!r}:1")
        assert alone.split("\n")[1] == rows[n]


@pytest.mark.parametrize("grid, theta", [("0:3:7", "2.0"), ("1.5:1.6:600", "1.5709515859766279"), ("nan:1:3", "nan")])
def test_sweep_names_the_first_theta_outside_the_range(capsys, grid, theta):
    # 1.5:1.6:600 leaves the range at point 425, in the second chunk
    code, out, err = run_cli(capsys, "sweep", "--family", "partial-forward-cnot", "--param", f"theta={grid}")
    assert (code, out, err) == (2, "", f"error: theta {theta} outside [0, pi/2]\n")


def test_sweep_checks_the_whole_grid_before_the_first_chunk(capsys, monkeypatch):
    from sqkd import cli, eavesdropper

    calls = []
    monkeypatch.setattr(protocol, "_evaluate", lambda *a: calls.append("evaluate"))
    monkeypatch.setattr(cli, "_evaluate", lambda *a: calls.append("evaluate"))
    monkeypatch.setattr(eavesdropper, "_ascend", lambda *a: calls.append("ascend"))
    # 0:3:700 leaves the range at point 366, in the second chunk
    code, out, err = run_cli(capsys, "sweep", "--family", "partial-return-cz", "--param", "theta=0:3:700",
                             "--povm", "optimize")
    assert (code, out, err) == (2, "", "error: theta 1.5708154506437768 outside [0, pi/2]\n")
    assert calls == []


@pytest.mark.parametrize("grid, theta", [("0:inf:3", "inf"), ("-inf:1:3", "-inf"), ("2:inf:3", "2.0")])
def test_sweep_names_a_non_finite_grid_end_before_any_evaluation(capsys, monkeypatch, grid, theta):
    stacks = record_evaluations(monkeypatch)
    code, out, err = run_cli(capsys, "sweep", "--family", "partial-return-cz", "--param", f"theta={grid}")
    assert (code, out, err) == (2, "", f"error: theta {theta} outside [0, pi/2]\n")
    assert stacks == []


def test_sweep_exit_one_when_the_bound_fails(capsys, monkeypatch):
    from sqkd import tradeoff

    monkeypatch.setattr(tradeoff, "tradeoff_bound", lambda p_ctrl, p_sift: np.zeros(np.shape(p_ctrl)))
    code, out, _ = run_cli(capsys, "sweep", "--family", "partial-forward-cnot",
                           "--param", "theta=0:1.5707963:7")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 7
    informative = [row for row in rows if float(row[4]) > 0.0]
    assert len(informative) == 6
    assert all(row[7] == "false" for row in informative)
    assert code == 1


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--family", "partial-forward-cnot", "--param", "theta=0:1",
    )
    assert code == 2
    assert "start:stop:count" in err


def test_sweep_help_example_runs(capsys):
    with pytest.raises(SystemExit, match="0"):
        main(["sweep", "--help"])
    grid = re.search(r"theta=[0-9.]+:[0-9.]+:[0-9]+", capsys.readouterr().out).group(0)
    code, out, _ = run_cli(capsys, "sweep", "--family", "partial-return-cz",
                           "--param", grid.rsplit(":", 1)[0] + ":3")
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def readme_block(heading: str) -> str:
    """The first fenced block of README.md after the line `heading`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n{heading}\n", 1)[1].split("```", 2)[1]


def test_every_readme_command_line_runs(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_document(attack_to_dict(random_attack(2, 0)), tmp_path / "my_attack.json")
    lines = [line for line in readme_block("## Command line").splitlines() if line.startswith("sqkd ")]
    assert len(lines) == 5
    for line in lines:
        code, _, err = run_cli(capsys, *line.split()[1:])
        assert (code, err) == (0, ""), line


def test_the_readme_library_tour_runs_and_shows_what_it_computes():
    lines = readme_block("## Library tour").removeprefix("python").splitlines()
    namespace = {}
    exec("\n".join(lines), namespace)
    k = next(i for i, line in enumerate(lines) if line.startswith("# approximately ("))
    shown = lines[k].removeprefix("# approximately (").removesuffix(")").split(", ")
    for value, text in zip(eval(lines[k - 1], namespace), shown, strict=True):
        if text in ("True", "False"):
            assert value is (text == "True")
        elif text.endswith("..."):
            assert str(value).startswith(text.removesuffix("...")), text
        else:
            assert abs(value - float(text)) <= 1e-12, text


def test_theta_routes_agree(capsys, tmp_path):
    edge = "1.5707963267949"  # pi/2 + 3.4e-15, inside the 1e-12 slack
    docs = []
    for argv in (["--attack", f"partial-return-cz({edge})"],
                 ["--family", "partial-return-cz", "--param", f"theta={edge}"]):
        out_path = tmp_path / "report.json"
        assert run_cli(capsys, "run", *argv, "--out", str(out_path))[0] == 0
        doc = json.loads(out_path.read_text())
        doc.pop("attack_source")
        docs.append(write_document(doc))
    assert docs[0] == docs[1]
    for argv in (["--attack", "partial-return-cz(1.6)"],
                 ["--family", "partial-return-cz", "--param", "theta=1.6"]):
        code, _, err = run_cli(capsys, "run", *argv)
        assert code == 2
        assert "theta 1.6 outside" in err


def test_run_attack_file_is_validated_once(capsys, tmp_path, monkeypatch):
    attack_path = tmp_path / "attack.json"
    write_document(attack_to_dict(random_attack(3, 4)), attack_path)
    calls = []
    validate = protocol.AttackModel.validate
    monkeypatch.setattr(protocol.AttackModel, "validate", lambda self: calls.append(1) or validate(self))
    assert run_cli(capsys, "run", "--attack", str(attack_path))[0] == 0
    assert len(calls) == 1


def test_verify_exit_zero_and_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--trials", "200", "--seed", "11")
    assert code == 0
    assert out.startswith("suite=lemma1 trials=200 seed=11 violations=0")


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_line_lists_the_document_fields(capsys, tmp_path, suite):
    out_path = tmp_path / "verify.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--trials", "20", "--seed", "3",
                           "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    names = [f.name for f in dataclasses.fields(SuiteResult) if f.name in doc]
    assert set(doc) - set(names) == {"command", "versions"}
    assert out == " ".join(f"{k}={doc[k]}" for k in names) + "\n"


def test_verify_deterministic_output(capsys, tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    _, out_a, _ = run_cli(capsys, "verify", "--suite", "proof-chain", "--trials", "40",
                          "--seed", "5", "--out", str(a_path))
    _, out_b, _ = run_cli(capsys, "verify", "--suite", "proof-chain", "--trials", "40",
                          "--seed", "5", "--out", str(b_path))
    assert out_a == out_b
    assert a_path.read_bytes() == b_path.read_bytes()


@pytest.mark.parametrize("suite", ["theorem", "proof-chain", "lemma2"])
def test_verify_is_the_same_when_every_positivity_check_takes_the_eigenvalue_route(capsys, tmp_path, monkeypatch, suite):
    argv = ["verify", "--suite", suite, "--trials", "1100", "--seed", "7", "--out"]
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "certified.json"))

    def refuse(a, *args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: calls.append(1) or eigvalsh(a, *args, **kw))
    assert run_cli(capsys, *argv, str(tmp_path / "eigenvalues.json")) == (code, out, err)
    assert calls
    assert (tmp_path / "certified.json").read_bytes() == (tmp_path / "eigenvalues.json").read_bytes()
    assert code == 0


def test_verify_exit_one_on_violation(capsys, monkeypatch):
    # the suites themselves never fail honestly; force the counting path
    from sqkd import cli
    from sqkd.suites import SuiteResult

    fake = SuiteResult(suite="theorem", trials=5, seed=0, violations=2,
                       min_slack=-1e-3, worst_trial=3)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem", "--trials", "5")
    assert code == 1
    assert "violations=2" in out


def test_run_optimize_byte_identical_reports(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "run", "--attack", "return-cz", "--povm", "optimize",
            "--restarts", "2", "--seed", "4", "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_module_entry_point():
    proc = run_python("-m", "sqkd.cli", "verify", "--suite", "lemma2", "--trials", "25", "--seed", "1")
    assert proc.returncode == 0
    assert "violations=0" in proc.stdout


def test_cli_import_loads_no_scipy_submodules():
    code = "import sys, sqkd.cli; print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    proc = run_python("-c", code, check=True)
    assert proc.stdout.strip() == "[]"


def test_the_subcommands_are_run_sweep_and_verify(capsys):
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["run", "sweep", "verify"]
    with pytest.raises(SystemExit, match="2"):
        main(["optimize"])
    assert "invalid choice: 'optimize'" in capsys.readouterr().err


def test_every_command_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from sqkd.cli import main\n"
        "for argv in (['run', '--attack', 'return-cz', '--povm', 'optimize', '--restarts', '2'],\n"
        "             ['sweep', '--family', 'partial-return-cz', '--param', 'theta=0:1:5', '--povm', 'optimize',\n"
        "              '--restarts', '2'],\n"
        "             ['verify', '--suite', 'proof-chain', '--trials', '50']):\n"
        "    print(main(argv), file=sys.stderr)\n"
    )
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "0\n0\n0\n")


def test_unknown_suite_rejected():
    proc = run_python("-m", "sqkd.cli", "verify", "--suite", "nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["run", "--attack", "forward-cnot", "--povm", "optimize", "--seed", "-1"],
    ["sweep", "--family", "partial-return-cz", "--param", "theta=0:1:3", "--povm", "optimize", "--seed", "-2"],
    ["verify", "--suite", "lemma2", "--seed", "-1"],
])
def test_negative_seed_is_rejected_before_any_evaluation(capsys, monkeypatch, argv):
    calls = record_evaluations(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --seed must be >= 0, got {argv[-1]}\n"
    assert calls == []


@pytest.mark.parametrize("argv, flag", [
    (["run", "--attack", "forward-cnot", "--povm", "z", "--restarts", "-3"], "--restarts"),
    (["run", "--attack", "forward-cnot", "--povm", "optimize", "--restarts", "0"], "--restarts"),
    (["sweep", "--family", "partial-return-cz", "--param", "theta=0:1:3", "--povm", "optimize",
      "--restarts", "0"], "--restarts"),
    (["verify", "--suite", "lemma2", "--trials", "-1"], "--trials"),
])
def test_counts_below_one_are_rejected_by_flag_before_any_evaluation(capsys, monkeypatch, argv, flag):
    calls = record_evaluations(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be >= 1, got {argv[-1]}\n"
    assert calls == []


def test_non_numeric_inline_theta_names_the_attack(capsys):
    code, out, err = run_cli(capsys, "run", "--attack", "partial-return-cz(abc)")
    assert (code, out) == (2, "")
    assert err == "error: attack 'partial-return-cz' needs a numeric theta, got 'abc'\n"


@pytest.mark.parametrize("command, param, form", [
    ("run", "theta=0.3:1:3", "value"),
    ("sweep", "theta=0:a:3", "start:stop:count"),
    ("sweep", "theta=0:1:2.5", "start:stop:count"),
])
def test_malformed_param_names_the_flag_and_the_form(capsys, command, param, form):
    code, _, err = run_cli(capsys, command, "--family", "partial-return-cz", "--param", param)
    assert code == 2
    assert err == f"error: expected --param theta={form}, got {param!r}\n"


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    run_cli(capsys, "run", "--attack", "identity")
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    sweep = ["sweep", "--family", "partial-forward-cnot", "--param", "theta=0:1:4"]
    for argv in [
        ["run", "--attack", "identity"],
        ["run", "--attack", "forward-cnot", "--povm", "x"],
        ["run", "--family", "partial-return-cz", "--param", "theta=0.7"],
        sweep,
        [*sweep, "--povm", "x"],
        ["verify", "--suite", "lemma2", "--trials", "20"],
        ["verify", "--suite", "lemma1", "--trials", "20", "--seed", "3"],
        ["run", "--attack", "no-such-thing"],
        ["run", "--attack", "identity", "--seed", "-1"],
    ]:
        assert run_cli(capsys, *argv)[0] in (0, 2)
    with pytest.raises(SystemExit, match="2"):
        main(["run", "--bogus"])
    assert built == []


def test_a_shared_parser_carries_nothing_between_calls(capsys):
    assert run_cli(capsys, "run", "--attack", "identity", "--povm", "optimize", "--restarts", "3", "--seed", "5")[0] == 0
    with pytest.raises(SystemExit, match="2"):
        main(["run", "--bogus"])
    assert run_cli(capsys, "run")[0] == 2
    for argv in (  # their --restarts defaults differ: 8 for sweep, 32 for run
        ["sweep", "--family", "partial-return-cz", "--param", "theta=0:1.5:5", "--povm", "optimize"],
        ["run", "--attack", "forward-cnot", "--povm", "optimize"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        fresh = run_python("-m", "sqkd.cli", *argv)
        assert (code, out) == (fresh.returncode, fresh.stdout)
