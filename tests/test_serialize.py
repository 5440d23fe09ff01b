import json

import numpy as np
import pytest

from sqkd import linalg
from sqkd.attacks import named_attack, random_attack
from sqkd.povm import random_povm
from sqkd.serialize import (
    attack_from_dict,
    attack_to_dict,
    parse_attack_file,
    parse_povm_file,
    povm_from_dict,
    povm_to_dict,
    report_to_dict,
    write_document,
)
from sqkd.tradeoff import verify_tradeoff
from sqkd.povm import basis_povm


def test_attack_roundtrip_bit_identical(tmp_path):
    attack = random_attack(3, 42)
    path = tmp_path / "attack.json"
    write_document(attack_to_dict(attack), path)
    loaded = parse_attack_file(path)
    assert loaded.ancilla_dim == attack.ancilla_dim
    assert np.array_equal(loaded.omega, attack.omega)
    assert np.array_equal(loaded.v, attack.v)
    assert np.array_equal(loaded.u, attack.u)


def test_attack_identity_document():
    doc = attack_to_dict(named_attack("identity"))
    attack = attack_from_dict(doc)
    assert np.array_equal(attack.v, np.eye(4))


def test_attack_document_rejects_non_unitary(tmp_path):
    doc = attack_to_dict(named_attack("identity"))
    doc["v"][0][0] = [1.1, 0.0]  # breaks unitarity by ~0.2 in M^dag M
    path = tmp_path / "bad.json"
    write_document(doc, path)
    with pytest.raises(ValueError, match="deviation"):
        parse_attack_file(path)


def scaled_attack_file(tmp_path, field, deviation):
    """An attack file whose `field` is a valid one's scaled by 1 + delta, with
    2 delta + delta^2 = deviation: the deviation of V^dag V from 1, or of
    |omega|^2 from 1, the scaling puts there."""
    delta = np.sqrt(1.0 + deviation) - 1.0
    doc = attack_to_dict(random_attack(3, 42))
    doc[field] = (np.array(doc[field]) * (1.0 + delta)).tolist()
    path = tmp_path / f"{field}.json"
    write_document(doc, path)
    return path


@pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
def test_attack_file_at_the_unitarity_tolerance(tmp_path, side):
    deviation = linalg.TOL_UNITARY * (1 + side * 1e-3)
    path = scaled_attack_file(tmp_path, "v", deviation)
    v = np.array(json.loads(path.read_text())["v"]) @ [1, 1j]
    assert abs(linalg.unitary_deviation(v) - deviation) <= 1e-14
    if side < 0:
        assert np.array_equal(parse_attack_file(path).v, v)
    else:
        with pytest.raises(ValueError, match="V is not unitary"):
            parse_attack_file(path)


@pytest.mark.parametrize("side", [-1, 1], ids=["inside", "outside"])
def test_attack_file_at_the_normalization_tolerance(tmp_path, side):
    deviation = linalg.TOL_NORM * (1 + side * 1e-3)
    path = scaled_attack_file(tmp_path, "omega", deviation)
    omega = np.array(json.loads(path.read_text())["omega"]) @ [1, 1j]
    assert abs(np.vdot(omega, omega).real - 1.0 - deviation) <= 1e-14
    if side < 0:
        assert np.array_equal(parse_attack_file(path).omega, omega)
    else:
        with pytest.raises(ValueError, match="omega is not normalized"):
            parse_attack_file(path)


def test_attack_document_missing_field():
    with pytest.raises(ValueError, match="missing"):
        attack_from_dict({"ancilla_dim": 2})


@pytest.mark.parametrize("dim", [2, 2.0])
def test_attack_document_takes_an_integral_ancilla_dim(dim):
    doc = attack_to_dict(named_attack("identity"))
    doc["ancilla_dim"] = dim
    assert type(attack_from_dict(doc).ancilla_dim) is int


def test_attack_document_bad_pairs():
    doc = attack_to_dict(named_attack("identity"))
    doc["omega"] = [1.0, 0.0]  # not [re, im] pairs
    with pytest.raises(ValueError, match="pairs"):
        attack_from_dict(doc)


def omega_of_strings() -> dict:
    doc = attack_to_dict(named_attack("identity"))
    doc["omega"] = [["a", 0]]
    return doc


@pytest.mark.parametrize("read, message", [
    (lambda path: povm_from_dict({}), "missing the 'elements' field"),
    (lambda path: parse_attack_file(path), "expected a JSON object at top level"),
    (lambda path: parse_povm_file(path), "expected a JSON object at top level"),
    (lambda path: attack_from_dict(omega_of_strings()), r"^omega: expected nested \[re, im\] pairs"),
], ids=["povm-no-elements", "attack-list", "povm-list", "omega-strings"])
def test_malformed_documents_are_rejected_naming_the_cause(tmp_path, read, message):
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        read(path)


def test_povm_roundtrip_bit_identical(tmp_path):
    eve = random_povm(3, 5, 7)
    path = tmp_path / "povm.json"
    write_document(povm_to_dict(eve), path)
    loaded = parse_povm_file(path)
    assert loaded.outcome_count == 5
    for a, b in zip(loaded.elements, eve.elements):
        assert np.array_equal(a, b)


def test_povm_document_revalidates():
    doc = {"elements": [[[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.6, 0.0]]]]}
    with pytest.raises(ValueError, match="identity"):
        povm_from_dict(doc)


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON"):
        parse_attack_file(path)


def test_write_document_is_deterministic(tmp_path):
    doc = {"b": 2.0, "a": [1.0, {"z": 0.1}]}
    first = write_document(doc, tmp_path / "one.json")
    second = write_document(doc, tmp_path / "two.json")
    assert first == second
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_report_schema_roundtrip(tmp_path):
    report = verify_tradeoff(named_attack("forward-cnot"), basis_povm(2, "z"))
    doc = report_to_dict(report)
    text = write_document(doc, tmp_path / "report.json")
    parsed = json.loads(text)
    assert parsed == doc
    assert parsed["holds"] is True


def test_report_carries_alice_marginal_and_joint():
    report = verify_tradeoff(random_attack(3, 4), random_povm(3, 5, 2))
    doc = report_to_dict(report)
    assert doc["p_a"] == report.sift.p_a.tolist()
    assert doc["joint"] == report.joint.tolist()
