"""JSON round-trip formats for attacks, POVMs, and reports.

Complex numbers are [re, im] pairs; matrices are row-major nested
lists.  Floats go through Python's shortest round-trip repr, so parsing
a document back reproduces the binary64 values bit for bit.

Attack documents, with ancilla_dim an integral number:
    {"ancilla_dim": d, "omega": [[re, im], ...],
     "v": [[[re, im], ...], ...], "u": [[[re, im], ...], ...]}

POVM documents:
    {"elements": [[[[re, im], ...], ...], ...]}
"""

import json

import numpy as np

from .povm import Povm
from .protocol import AttackModel


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] pairs of a complex array."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_pairs(value, name: str, ndim: int) -> np.ndarray:
    """The complex array of `ndim` axes that `value` holds as nested [re, im] pairs;
    ValueError naming the field `name` if it holds anything else."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: expected nested [re, im] pairs ({exc})") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(f"{name}: expected {ndim}-axis nested lists of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def attack_to_dict(attack: AttackModel) -> dict:
    return {
        "ancilla_dim": attack.ancilla_dim,
        "omega": _to_pairs(attack.omega),
        "v": _to_pairs(attack.v),
        "u": _to_pairs(attack.u),
    }


def attack_from_dict(doc: dict) -> AttackModel:
    for key in ("ancilla_dim", "omega", "v", "u"):
        if key not in doc:
            raise ValueError(f"attack document is missing the {key!r} field")
    d = doc["ancilla_dim"]
    if not (type(d) is int or (type(d) is float and d.is_integer())):  # so true, NaN and inf fail
        raise ValueError(f"ancilla_dim must be an integer, got {d!r}")
    return AttackModel(
        ancilla_dim=int(d),
        omega=_from_pairs(doc["omega"], "omega", 1),
        v=_from_pairs(doc["v"], "v", 2),
        u=_from_pairs(doc["u"], "u", 2),
    )


def povm_to_dict(eve_povm: Povm) -> dict:
    return {"elements": _to_pairs(eve_povm.elements)}


def povm_from_dict(doc: dict) -> Povm:
    if "elements" not in doc:
        raise ValueError("POVM document is missing the 'elements' field")
    return Povm(_from_pairs(doc["elements"], "elements", 3))


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return doc


def parse_attack_file(path) -> AttackModel:
    """Load and validate an attack document; non-unitary matrices are
    rejected with the offending deviation in the message."""
    return attack_from_dict(_load_json(path))


def parse_povm_file(path) -> Povm:
    return povm_from_dict(_load_json(path))


def write_document(doc: dict, path=None) -> str:
    """Serialize deterministically (sorted keys); write to path if given."""
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def report_to_dict(report) -> dict:
    """The "report" section of a run document: both sides of the bound,
    Alice's outcome distribution p_a, the joint table and the derivation trace."""
    trace = report.trace
    return {
        "p_ctrl": report.p_ctrl,
        "p_sift": report.p_sift,
        "p_a": report.sift.p_a.tolist(),
        "joint": report.joint.tolist(),
        "info": report.info,
        "rhs": report.rhs,
        "gap": report.gap,
        "holds": report.holds,
        "trace": {
            "lhs_overlap": trace.lhs_overlap,
            "fidelity_sum": trace.fidelity_sum,
            "p0": trace.p0.tolist(),
            "p0_marginal": trace.p0_marginal.tolist(),
            "step_slacks": {k: float(v) for k, v in trace.step_slacks.items()},
        },
    }

