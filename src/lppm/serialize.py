"""Canonical JSON persistence for models and synthesis results.

Floats are printed as %.17g text, which reads back to the same double, so
save-load-save is byte-identical and two runs that compute the same numbers
produce the same file. Key order is fixed by the writers below and
documented in docs/schemas.md.

A model file (schema 2) stores one transition row per available
(state, action) pair, the form `Mdp.rows` holds in memory. Files without a
schema key are version 1, which stores the dense
(n_actions, n_states, n_states) tensor; they still load, and their
unavailable rows must be the self-loop completion rows.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .floattext import format_rows
from .mdp import CONSTRUCTION_ATOL, ActionMeta, Mdp, StateMeta, _pair_index
from .synthesis import Certificate, SynthesisResult

MDP_SCHEMA = 2


# stands for a float scalar until the document's scalars are formatted in one
# call; canonical JSON text has no NUL, because json.dumps escapes it
_SCALAR = "\0"


def _non_finite(x: float):
    return ValueError(f"non-finite value {x!r} cannot be serialized")


def _array_text(a: np.ndarray) -> str:
    """Nested JSON lists of a float array with no -0.0."""
    if a.ndim == 1:
        return f"[{next(format_rows(a[None], ', '))}]"
    if a.ndim == 2:
        return "[" + ", ".join(f"[{row}]" for row in format_rows(a, ", ")) + "]"
    return "[" + ", ".join(_array_text(sub) for sub in a) + "]"


def _dumps(obj, indent: int, scalars: list) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad} {json.dumps(str(k))}: {_dumps(v, indent + 1, scalars)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dumps(v, indent, scalars) for v in obj) + "]"
    if isinstance(obj, np.ndarray) and obj.ndim > 0:
        finite = np.isfinite(obj)
        if not finite.all():
            raise _non_finite(float(obj.flat[np.argmin(finite)]))
        return _array_text(obj + 0.0)  # + 0.0 turns -0.0 into 0.0
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise _non_finite(float(obj))
        scalars.append(float(obj) + 0.0)
        return _SCALAR
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON text; dict keys in insertion order.

    Every float, in an array or not, is its `'%.17g'` text from
    `floattext.format_rows`, with -0.0 written as 0; nan and inf raise
    ValueError.
    """
    scalars = []
    pieces = _dumps(obj, indent, scalars).split(_SCALAR)
    texts = format_rows(np.array(scalars).reshape(-1, 1))
    return pieces[0] + "".join(t + p for t, p in zip(texts, pieces[1:]))


def _nested(array) -> np.ndarray:
    return np.asarray(array, dtype=float)


def mdp_to_dict(mdp: Mdp) -> dict:
    doc = {
        "schema": MDP_SCHEMA,
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "available": [list(acts) for acts in mdp.available],
        "rows": _nested(mdp.rows),
        "p0": _nested(mdp.p0),
        "utility": _nested(mdp.utility),
        "state_meta": None,
        "action_meta": None,
    }
    if mdp.state_meta is not None:
        doc["state_meta"] = [{"label": s.label, "lat": s.lat, "lon": s.lon,
                              "area_m2": s.area_m2} for s in mdp.state_meta]
    if mdp.action_meta is not None:
        doc["action_meta"] = [{"label": a.label, "lat": a.lat, "lon": a.lon,
                               "radius_m": a.radius_m} for a in mdp.action_meta]
    return doc


def save_mdp(mdp: Mdp, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(mdp_to_dict(mdp)) + "\n")


def _mdp_from_v1(doc: dict, available, utility, p0, state_meta, action_meta) -> Mdp:
    """Model of a version-1 file: the available rows of its dense tensor, whose
    other rows must be the self-loop completion rows."""
    transition = np.array(doc["transition"], dtype=float)
    states, actions = _pair_index(tuple(tuple(sorted(acts)) for acts in available))
    try:
        rows = transition[actions, states]
    except IndexError:  # available names a state or action past the tensor; Mdp says which
        rows = np.empty((0, 0))
    mdp = Mdp(rows, available, utility, p0, state_meta, action_meta)
    if transition.shape != (mdp.n_actions, mdp.n_states, mdp.n_states):
        raise ValueError("transition must have shape (n_actions, n_states, n_states)")
    completed = np.where(mdp.availability_mask().T[:, :, None], transition, np.eye(mdp.n_states))
    bad = ~np.isclose(transition, completed, atol=CONSTRUCTION_ATOL, rtol=0.0).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"action {bad.argmax()}: unavailable rows must be self-loop "
                         "completion rows")
    return mdp


def mdp_from_dict(doc: dict) -> Mdp:
    schema = doc.get("schema", 1)
    if schema not in (1, MDP_SCHEMA):
        raise ValueError(f"unknown model schema {schema!r}; this version reads 1 and "
                         f"{MDP_SCHEMA}")
    available = tuple(tuple(a) for a in doc["available"])
    utility = np.array(doc["utility"], dtype=float)
    p0 = np.array(doc["p0"], dtype=float)
    state_meta = action_meta = None
    if doc.get("state_meta") is not None:
        state_meta = [StateMeta(d["label"], d["lat"], d["lon"], d["area_m2"])
                      for d in doc["state_meta"]]
    if doc.get("action_meta") is not None:
        action_meta = [ActionMeta(d["label"], d["lat"], d["lon"], d["radius_m"])
                       for d in doc["action_meta"]]
    if schema == 1:
        return _mdp_from_v1(doc, available, utility, p0, state_meta, action_meta)
    shape = (int(doc["n_states"]), int(doc["n_actions"]))
    if utility.shape != shape:
        raise ValueError(f"utility must have shape (n_states, n_actions) = {shape}; "
                         f"got {utility.shape}")
    return Mdp(np.array(doc["rows"], dtype=float), available, utility, p0,
               state_meta, action_meta)


def _load_object(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the file does not hold a JSON object")
    return doc


def load_mdp(path) -> Mdp:
    return mdp_from_dict(_load_object(path))


def _plain(value):
    """Coerce numpy containers to json-ready python values."""
    if isinstance(value, np.ndarray):
        return _nested(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def result_to_dict(result: SynthesisResult) -> dict:
    cert = None
    if result.certificate is not None:
        cert = {"z": result.certificate.z,
                "beta": _nested(result.certificate.beta),
                "margin": result.certificate.margin}
    return {
        "mode": result.mode,
        "epsilon": result.epsilon,
        "secret_states": (None if result.secret_states is None
                          else list(result.secret_states)),
        "average_cost": result.average_cost,
        "theta": _nested(result.theta),
        "policy": _nested(result.policy),
        "p_inf": _nested(result.p_inf),
        "b_inf": None if result.b_inf is None else _nested(result.b_inf),
        "certificate": cert,
        "diagnostics": _plain(result.diagnostics),
    }


def save_result(result: SynthesisResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(result_to_dict(result)) + "\n")


def result_from_dict(doc: dict) -> SynthesisResult:
    cert = None
    if doc.get("certificate") is not None:
        c = doc["certificate"]
        cert = Certificate(z=float(c["z"]), beta=np.array(c["beta"], dtype=float),
                           margin=float(c["margin"]))
    b_inf = None if doc.get("b_inf") is None else np.array(doc["b_inf"], dtype=float)
    return SynthesisResult(
        mode=doc["mode"],
        theta=np.array(doc["theta"], dtype=float),
        policy=np.array(doc["policy"], dtype=float),
        p_inf=np.array(doc["p_inf"], dtype=float),
        average_cost=float(doc["average_cost"]),
        epsilon=doc["epsilon"] if doc["epsilon"] is None else float(doc["epsilon"]),
        secret_states=(None if doc["secret_states"] is None
                       else tuple(int(s) for s in doc["secret_states"])),
        certificate=cert, b_inf=b_inf,
        diagnostics=doc.get("diagnostics", {}),
    )


def load_result(path) -> SynthesisResult:
    return result_from_dict(_load_object(path))
