"""Canonical JSON persistence for models and synthesis results.

Floats are printed as %.17g text, which reads back to the same double, so
save-load-save is byte-identical and two runs that compute the same numbers
produce the same file. Key order is fixed by the writers below and
documented in docs/schemas.md.

A model file (schema 3) stores, for each available (state, action) pair,
the states it moves to with nonzero probability and those probabilities, and
one loss per pair; the loss of every unavailable pair is one stored
sentinel. The reader scatters them into the dense `Mdp.rows` and
`Mdp.utility`, so a saved model reloads bit for bit. Schema 2 files store
`Mdp.rows` and the (n_states, n_actions) loss matrix whole; files without a
schema key are version 1, which stores the dense
(n_actions, n_states, n_states) tensor, whose unavailable rows must be the
self-loop completion rows. Both still load.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .floattext import format_rows
from .mdp import (CONSTRUCTION_ATOL, ActionMeta, Mdp, StateMeta, _pair_index,
                  check_available, non_integers)
from .synthesis import Certificate, SynthesisResult

MDP_SCHEMA = 3


# stands for a float scalar until the document's scalars are formatted in one
# call; canonical JSON text has no NUL, because json.dumps escapes it
_SCALAR = "\0"


def _non_finite(x: float):
    return ValueError(f"non-finite value {x!r} cannot be serialized")


def _finite(a: np.ndarray) -> np.ndarray:
    """`a` + 0.0, which turns -0.0 into 0.0; ValueError at its first nan or inf."""
    finite = np.isfinite(a)
    if not finite.all():
        raise _non_finite(float(a.flat[np.argmin(finite)]))
    return a + 0.0


def _ragged_text(rows) -> str:
    """Nested JSON lists of a list of 1-D arrays, their values formatted in
    one call: integers as integers, floats as `_array_text` writes them."""
    flat = np.concatenate(rows)
    if flat.dtype.kind in "iu":
        texts = list(map(str, flat.tolist()))
    else:
        texts = next(format_rows(_finite(flat)[None], ",")).split(",") if flat.size else []
    ends = np.cumsum([len(row) for row in rows]).tolist()
    return "[" + ", ".join(f"[{', '.join(texts[lo:hi])}]"
                           for lo, hi in zip([0, *ends], ends)) + "]"


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
        if obj and all(isinstance(v, np.ndarray) and v.ndim == 1 for v in obj):
            return _ragged_text(obj)
        return "[" + ", ".join(_dumps(v, indent, scalars) for v in obj) + "]"
    if isinstance(obj, np.ndarray) and obj.ndim > 0:
        return _array_text(_finite(obj))
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
    """Schema-3 document: the nonzero entries of each stored row, ascending by
    state, and the loss of each available pair, in `pair_index()` order."""
    pair, successor = np.nonzero(mdp.rows)
    cuts = np.cumsum(np.bincount(pair, minlength=len(mdp.rows)))[:-1]
    mask = mdp.availability_mask()
    doc = {
        "schema": MDP_SCHEMA,
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "available": [list(acts) for acts in mdp.available],
        "successors": np.split(successor, cuts),
        "probabilities": np.split(mdp.rows[pair, successor], cuts),
        "p0": _nested(mdp.p0),
        "utility": mdp.utility[mask],
        "sentinel": None if mask.all() else float(mdp.utility[~mask][0]),
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


def _mdp_from_v1(doc: dict, available, p0, state_meta, action_meta) -> Mdp:
    """Model of a version-1 file: the available rows of its dense tensor, whose
    other rows must be the self-loop completion rows."""
    transition = np.array(doc["transition"], dtype=float)
    utility = np.array(doc["utility"], dtype=float)
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


def _mdp_from_v2(doc: dict, available, p0, state_meta, action_meta) -> Mdp:
    """Model of a schema-2 file: `Mdp.rows` and the dense loss matrix as stored."""
    utility = np.array(doc["utility"], dtype=float)
    shape = (int(doc["n_states"]), int(doc["n_actions"]))
    if utility.shape != shape:
        raise ValueError(f"utility must have shape (n_states, n_actions) = {shape}; "
                         f"got {utility.shape}")
    return Mdp(np.array(doc["rows"], dtype=float), available, utility, p0,
               state_meta, action_meta)


def _mdp_from_v3(doc: dict, available, p0, state_meta, action_meta) -> Mdp:
    """Model of a schema-3 file: its successor lists and probabilities
    scattered into dense rows, and its losses into the dense loss matrix
    around the sentinel."""
    n, m = doc["n_states"], doc["n_actions"]
    if non_integers([n, m]):
        raise ValueError(f"n_states and n_actions must be integers; got {n!r} and {m!r}")
    available = check_available(available, n, m)
    states, actions = _pair_index(available)
    successors, probabilities = doc["successors"], doc["probabilities"]
    if len(successors) != len(states) or len(probabilities) != len(states):
        raise ValueError(f"successors and probabilities must hold {len(states)} rows, one "
                         f"per available pair; got {len(successors)} and {len(probabilities)}")
    widths, lengths = list(map(len, successors)), list(map(len, probabilities))
    if lengths != widths:
        k = next(k for k, (width, length) in enumerate(zip(widths, lengths)) if width != length)
        raise ValueError(f"the row of state {states[k]}, action {actions[k]} lists {widths[k]} "
                         f"successors and {lengths[k]} probabilities")
    flat = list(itertools.chain.from_iterable(successors))
    bad = non_integers(flat)
    if bad:
        raise ValueError(f"successors list a non-integer state {bad[0]!r}")
    pair = np.repeat(np.arange(len(states)), widths)
    cols = np.array(flat, dtype=np.intp)
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError(f"successors list a state outside 0..{n - 1}")
    unordered = (np.diff(cols) <= 0) & (np.diff(pair) == 0)
    if unordered.any():
        k = pair[unordered.argmax()]
        raise ValueError(f"the successors of state {states[k]}, action {actions[k]} are not "
                         "strictly ascending")
    rows = np.zeros((len(states), n))
    rows[pair, cols] = np.array(list(itertools.chain.from_iterable(probabilities)), dtype=float)
    losses = np.array(doc["utility"], dtype=float)
    if losses.shape != states.shape:
        raise ValueError(f"utility must hold {len(states)} losses, one per available pair; "
                         f"got shape {losses.shape}")
    sentinel = doc["sentinel"]
    if (sentinel is None) != (len(states) == n * m):
        raise ValueError("sentinel must be null exactly when every pair is available")
    utility = np.full((n, m), 0.0 if sentinel is None else float(sentinel))
    utility[states, actions] = losses
    return Mdp(rows, available, utility, p0, state_meta, action_meta)


def mdp_from_dict(doc: dict) -> Mdp:
    schema = doc.get("schema", 1)
    if schema not in (1, 2, MDP_SCHEMA):
        raise ValueError(f"unknown model schema {schema!r}; this version reads 1, 2 and "
                         f"{MDP_SCHEMA}")
    available = tuple(tuple(a) for a in doc["available"])
    p0 = np.array(doc["p0"], dtype=float)
    state_meta = action_meta = None
    if doc.get("state_meta") is not None:
        state_meta = [StateMeta(d["label"], d["lat"], d["lon"], d["area_m2"])
                      for d in doc["state_meta"]]
    if doc.get("action_meta") is not None:
        action_meta = [ActionMeta(d["label"], d["lat"], d["lon"], d["radius_m"])
                       for d in doc["action_meta"]]
    read = {1: _mdp_from_v1, 2: _mdp_from_v2, MDP_SCHEMA: _mdp_from_v3}[schema]
    return read(doc, available, p0, state_meta, action_meta)


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
