"""Canonical JSON persistence for models and synthesis results.

Floats are printed as %.17g text, which reads back to the same double, so
save-load-save is byte-identical and two runs that compute the same numbers
produce the same file. Key order is fixed by the writers below and
documented in docs/schemas.md.

A model is written in schema 3: for each available (state, action) pair, the
states it moves to with nonzero probability, those probabilities and its
loss, plus one sentinel, the loss of every unavailable pair. `mdp_from_dict`
is the one reader of schemas 1, 2 and 3: every schema takes the same checks
of its counts, `available`, `p0` and meta into one `Mdp`, and loads the
model it holds bit for bit; only how rows and losses are stored differs.

A result is written in result schema 2: theta and the policy only at the
actions where either is nonzero, per state. `result_from_dict` also reads
the dense result schema 1 and scatters schema 2 back into dense matrices.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .floattext import format_rows
from .mdp import (CONSTRUCTION_ATOL, ActionMeta, Mdp, StateMeta, _mdp_on_pairs,
                  _pair_index, check_available, non_integers)
from .synthesis import MODES, Certificate, SynthesisResult

MDP_SCHEMA = 3
RESULT_SCHEMA = 2


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
        "available": mdp.available,
        "successors": np.split(successor, cuts),
        "probabilities": np.split(mdp.rows[pair, successor], cuts),
        "p0": mdp.p0,
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


def _index_lists(lists, key: str, noun: str, bound: int, owner) -> tuple[np.ndarray, np.ndarray]:
    """(list, index) arrays of every entry of `lists`, per-list indices that
    must be JSON integers in 0..bound-1, strictly ascending within each list;
    `key` and `noun` name the lists and an index, owner(k) list k, in the
    messages."""
    flat = list(itertools.chain.from_iterable(lists))
    bad = non_integers(flat)
    if bad:
        raise ValueError(f"{key} list a non-integer {noun} {bad[0]!r}")
    row = np.repeat(np.arange(len(lists)), list(map(len, lists)))
    col = np.array(flat, dtype=np.intp)
    if col.size and (col.min() < 0 or col.max() >= bound):
        article = "an" if noun[0] in "aeiou" else "a"
        raise ValueError(f"{key} list {article} {noun} outside 0..{bound - 1}")
    unordered = (np.diff(col) <= 0) & (np.diff(row) == 0)
    if unordered.any():
        raise ValueError(f"the {key} of {owner(row[unordered.argmax()])} are not "
                         "strictly ascending")
    return row, col


def _scatter_v3(doc: dict, n: int, m: int, states, actions):
    """(rows, utility) of a schema-3 file: its successor lists and
    probabilities scattered into dense rows, and its losses into the dense
    loss matrix around the sentinel."""
    successors, probabilities = doc["successors"], doc["probabilities"]
    if len(successors) != len(states) or len(probabilities) != len(states):
        raise ValueError(f"successors and probabilities must hold {len(states)} rows, one "
                         f"per available pair; got {len(successors)} and {len(probabilities)}")
    widths, lengths = list(map(len, successors)), list(map(len, probabilities))
    if lengths != widths:
        k = next(k for k, (width, length) in enumerate(zip(widths, lengths)) if width != length)
        raise ValueError(f"the row of state {states[k]}, action {actions[k]} lists {widths[k]} "
                         f"successors and {lengths[k]} probabilities")
    pair, cols = _index_lists(successors, "successors", "state", n,
                              lambda k: f"state {states[k]}, action {actions[k]}")
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
    return rows, utility


def _meta_ok(fields) -> bool:
    """Whether every (label, lat, lon, size) holds a string and three finite numbers."""
    labels, numbers = [f[0] for f in fields], [x for f in fields for x in f[1:]]
    return (set(map(type, labels)) <= {str} and set(map(type, numbers)) <= {int, float}
            and all(map(math.isfinite, numbers)))


def _meta(doc: dict, key: str, kind, size: str):
    """The `key` list of meta entries, each a string label and finite lat,
    lon and `size`; None when the document holds none."""
    if doc.get(key) is None:
        return None
    fields = [(d["label"], d["lat"], d["lon"], d[size]) for d in doc[key]]
    if not _meta_ok(fields):
        i = next(i for i, f in enumerate(fields) if not _meta_ok([f]))
        raise ValueError(f"{key}[{i}] must hold a string label and finite numbers "
                         f"lat, lon and {size}")
    return [kind(*f) for f in fields]


def mdp_from_dict(doc: dict) -> Mdp:
    """The model of a document of any schema. Only how the rows and losses
    are stored differs: schema 3 scatters its per-pair lists, schema 2 holds
    `Mdp.rows` and the dense loss matrix, and schema 1 the dense tensor,
    whose unavailable rows must be the self-loop completion rows."""
    schema = doc.get("schema", 1)
    if non_integers([schema]) or schema not in (1, 2, MDP_SCHEMA):
        raise ValueError(f"unknown model schema {schema!r}; this version reads 1, 2 and "
                         f"{MDP_SCHEMA}")
    n, m = doc["n_states"], doc["n_actions"]
    if non_integers([n, m]):
        raise ValueError(f"n_states and n_actions must be integers; got {n!r} and {m!r}")
    if schema < MDP_SCHEMA:
        utility = np.array(doc["utility"], dtype=float)
        if utility.shape != (n, m):
            raise ValueError(f"utility must have shape (n_states, n_actions) = {(n, m)}; "
                             f"got {utility.shape}")
    available = check_available(doc["available"], n, m)
    states, actions = _pair_index(available)
    if schema == 1:
        transition = np.array(doc["transition"], dtype=float)
        if transition.shape != (m, n, n):
            raise ValueError("transition must have shape (n_actions, n_states, n_states)")
        rows = transition[actions, states]
    elif schema == 2:
        rows = doc["rows"]
    else:
        rows, utility = _scatter_v3(doc, n, m, states, actions)
    mdp = _mdp_on_pairs((states, actions), rows, available, utility, doc["p0"],
                        _meta(doc, "state_meta", StateMeta, "area_m2"),
                        _meta(doc, "action_meta", ActionMeta, "radius_m"))
    if schema == 1:
        bad = ~np.isclose(transition, mdp.transition, atol=CONSTRUCTION_ATOL,
                          rtol=0.0).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"action {bad.argmax()}: unavailable rows must be self-loop "
                             "completion rows")
    return mdp


def _load_object(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("the file does not hold a JSON object")
    return doc


def load_mdp(path) -> Mdp:
    return mdp_from_dict(_load_object(path))


def result_to_dict(result: SynthesisResult) -> dict:
    """Result-schema-2 document: for each state, the actions where theta or
    the policy is nonzero, ascending, and their values at those actions."""
    n, m = result.theta.shape
    state, action = np.nonzero((result.theta != 0.0) | (result.policy != 0.0))
    cuts = np.cumsum(np.bincount(state, minlength=n))[:-1]
    cert = None
    if result.certificate is not None:
        cert = {"z": result.certificate.z,
                "beta": result.certificate.beta,
                "margin": result.certificate.margin}
    return {
        "schema": RESULT_SCHEMA,
        "mode": result.mode,
        "epsilon": result.epsilon,
        "secret_states": result.secret_states,
        "average_cost": result.average_cost,
        "n_actions": m,
        "actions": np.split(action, cuts),
        "theta": np.split(result.theta[state, action], cuts),
        "policy": np.split(result.policy[state, action], cuts),
        "p_inf": result.p_inf,
        "b_inf": result.b_inf,
        "certificate": cert,
        "diagnostics": result.diagnostics,
    }


def save_result(result: SynthesisResult, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(result_to_dict(result)) + "\n")


def _scatter_result(doc: dict, p_inf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, policy) of a result-schema-2 file: its per-state action lists
    and values scattered into dense (n, n_actions) matrices, n the length of
    `p_inf`."""
    m, actions, theta, policy = doc["n_actions"], doc["actions"], doc["theta"], doc["policy"]
    if p_inf.ndim != 1:
        raise ValueError(f"p_inf must list one number per state; got shape {p_inf.shape}")
    n = len(p_inf)
    if non_integers([m]):
        raise ValueError(f"n_actions must be an integer; got {m!r}")
    if not len(actions) == len(theta) == len(policy) == n:
        raise ValueError(f"actions, theta and policy must hold {n} rows, one per state of "
                         f"p_inf; got {len(actions)}, {len(theta)} and {len(policy)}")
    widths = list(map(len, actions))
    if list(map(len, theta)) != widths or list(map(len, policy)) != widths:
        s = next(s for s, width in enumerate(widths)
                 if len(theta[s]) != width or len(policy[s]) != width)
        raise ValueError(f"the row of state {s} lists {widths[s]} actions, {len(theta[s])} "
                         f"theta values and {len(policy[s])} policy values")
    state, cols = _index_lists(actions, "actions", "action", m, lambda s: f"state {s}")
    dense = np.zeros((2, n, m))
    for out, values in zip(dense, (theta, policy)):
        out[state, cols] = np.array(list(itertools.chain.from_iterable(values)), dtype=float)
    return dense[0], dense[1]


def result_from_dict(doc: dict) -> SynthesisResult:
    """The result of a document of either result schema: schema 2 scatters
    its per-state lists into dense theta and policy, schema 1 (no `schema`
    key) holds them dense."""
    schema = doc.get("schema", 1)
    if non_integers([schema]) or schema not in (1, RESULT_SCHEMA):
        raise ValueError(f"unknown result schema {schema!r}; this version reads 1 and "
                         f"{RESULT_SCHEMA}")
    mode, epsilon, secret = doc["mode"], doc["epsilon"], doc["secret_states"]
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    if epsilon is not None and type(epsilon) not in (int, float):  # a bool is not a number here
        raise ValueError(f"epsilon must be a number or null; got {epsilon!r}")
    if secret is not None and (not isinstance(secret, list) or non_integers(secret)):
        raise ValueError(f"secret_states must be null or a list of integer states; "
                         f"got {secret!r}")
    cert = None
    if doc.get("certificate") is not None:
        c = doc["certificate"]
        cert = Certificate(z=float(c["z"]), beta=np.array(c["beta"], dtype=float),
                           margin=float(c["margin"]))
    b_inf = None if doc.get("b_inf") is None else np.array(doc["b_inf"], dtype=float)
    p_inf = np.array(doc["p_inf"], dtype=float)
    if schema == 1:
        theta, policy = (np.array(doc[key], dtype=float) for key in ("theta", "policy"))
    else:
        theta, policy = _scatter_result(doc, p_inf)
    return SynthesisResult(
        mode=mode,
        theta=theta,
        policy=policy,
        p_inf=p_inf,
        average_cost=float(doc["average_cost"]),
        epsilon=None if epsilon is None else float(epsilon),
        secret_states=None if secret is None else tuple(secret),
        certificate=cert, b_inf=b_inf,
        diagnostics=doc.get("diagnostics", {}),
    )


def load_result(path) -> SynthesisResult:
    return result_from_dict(_load_object(path))
