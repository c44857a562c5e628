"""Command line front end.

Subcommands: build (traces to model), synthesize (policy synthesis),
simulate (belief and quality rollout for a synthesized policy), verify
(re-checks the claim of a stored result: invariance plus certificate, or
an asymptotic result's limit belief), baselines (per-step obfuscation
mechanisms on a model).

Exit codes: 0 success, 1 missing or invalid input, 2 empty POI set,
3 infeasible synthesis or mechanism, or an LP that stalled (feasibility
unknown), 4 internal disagreement between verification routes, or a
synthesized or stored policy that fails the check of its own chain. Flags
override values from --config (a flat JSON object keyed by the long flag
names with dashes as underscores).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import fixtures, mobility, serialize
from .adversary import belief_trajectory, check_simplex, write_belief_csv
from .floattext import format_rows
from .mdp import UNICHAIN_BUDGET, NonErgodicError, NotUnichainError, validate_policy
from .metrics import (PrivacySpec, distance_matrix_from_meta, mass_bound_check, secret_mass,
                      secret_mass_series, write_metric_series)
from .optim import FW_GAP_TOL
from .synthesis import (ASYMPTOTIC_MARGIN, MODES, ActionDependentModelError,
                        InfeasibleSynthesisError, SelfCheckError, deployed_chain, limit_check,
                        synthesize_asymptotic, synthesize_eps_private,
                        synthesize_unconstrained, theorem1_certificate, verify_invariance)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_EMPTY = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4
# options whose values are paths or names; a config must give them as strings
STRING_OPTIONS = ("out", "fixture", "model", "traces", "format", "mode", "result", "belief",
                  "kind")


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for the empty-POI case
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    bad = [key for key in STRING_OPTIONS if key in config and not isinstance(config[key], str)]
    if bad:
        raise CliError(f"config file {path}: {bad[0]} must be a string, got {config[bad[0]]!r}")
    return config


def _get(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _to_number(key, value, kind=float):
    """The option value as a float, or as an int for kind=int; CliError otherwise."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    # a float must survive the conversion unchanged: no nan, no truncated 2.5 -> 2
    if number is None or isinstance(value, bool) or (isinstance(value, float) and number != value):
        what = "an integer" if kind is int else "a number"
        raise CliError(f"{key.replace('_', '-')} must be {what}, got {value!r}")
    return number


def _number(args, config, key, default, kind=float):
    return _to_number(key, _get(args, config, key, default), kind)


def _read_file(kind, path, load):
    """load(path); a missing or malformed file becomes a one-line CliError."""
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"{kind} file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc.strerror}")
    except KeyError as exc:
        raise CliError(f"{kind} file {path} lacks the key {exc}")
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"{kind} file {path} is malformed: {' '.join(str(exc).split())}")


def _fixture(name):
    if name != "campus":
        raise CliError(f"unknown fixture {name!r}")
    return fixtures.campus()


def _load_model(args, config):
    fixture = _get(args, config, "fixture")
    model = _get(args, config, "model")
    if fixture is not None:
        return _fixture(fixture)
    if model is None:
        raise CliError("no model given: pass --model or --fixture")
    return _read_file("model", model, serialize.load_mdp)


def _load_result(args, config, mdp):
    """The --result file, checked against the model it is to be used with."""
    result_path = _get(args, config, "result")
    if result_path is None:
        raise CliError("no synthesis result given: pass --result")
    result = _read_file("result", result_path, serialize.load_result)
    shape = (mdp.n_states, mdp.n_actions)
    if result.theta.shape != shape or result.policy.shape != shape:
        raise CliError(f"result {result_path} does not fit the model: theta {result.theta.shape} "
                       f"and policy {result.policy.shape} against {shape[0]} states "
                       f"and {shape[1]} actions")
    bad = [s for s in result.secret_states or () if not 0 <= s < mdp.n_states]
    if bad:
        raise CliError(f"result {result_path} names secret state {bad[0]}, "
                       f"out of range 0..{mdp.n_states - 1} for the model")
    if len(set(result.secret_states or ())) == mdp.n_states:
        raise CliError(f"result file {result_path} is malformed: its secret set must leave "
                       f"at least one state public")
    try:
        validate_policy(mdp, result.policy)
    except ValueError as exc:
        raise CliError(f"result {result_path} holds no policy of the model: {exc}")
    return result


def _deployed_chain(mdp, result):
    try:
        return deployed_chain(mdp, result)
    except SelfCheckError as exc:
        raise CliError(f"the result's {result.mode} policy fails its check: {exc}", EXIT_INTERNAL)


def _parse_secret(spec_text, mdp):
    labels = {}
    if mdp.state_meta is not None:
        labels = {meta.label: i for i, meta in enumerate(mdp.state_meta)}
    states = []
    for token in str(spec_text).replace(",", " ").split():
        if token in labels:
            states.append(labels[token])
        else:
            try:
                states.append(int(token))
            except ValueError:
                raise CliError(f"unknown secret state {token!r}")
    if not states:
        raise CliError("empty secret state set")
    bad = [s for s in states if not 0 <= s < mdp.n_states]
    if bad:
        raise CliError(f"secret state {bad[0]} out of range 0..{mdp.n_states - 1}")
    if len(set(states)) == mdp.n_states:
        raise CliError("secret set must leave at least one state public")
    return tuple(dict.fromkeys(states))  # a repeated state counts once


def _epsilon(value):
    epsilon = _to_number("epsilon", value)
    if not 0.0 < epsilon <= 1.0:  # also rejects nan
        raise CliError(f"epsilon must lie in (0, 1], got {value}")
    return epsilon


def _horizon(args, config, default, minimum=0):
    horizon = _number(args, config, "horizon", default, int)
    if horizon < minimum:
        raise CliError(f"horizon must be at least {minimum}, got {horizon}")
    return horizon


def _initial_belief(args, config, mdp, secret):
    kind = _get(args, config, "belief", "uniform")
    n = mdp.n_states
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind in ("uniform_excluding_secret", "unsafe") and len(set(secret)) == n:
        raise CliError(f"belief {kind!r} needs a public state, but every state is secret")
    if kind == "uniform_excluding_secret":
        b = np.ones(n)
        b[list(secret)] = 0.0
        return b / b.sum()
    if kind == "unsafe":
        mass = _number(args, config, "belief_mass", 0.2)
        if not 0.0 <= mass <= 1.0:
            raise CliError(f"belief-mass must lie in [0, 1], got {mass}")
        b = np.zeros(n)
        b[list(secret)] = mass / len(secret)
        rest = [s for s in range(n) if s not in secret]
        b[rest] = (1.0 - mass) / len(rest)
        return b
    if kind == "explicit":
        vec = config.get("belief_vector")
        if vec is None:
            raise CliError("belief kind 'explicit' needs belief_vector in the config")
        try:
            b = check_simplex(vec, "belief_vector")
        except (TypeError, ValueError):  # not numbers, or off the simplex
            raise CliError("belief_vector is not a distribution over the states") from None
        if b.shape != (n,):
            raise CliError(f"belief_vector must list {n} numbers, one per state")
        return b
    raise CliError(f"unknown belief kind {kind!r}")


def _out_dir(args, config):
    out = Path(_get(args, config, "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _distance_for(mdp):
    if mdp.state_meta is not None:
        return distance_matrix_from_meta(mdp.state_meta)
    return 1.0 - np.eye(mdp.n_states)


def cmd_build(args):
    config = _load_config(args.config)
    out = _out_dir(args, config)
    fixture = _get(args, config, "fixture")
    if fixture is not None:
        mdp = _fixture(fixture)
        serialize.save_mdp(mdp, out / "mdp.json")
        print(f"wrote fixture model: {mdp.n_states} states, {mdp.n_actions} actions "
              f"-> {out / 'mdp.json'}")
        return EXIT_OK
    traces = _get(args, config, "traces")
    if traces is None:
        raise CliError("no input: pass --traces or --fixture")
    if not Path(traces).exists():
        raise CliError(f"trace file not found: {traces}")
    fmt = _get(args, config, "format")
    if fmt not in (None, "csv", "plt"):
        raise CliError(f"unknown trace format {fmt!r}")
    try:
        params = mobility.ClusterParams(
            min_speed_mps=_number(args, config, "min_speed", 1.0),
            max_radius_m=_number(args, config, "max_radius", 100.0),
            min_dist_m=_number(args, config, "min_dist", 500.0),
            min_stay_h=_number(args, config, "min_stay", 1.0),
            k_anonymity=_number(args, config, "k", 2, int),
        )
        mdp, pois, cloaks, diag = mobility.build_model_from_traces(
            traces, params, fmt=fmt,
            start_state=_number(args, config, "start_state", 0, int))
    except mobility.EmptyPoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except mobility.ParameterError as exc:
        raise CliError(str(exc))
    except OSError as exc:
        raise CliError(f"cannot read trace file {traces}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read trace file {traces}: {exc}")
    serialize.save_mdp(mdp, out / "mdp.json")
    mobility.write_poi_summary(out / "poi_summary.csv", pois, cloaks)
    print(f"parsed {diag['n_samples']} samples ({diag['n_skipped']} skipped), "
          f"{diag['n_pois']} POIs, {diag['n_cloaks']} cloaks, "
          f"{diag['visit_transitions']} visit transitions")
    print(f"wrote {out / 'mdp.json'} and {out / 'poi_summary.csv'}")
    return EXIT_OK


def cmd_synthesize(args):
    config = _load_config(args.config)
    mdp = _load_model(args, config)
    out = _out_dir(args, config)
    mode = _get(args, config, "mode", "eps_private")
    if mode not in MODES:
        raise CliError(f"unknown mode {mode!r}")
    if mode != "unconstrained":
        secret = _parse_secret(_get(args, config, "secret", ""), mdp)
        epsilon = _get(args, config, "epsilon")
        if epsilon is None:
            raise CliError(f"mode {mode!r} needs --epsilon")
        spec = PrivacySpec(secret, _epsilon(epsilon))
        if mode == "asymptotic" and not spec.epsilon > ASYMPTOTIC_MARGIN:
            raise CliError(f"asymptotic mode needs epsilon above its margin "
                           f"{ASYMPTOTIC_MARGIN:g}, got {spec.epsilon:g}")
    try:
        if mode == "unconstrained":
            result = synthesize_unconstrained(mdp)
        elif mode == "eps_private":
            result = synthesize_eps_private(mdp, spec)
        else:
            result = synthesize_asymptotic(mdp, spec)
    except InfeasibleSynthesisError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for key, value in exc.diagnosis.items():
            print(f"  {key}: {value}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NotUnichainError as exc:
        raise CliError(f"model is not unichain: {exc}")
    except ActionDependentModelError as exc:
        raise CliError(str(exc))
    except SelfCheckError as exc:
        raise CliError(str(exc), EXIT_INTERNAL)
    if result.diagnostics.get("unichain") == "budget_exceeded":
        print(f"warning: unichain check skipped: the model has more than {UNICHAIN_BUDGET} "
              f"distinct deterministic policy chains, so a policy with a reducible chain "
              f"was not ruled out", file=sys.stderr)
    serialize.save_result(result, out / "result.json")
    line = f"mode={result.mode} average_cost={result.average_cost:.6f}"
    if result.certificate is not None:
        line += f" certificate_z={result.certificate.z:.6g}"
    if result.b_inf is not None and result.secret_states:
        line += f" stationary_secret_mass={secret_mass(result.b_inf, result.secret_states):.6f}"
    print(line)
    print(f"wrote {out / 'result.json'}")
    return EXIT_OK


def cmd_simulate(args):
    config = _load_config(args.config)
    mdp = _load_model(args, config)
    result = _load_result(args, config, mdp)
    horizon = _horizon(args, config, 100)
    epsilon = _get(args, config, "epsilon", result.epsilon)
    if epsilon is not None:
        epsilon = _epsilon(epsilon)
    secret_text = _get(args, config, "secret")
    secret = (_parse_secret(secret_text, mdp) if secret_text is not None
              else result.secret_states or (0,))
    user_chain, chain = _deployed_chain(mdp, result)
    b0 = _initial_belief(args, config, mdp, secret)
    out = _out_dir(args, config)
    beliefs = belief_trajectory(chain, b0, horizon)
    if horizon == 0:
        beliefs = beliefs[:0]
    write_belief_csv(out / "belief.csv", beliefs, secret)
    write_metric_series(out / "metrics.csv", beliefs, secret, _distance_for(mdp))
    # expected step cost of the synthesized policy along the user's own chain
    step_u = np.einsum("sa,sa->s", result.policy, mdp.utility)
    p = mdp.p0.copy()
    total = 0.0
    costs = np.empty((horizon + 1 if horizon > 0 else 0, 2))  # step cost, running average
    for t, row in enumerate(costs):
        cost = float(p @ step_u)
        total += cost
        row[:] = cost, total / (t + 1)
        p = p @ user_chain
    with open(out / "quality.csv", "w", newline="") as fh:
        fh.write("t,step_cost,avg_cost\r\n")
        fh.writelines(f"{t},{row}\r\n" for t, row in enumerate(format_rows(costs)))
    if epsilon is not None and horizon > 0:
        # the secret_mass column of belief.csv and metrics.csv, bit for bit
        check = mass_bound_check(secret_mass_series(beliefs, secret), epsilon)
        status = "holds" if check.holds else f"violated at t={check.first_violation}"
        print(f"secret-mass bound over {horizon} steps: {status} "
              f"(max mass {check.max_mass:.6f}, epsilon {epsilon})")
    print(f"wrote belief.csv, metrics.csv, quality.csv under {out}")
    return EXIT_OK


def cmd_verify(args):
    config = _load_config(args.config)
    mdp = _load_model(args, config)
    result = _load_result(args, config, mdp)
    epsilon = _get(args, config, "epsilon", result.epsilon)
    if epsilon is None:
        raise CliError("result has no epsilon; pass --epsilon")
    secret_text = _get(args, config, "secret")
    secret = (_parse_secret(secret_text, mdp) if secret_text is not None
              else result.secret_states)
    if not secret:
        raise CliError("result has no secret states; pass --secret")
    spec = PrivacySpec(secret, _epsilon(epsilon))
    chain = _deployed_chain(mdp, result)[1]
    if result.mode == "asymptotic":  # the claim: an ergodic chain whose limit is b_inf, safe
        try:
            mass, gap, holds = limit_check(chain, spec, result.b_inf)
        except NonErgodicError:
            raise CliError("the result's belief chain is not ergodic, so it has no limit belief")
        print(f"limit check: secret mass of the limit belief = {mass:.9f} "
              f"(epsilon {spec.epsilon})\nstored b_inf: max abs difference {gap:.3e}\n"
              f"holds in the limit: {holds}")
        return EXIT_OK if holds else EXIT_INPUT
    verdict = verify_invariance(chain, spec)
    cert = theorem1_certificate(chain, spec)
    print(f"direct check: worst one-step secret mass from the safe set "
          f"= {verdict.optimum:.9f} (epsilon {spec.epsilon})")
    print(f"invariant: {verdict.invariant}")
    if verdict.witness is not None:
        witness = " ".join(format(v, ".6g") for v in verdict.witness)
        print(f"witness belief: [{witness}]")
    if cert is None:
        print("certificate: none exists")
    else:
        print(f"certificate: z={cert.z:.9g}, margin={cert.margin:.3e}")
    if verdict.invariant != (cert is not None):
        print("error: certificate existence disagrees with the direct check",
              file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if verdict.invariant else EXIT_INPUT


def cmd_baselines(args):
    config = _load_config(args.config)
    mdp = _load_model(args, config)
    horizon = _horizon(args, config, 50, minimum=1)
    eps_dp = _number(args, config, "eps_dp", 0.7)
    if not eps_dp > 0.0:  # also rejects nan
        raise CliError(f"eps-dp must be positive, got {eps_dp}")
    kinds_text = _get(args, config, "kind", "max_entropy,max_inference_error,dp")
    kinds = [k for k in kinds_text.replace(",", " ").split() if k]
    known = ("max_entropy", "max_inference_error", "dp")
    bad = [k for k in kinds if k not in known]
    if bad or not kinds:
        raise CliError(f"unknown baseline kind(s) {', '.join(bad) or '(none given)'}; "
                       f"choose from {', '.join(known)}")
    secret_text = _get(args, config, "secret")
    secret = _parse_secret(secret_text, mdp) if secret_text is not None else (0,)
    b0 = _initial_belief(args, config, mdp, secret)
    out = _out_dir(args, config)
    distance = _distance_for(mdp)
    for kind in kinds:
        try:
            rollout = bl.run_baseline(mdp, kind, b0=b0, p0=b0.copy(), horizon=horizon,
                                      distance=distance, eps_dp=eps_dp)
        except bl.MechanismInfeasibleError as exc:
            print(f"{kind}: infeasible ({exc})", file=sys.stderr)
            return EXIT_INFEASIBLE
        except bl.LpStalledError as exc:
            raise CliError(f"{kind}: {exc}", EXIT_INFEASIBLE)
        unconverged = [g for g in rollout.diagnostics.get("fw_gaps", []) if g > FW_GAP_TOL]
        if unconverged:
            print(f"warning: {kind}: Frank-Wolfe stopped above its gap tolerance "
                  f"{FW_GAP_TOL:g} in {len(unconverged)} of {horizon} steps "
                  f"(largest gap {max(unconverged):.3g})", file=sys.stderr)
        write_metric_series(out / f"baseline_{kind}.csv", rollout.beliefs,
                            secret, distance)
        avg_loss = float(np.mean(rollout.losses))
        print(f"{kind}: avg quality loss {avg_loss:.4f}, final secret mass "
              f"{secret_mass(rollout.beliefs[-1], secret):.4f} -> baseline_{kind}.csv")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="lppm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="output directory (default: out)")
        if model:
            p.add_argument("--fixture", help="built-in model name (campus)")
            p.add_argument("--model", help="path to a saved model JSON")

    p = sub.add_parser("build", help="build a model from GPS traces")
    common(p, model=False)
    p.add_argument("--fixture", help="write a built-in model instead (campus)")
    p.add_argument("--traces", help="trace file (csv or Geolife plt)")
    p.add_argument("--format", choices=["csv", "plt"], help="trace format override")
    p.add_argument("--min-speed", type=float, dest="min_speed")
    p.add_argument("--max-radius", type=float, dest="max_radius")
    p.add_argument("--min-dist", type=float, dest="min_dist")
    p.add_argument("--min-stay", type=float, dest="min_stay")
    p.add_argument("--k", type=int, help="anonymity set size")
    p.add_argument("--start-state", type=int, dest="start_state")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("synthesize", help="synthesize a policy")
    common(p)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--secret", help="secret states, labels or indices")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="roll out beliefs and quality for a result")
    common(p)
    p.add_argument("--result", help="path to a saved synthesis result")
    p.add_argument("--horizon", type=int)
    p.add_argument("--epsilon", type=float, help="bound to check (default: result's)")
    p.add_argument("--secret", help="secret states, labels or indices")
    p.add_argument("--belief",
                   choices=["uniform", "uniform_excluding_secret", "unsafe", "explicit"])
    p.add_argument("--belief-mass", type=float, dest="belief_mass")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check invariance of a stored result")
    common(p)
    p.add_argument("--result", help="path to a saved synthesis result")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--secret", help="secret states, labels or indices")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("baselines", help="run per-step obfuscation baselines")
    common(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--eps-dp", type=float, dest="eps_dp")
    p.add_argument("--kind", help="comma separated subset of "
                   "max_entropy,max_inference_error,dp")
    p.add_argument("--secret", help="secret states for reporting")
    p.add_argument("--belief",
                   choices=["uniform", "uniform_excluding_secret", "unsafe", "explicit"])
    p.add_argument("--belief-mass", type=float, dest="belief_mass")
    p.set_defaults(func=cmd_baselines)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
