"""Command-line front end.

Every subcommand reads JSON files in the library's standard encodings, writes
one JSON report to stdout, and uses the exit code to summarise the outcome:
0 for a decided run, 1 when a requested certification came back undecided,
2 for malformed input (with a diagnostic on stderr).  Reports embed the
library version and echo all parameters; with a fixed --seed, identical
invocations produce byte-identical reports (wall-clock timings are therefore
opt-in via --timings).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .correlations import CorrelatorTable, pm_behavior
from .chsh import chsh_norm_bound, optimal_alice_settings
from .gallery import pauli_eigenstate_ensemble, pauli_set, planar_set, snub_cube_set
from .jm import decide
from .pmbell import certify_incompatibility, check_correlator_equality, seesaw_ensemble_search
from .polytope import BellPolytope, PMPolytope, fw_membership
from .qcore import Assemblage, Ensemble, QubitOperator, validate


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_assemblage(path: str) -> Assemblage:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of operators")
    a = Assemblage.from_json_list(data)
    issue = validate(a)
    if issue is not None:
        raise ValueError(f"{path}: {issue.message}")
    return a


def _load_ensemble(path: str) -> Ensemble:
    data = _load_json(path)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of operators")
    e = Ensemble.from_json_list(data)
    issue = validate(e)
    if issue is not None:
        raise ValueError(f"{path}: {issue.message}")
    return e


def _load_operator(path: str) -> QubitOperator:
    data = _load_json(path)
    if not isinstance(data, dict) or "s" not in data or "v" not in data:
        raise ValueError(f'{path}: expected an operator object {{"s": .., "v": [..]}}')
    return QubitOperator.from_json_dict(data)


def _load_correlators(path: str) -> CorrelatorTable:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a correlator table object")
    table = CorrelatorTable.from_json_dict(data)
    table.check(atol=1e-9)
    return table


def _report(command: str, parameters: dict, payload: dict) -> dict:
    return {
        "tool": "incompat",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        **payload,
    }


def _emit(report) -> None:
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_jm_check(args: argparse.Namespace) -> int:
    a = _load_assemblage(args.assemblage)
    params = {
        "assemblage": args.assemblage,
        "max_iter": args.max_iter,
        "tol": args.tol,
    }
    verdict = decide(a, max_iter=args.max_iter, tol=args.tol)
    _emit(_report("jm-check", params, verdict.to_json_dict()))
    return 1 if verdict.status == "undecided" else 0


def _cmd_pm_membership(args: argparse.Namespace) -> int:
    e = _load_ensemble(args.ensemble)
    a = _load_assemblage(args.assemblage)
    behavior = pm_behavior(e, a)
    oracle = PMPolytope(args.dim, len(e), len(a))
    verdict = fw_membership(
        behavior.data, oracle, args.eps_in, args.eps_out, args.max_iter
    )
    params = {
        "ensemble": args.ensemble,
        "assemblage": args.assemblage,
        "dim": args.dim,
        "eps_in": args.eps_in,
        "eps_out": args.eps_out,
        "max_iter": args.max_iter,
    }
    _emit(_report("pm-membership", params, verdict.to_json_dict()))
    return 1 if verdict.status == "undecided" else 0


def _cmd_bell_membership(args: argparse.Namespace) -> int:
    table = _load_correlators(args.correlators)
    if table.kind != "full":
        raise ValueError("bell-membership expects a full correlator table")
    n_a, n_b = table.shape
    verdict = fw_membership(
        table.values, BellPolytope(n_a, n_b), args.eps_in, args.eps_out, args.max_iter
    )
    params = {
        "correlators": args.correlators,
        "eps_in": args.eps_in,
        "eps_out": args.eps_out,
        "max_iter": args.max_iter,
    }
    _emit(_report("bell-membership", params, verdict.to_json_dict()))
    return 1 if verdict.status == "undecided" else 0


def _cmd_certify(args: argparse.Namespace) -> int:
    a = _load_assemblage(args.assemblage)
    rng = np.random.default_rng(args.seed)
    params = {
        "assemblage": args.assemblage,
        "ensemble": args.ensemble,
        "dim": args.dim,
        "seesaw": args.seesaw,
        "seed": args.seed,
    }
    if args.ensemble is not None:
        e = _load_ensemble(args.ensemble)
        if args.seesaw:
            e, _ = seesaw_ensemble_search(
                a, args.dim, args.seesaw, rng=rng, initial=e
            )
    else:
        rounds = args.seesaw if args.seesaw else 20
        e, _ = seesaw_ensemble_search(a, args.dim, rounds, rng=rng)
    report = certify_incompatibility(a, e, args.dim)
    _emit(_report("certify", params, report.to_json_dict(include_timings=args.timings)))
    return 1 if report.verdict.status == "undecided" else 0


def _cmd_chsh_bound(args: argparse.Namespace) -> int:
    b0 = _load_operator(args.b0)
    b1 = _load_operator(args.b1)
    bound = chsh_norm_bound(b0, b1)
    payload: dict = {
        "bound": bound,
        "bell_jm_certified": bound <= 2.0 + 1e-10,
    }
    if args.attain:
        a0, a1, value = optimal_alice_settings(b0, b1)
        payload["attainment"] = {
            "a0": a0.to_json_dict(),
            "a1": a1.to_json_dict(),
            "value": value,
        }
    params = {"b0": args.b0, "b1": args.b1, "attain": args.attain}
    _emit(_report("chsh-bound", params, payload))
    return 0


def _cmd_gallery(args: argparse.Namespace) -> int:
    name = args.name
    if name == "pauli":
        scenario = pauli_set(args.axes, args.eta).to_json_list()
    elif name == "planar":
        scenario = planar_set(args.n, args.eta).to_json_list()
    elif name == "snub-cube":
        scenario = snub_cube_set(args.eta, mirror=args.mirror).to_json_list()
    elif name == "pauli-eigenstates":
        scenario = pauli_eigenstate_ensemble().to_json_list()
    else:
        raise ValueError(f"unknown gallery scenario {name!r}")
    _emit(scenario)
    return 0


def _cmd_equality_check(args: argparse.Namespace) -> int:
    e = _load_ensemble(args.ensemble)
    a = _load_assemblage(args.assemblage)
    deviation = check_correlator_equality(e, a)
    params = {"ensemble": args.ensemble, "assemblage": args.assemblage}
    _emit(_report("equality-check", params, {"max_deviation": deviation}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incompat",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "File formats: operators are {\"s\": float, \"v\": [x, y, z]} for "
            "s*I + v.sigma; ensembles and assemblages are JSON arrays of "
            "operators (states, respectively first effects); correlator tables "
            "are {\"kind\": \"single\"|\"full\", \"shape\": [rows, cols], "
            "\"data\": [row-major floats]}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jm-check", help="joint-measurability decision for an assemblage")
    p.add_argument("--assemblage", required=True)
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_jm_check)

    p = sub.add_parser("pm-membership", help="classical-model test for a PM behaviour")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--assemblage", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps-in", type=float, default=1e-7)
    p.add_argument("--eps-out", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=2000)
    p.set_defaults(func=_cmd_pm_membership)

    p = sub.add_parser("bell-membership", help="local-model test for full correlators")
    p.add_argument("--correlators", required=True)
    p.add_argument("--eps-in", type=float, default=1e-7)
    p.add_argument("--eps-out", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=2000)
    p.set_defaults(func=_cmd_bell_membership)

    p = sub.add_parser("certify", help="end-to-end incompatibility certification")
    p.add_argument("--assemblage", required=True)
    p.add_argument("--ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument(
        "--seesaw",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="see-saw rounds before certifying (nonnegative); 0 means none with "
        "--ensemble and 20 without",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("chsh-bound", help="norm bound for a pair of observables")
    p.add_argument("--b0", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--attain", action="store_true")
    p.set_defaults(func=_cmd_chsh_bound)

    p = sub.add_parser("gallery", help="emit a named scenario as JSON")
    p.add_argument(
        "name", choices=["pauli", "planar", "snub-cube", "pauli-eigenstates"]
    )
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--axes", default="xyz")
    p.add_argument("--mirror", action="store_true")
    p.set_defaults(func=_cmd_gallery)

    p = sub.add_parser("equality-check", help="PM vs Bell correlator deviation")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--assemblage", required=True)
    p.set_defaults(func=_cmd_equality_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"incompat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
