"""Command-line front end.

Every subcommand reads JSON files in the library's standard encodings, writes
one JSON report to stdout, and uses the exit code to summarise the outcome:
0 for a decided run, 1 when a requested certification came back undecided,
2 for malformed input, non-finite numbers included (with a diagnostic on
stderr).  Reports embed the library version and echo every option except
--timings; with a fixed --seed, identical invocations produce byte-identical
reports (wall-clock timings are therefore opt-in via --timings).

main builds its parser once per process and reuses it on every later call.
"""

from __future__ import annotations

import argparse
import functools
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
from .qcore import ATOL_VALID, Assemblage, Ensemble, QubitOperator, validate


def _load(path: str, decode):
    """decode() applied to the JSON in path; its ValueError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return decode(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_list(path: str, cls):
    """An Ensemble or an Assemblage, loaded from path and validated."""

    def decode(data):
        obj = cls.from_json_list(data)
        validate(obj)
        return obj

    return _load(path, decode)


def _dump(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _emit(args: argparse.Namespace, payload: dict, status: str = "") -> int:
    """Print the report of one run; the exit code is 1 when status is undecided."""
    parameters = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "timings")
    }
    _dump(
        {
            "tool": "incompat",
            "version": __version__,
            "command": args.command,
            "parameters": parameters,
            **payload,
        }
    )
    return 1 if status == "undecided" else 0


def _membership(args: argparse.Namespace, point: np.ndarray, oracle) -> int:
    verdict = fw_membership(point, oracle, args.eps_in, args.eps_out, args.max_iter)
    return _emit(args, verdict.to_json_dict(), verdict.status)


def _cmd_jm_check(args: argparse.Namespace) -> int:
    a = _load_list(args.assemblage, Assemblage)
    verdict = decide(a, max_iter=args.max_iter, tol=args.tol)
    return _emit(args, verdict.to_json_dict(), verdict.status)


def _cmd_pm_membership(args: argparse.Namespace) -> int:
    e = _load_list(args.ensemble, Ensemble)
    a = _load_list(args.assemblage, Assemblage)
    oracle = PMPolytope(args.dim, len(e), len(a))
    return _membership(args, pm_behavior(e, a).data, oracle)


def _cmd_bell_membership(args: argparse.Namespace) -> int:
    table = _load(args.correlators, CorrelatorTable.from_json_dict)
    oracle = BellPolytope(*table.shape)
    table.check(atol=1e-9)
    if table.kind != "full":
        raise ValueError("bell-membership expects a full correlator table")
    return _membership(args, table.values, oracle)


def _cmd_certify(args: argparse.Namespace) -> int:
    a = _load_list(args.assemblage, Assemblage)
    rng = np.random.default_rng(args.seed)
    e = None if args.ensemble is None else _load_list(args.ensemble, Ensemble)
    rounds = args.seesaw if e is not None else (args.seesaw or 20)
    if rounds:
        e, _ = seesaw_ensemble_search(a, args.dim, rounds, rng=rng, initial=e)
    report = certify_incompatibility(a, e, args.dim)
    payload = report.to_json_dict(include_timings=args.timings)
    return _emit(args, payload, report.verdict.status)


def _cmd_chsh_bound(args: argparse.Namespace) -> int:
    b0 = _load(args.b0, QubitOperator.from_json_dict)
    b1 = _load(args.b1, QubitOperator.from_json_dict)
    bound = chsh_norm_bound(b0, b1)
    payload: dict = {
        "bound": bound,
        "bell_jm_certified": bound <= 2.0 + ATOL_VALID,
    }
    if args.attain:
        a0, a1, value = optimal_alice_settings(b0, b1)
        payload["attainment"] = {
            "a0": a0.to_json_dict(),
            "a1": a1.to_json_dict(),
            "value": value,
        }
    return _emit(args, payload)


_GALLERY = {
    "pauli": lambda args: pauli_set(args.axes, args.eta),
    "planar": lambda args: planar_set(args.n, args.eta),
    "snub-cube": lambda args: snub_cube_set(args.eta, mirror=args.mirror),
    "pauli-eigenstates": lambda args: pauli_eigenstate_ensemble(),
}


def _cmd_gallery(args: argparse.Namespace) -> int:
    _dump(_GALLERY[args.name](args).to_json_list())
    return 0


def _cmd_equality_check(args: argparse.Namespace) -> int:
    e = _load_list(args.ensemble, Ensemble)
    a = _load_list(args.assemblage, Assemblage)
    return _emit(args, {"max_deviation": check_correlator_equality(e, a)})


def _add_fw_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-in", type=float, default=1e-7)
    p.add_argument("--eps-out", type=float, default=1e-7)
    p.add_argument("--max-iter", type=int, default=2000)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incompat",
        # the last paragraph of the docstring is for Python callers, not --help
        description=(__doc__ or "").rsplit("\n\n", 1)[0],
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
    _add_fw_options(p)
    p.set_defaults(func=_cmd_pm_membership)

    p = sub.add_parser("bell-membership", help="local-model test for full correlators")
    p.add_argument("--correlators", required=True)
    _add_fw_options(p)
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
    p.add_argument("name", choices=list(_GALLERY))
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"incompat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
