"""Command-line entry point: run scenarios, optimize angles, sweep correlator
surfaces to CSV, and run the factorization verification campaign.

Exit status: 0 on success (Bell-violation verdicts never affect it), 1 when a
verification campaign fails, 2 on parse errors or invariant violations.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import GRID_CAP, optimize_angles, ppt_separable, verify_factorization
from .functionals import VIOLATION_TOL, classical_bound, violation_report
from .gates import AngleSetting
from .protocol import correlator_table, flip_mixtures, parity, reduced_states, stabilizer_eigenvalue
from .scenario import Scenario, ScenarioError, format_scenario, load_scenario

SCENARIO_BEGIN = "# --- scenario ---"
SCENARIO_END = "# --- end scenario ---"


def _echo_scenario(scenario: Scenario, out) -> None:
    out.write(SCENARIO_BEGIN + "\n")
    out.write(format_scenario(scenario))
    out.write(SCENARIO_END + "\n\n")


def _verdict_text(verdict, idx) -> str:
    if verdict.conclusive:
        return "separable" if verdict.ppt[idx] else "entangled"
    return "PPT (inconclusive)" if verdict.ppt[idx] else "NPT"


def _stabilizer_text(result) -> str:
    eig = "none" if result.eigenvalue is None else f"{result.eigenvalue:+d}"
    return f"{eig} (parity expectation {result.expectation:.15g})"


def cmd_run(args, out) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.settings is None:
        raise ScenarioError(args.scenario, None, "run requires explicit settings")
    # compute first: an invariant violation exits 2 before any output
    stabilizer = _stabilizer_text(stabilizer_eigenvalue(scenario.system))
    states = reduced_states(scenario.system, scenario.ancilla, scenario.settings)
    table = parity(states)
    ppt = ppt_separable(states, {0})
    report = violation_report(scenario.functional, table)

    _echo_scenario(scenario, out)
    out.write(f"stabilizer eigenvalue : {stabilizer}\n")
    out.write("correlators (direct route):\n")
    for idx in np.ndindex(table.shape):
        label = ",".join(str(i + 1) for i in idx)
        out.write(f"  setting ({label}): {table[idx]:+.15g}   reduced state: {_verdict_text(ppt, idx)}\n")
    out.write(f"functional      : {scenario.functional.label}\n")
    out.write(f"value           : {report.value:.15g}\n")
    out.write(f"|value|         : {abs(report.value):.15g}\n")
    out.write(f"classical bound : {report.bound:.15g}\n")
    out.write(f"violated        : {'yes' if report.violated else 'no'} (margin {report.margin:+.15g})\n")
    return 0


def cmd_optimize(args, out) -> int:
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    # optimize first: a bad restart count or seed exits 2 before any output
    result = optimize_angles(
        scenario.system,
        scenario.ancilla,
        scenario.functional,
        mode=scenario.mode,
        budget=args.restarts,
        seed=seed,
    )
    bound = classical_bound(scenario.functional)
    margin = result.best_value - bound
    _echo_scenario(scenario, out)
    out.write(f"optimization (mode {scenario.mode}, restarts {result.restarts_used}, seed {seed})\n")
    out.write(f"best |value|    : {result.best_value:.15g}\n")
    out.write(f"classical bound : {bound:.15g}\n")
    out.write(f"violated        : {'yes' if margin > VIOLATION_TOL else 'no'} (margin {margin:+.15g})\n")
    out.write(f"converged       : {'yes' if result.converged else 'no'}\n")
    out.write("best settings (radians, 12 significant digits):\n")
    for i, party in enumerate(result.best_settings):
        rendered = ", ".join(
            s.mode + ":" + ",".join(f"{a:.12g}" for a in s.angles) for s in party
        )
        out.write(f"  party {i + 1}: {rendered}\n")
    return 0


def cmd_sweep(args, out) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.n_parties != 2:
        raise ScenarioError(args.scenario, None, "sweep requires a 2-party scenario")
    if not 2 <= args.grid <= GRID_CAP:
        raise ScenarioError(args.scenario, None, f"grid must be between 2 and {GRID_CAP}, got {args.grid}")
    thetas = np.linspace(0.0, math.pi, args.grid)
    settings = [AngleSetting.so2(t) for t in thetas]
    table = correlator_table(scenario.system, scenario.ancilla, [settings, settings]).tolist()
    states = flip_mixtures(scenario.system, scenario.ancilla, [settings, settings])
    separable = ppt_separable(states, {0}).separable.tolist()
    angles = [f"{t:.15g}" for t in thetas.tolist()]  # formatted once, shared by G rows and G columns
    rows = [
        f"{a},{b},{corr:.15g},{'true' if sep else 'false'}"
        for a, corr_row, sep_row in zip(angles, table, separable)
        for b, corr, sep in zip(angles, corr_row, sep_row)
    ]
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("theta_a,theta_b,correlator,separable\n")
            handle.write("\n".join(rows) + "\n")
    except OSError as exc:
        raise ScenarioError(args.out, None, f"cannot write CSV: {exc}") from exc
    out.write(f"wrote {args.out} ({len(rows)} rows)\n")
    return 0


def cmd_verify(args, out) -> int:
    report = verify_factorization(args.trials, args.parties, seed=args.seed)
    out.write(
        f"factorization check: parties={report.parties} trials={report.trials} seed={args.seed}\n"
    )
    deviation = max(report.max_deviation, report.max_state_deviation)  # what PASS is judged on
    out.write(f"max |direct - factorized| = {deviation:.3e}\n")
    out.write("PASS\n" if report.passed else "FAIL\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oltsim",
        description=(
            "Simulate N-party Bell tests driven by ancilla-coupled, locally "
            "parameterized two-qubit unitaries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario with explicit settings")
    p_run.add_argument("scenario", help="scenario file")

    p_opt = sub.add_parser("optimize", help="search for the best measurement angles")
    p_opt.add_argument("scenario", help="scenario file")
    p_opt.add_argument("--restarts", type=int, default=32, help="random restarts (default 32)")
    p_opt.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_sweep = sub.add_parser("sweep", help="sweep a 2-party correlator surface to CSV")
    p_sweep.add_argument("scenario", help="scenario file")
    p_sweep.add_argument("--grid", type=int, required=True, help="grid points per axis")
    p_sweep.add_argument("--out", required=True, help="output CSV path")

    p_verify = sub.add_parser("verify", help="randomized direct-vs-factorized campaign")
    p_verify.add_argument("--parties", type=int, required=True, help="party count, 2 to 5")
    p_verify.add_argument("--trials", type=int, required=True, help="number of random trials")
    p_verify.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")

    return parser


_PARSER = build_parser()

_COMMANDS = {
    "run": cmd_run,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
