"""Command-line entry points: check, decompose, simulate, bound, demo.

Every command reads and writes UTF-8 JSON, and each command and each demo
takes only the options it reads.  ``check`` exits 0 when the device passes
the weak fair-sampling test and 2 when it fails (with the deviation
reported).  Any command whose input cannot be loaded, or whose computation
fails on it, prints one ``error:`` line and exits 1.  Reports always carry
both the theoretical bound and the measured quantity so the inequalities
can be audited externally.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import sys
from pathlib import Path

import numpy as np

from . import adversary, serialize
from .analysis import (
    FairSamplingVerdict,
    approximate_epsilon,
    check_exact,
    check_tolerance,
    tv_bound,
)
from .bell import LABEL_SEP, BellScenario, ScenarioAnalysis, chsh_singlet_scenario, ideal_scenario
from .bell import postselected_vs_ideal_deviation
from .device import ZeroAcceptanceError
from .filters import canonical_decomposition, verify_recomposition
from .linalg import VERDICT_TOL
from .optics import AnalyserSpec, analyser_device, analyser_epsilon_closed_form, analyser_mq
from .sampling import random_density, random_fair_sampling_device

#: What reading an input file may raise.  ``json`` raises ``RecursionError`` for a text nested too deeply.
LOAD_ERRORS = (OSError, ValueError, KeyError, RecursionError)


def _emit(payload, out_path: str | None) -> None:
    text = serialize.dump_json(payload, out_path)
    if out_path is None:
        sys.stdout.write(text + "\n")


def _load(path: str, parse, what: str | None = None):
    """``parse`` of the JSON value in the file at ``path``.

    A load error raises ``ValueError`` with its text, after ``cannot load <what>: `` when ``what`` is given.
    The cyclic garbage collector is paused meanwhile, and left as the caller had it: the parsed tree of
    lists holds no cycle, and reference counting frees it once ``parse`` has converted it, so a
    collection set off by its many lists would walk them for nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(serialize.load_json(path))
    except LOAD_ERRORS as exc:
        raise ValueError(f"cannot load {what}: {exc}" if what else str(exc)) from None
    finally:
        if enabled:
            gc.enable()


def _load_scenario(path: str) -> BellScenario:
    return _load(path, functools.partial(serialize.scenario_from_json, base_dir=Path(path).parent), "scenario")


def cmd_check(args) -> int:
    dev = _load(args.device, serialize.device_from_json, "device")
    mq = None if args.mq is None else _load(args.mq, serialize.matrix_from_json, "mq")
    verdict = check_exact(dev, tol=args.tol, mq=mq)
    payload = serialize.verdict_to_json(verdict)
    if verdict.epsilon < 1.0:
        payload["tv_bound"] = serialize.sig15(tv_bound(verdict.epsilon))
    _emit(payload, args.output)
    return 0 if verdict.weak else 2


def cmd_decompose(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    out_dir = Path(args.output or (Path(args.device).stem + ".decomposition"))
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable output fails before any work
    dev = _load(args.device, serialize.device_from_json, "device")
    decomp = canonical_decomposition(dev)
    max_dev = verify_recomposition(dev, decomp, trials=args.trials, seed=args.seed)
    filters_json, lossless_json = serialize.decomposition_to_json(decomp)
    serialize.dump_json(filters_json, out_dir / "filter.json")
    serialize.dump_json(lossless_json, out_dir / "lossless.json")
    serialize.dump_json(
        {"max_deviation": serialize.sig15(max_dev), "trials": args.trials, "seed": args.seed},
        out_dir / "verification.json",
    )
    sys.stdout.write(f"{out_dir}\n")
    return 0


def _scenario_report(sc: BellScenario, postselect: bool, tol: float) -> tuple[dict, list[FairSamplingVerdict] | None]:
    """The ``simulate`` report of the analysis against the parties' verdicts at ``tol``, and the verdicts.

    The verdicts are None when a party never clicks.  Omissions are noted on stderr.
    """
    verdicts = why = None
    try:
        verdicts = [check_exact(dev, tol=tol) for dev in sc.devices]
        unfair = [k for k, verdict in enumerate(verdicts) if not verdict.weak]
        if unfair:
            why = f"party {unfair[0]} fails the exact fair-sampling check"
    except ZeroAcceptanceError as exc:
        why = exc
    analysis = ScenarioAnalysis(sc, None if why is not None else [verdict.reference for verdict in verdicts])
    t = analysis.tables
    label = LABEL_SEP.join
    raw_labels = serialize.TableLabels(label(outs) for outs in itertools.product(*t.outcomes))
    report: dict = {
        "raw": {label(xs): serialize.table_to_json(raw_labels, table) for xs, table in t.raw.items()},
        "acceptance": {label(xs): serialize.sig15(acc) for xs, acc in t.acceptance.items()},
    }
    if postselect:
        good_labels = serialize.TableLabels(
            label(outs) for outs in itertools.product(*(dev.outcomes for dev in sc.devices))
        )
        report["postselected"] = {
            label(xs): serialize.table_to_json(good_labels, ps) for xs, ps in t.postselected.items()
        }
        report["erased"] = [label(xs) for xs in t.erased]
    if sc.bell_coeffs is not None:
        if postselect:
            try:
                report["bell_value_postselected"] = serialize.sig15(analysis.bell_value_postselected)
            except ZeroAcceptanceError as exc:
                sys.stderr.write(f"note: bell_value_postselected omitted: {exc}\n")
        report["bell_value_raw"] = serialize.sig15(analysis.bell_value_raw)
    if why is None:
        try:
            report["ideal_deviation"] = serialize.sig15(analysis.joint_deviation)
        except ZeroAcceptanceError as exc:
            why = exc
    if why is not None:
        sys.stderr.write(f"note: no ideal experiment, ideal_deviation omitted: {why}\n")
    return report, verdicts


def cmd_simulate(args) -> int:
    report, _ = _scenario_report(_load_scenario(args.scenario), args.postselect, args.tol)
    _emit(report, args.output)
    return 0


def cmd_bound(args) -> int:
    sc = _load_scenario(args.scenario)
    if args.mq is not None:
        mqs = [_load(args.mq, serialize.matrix_from_json, "mq")] * sc.n_parties
    else:
        mqs = [check_exact(dev, tol=args.tol).reference for dev in sc.devices]
    analysis = ScenarioAnalysis(sc, mqs)
    report = {
        "per_party": [
            {"epsilon": serialize.sig15(e), "tv_bound": serialize.sig15(tv_bound(e))}
            for e in analysis.epsilons
        ],
        "epsilon_total": serialize.sig15(analysis.epsilon_total),
        "joint_tv_bound": serialize.sig15(tv_bound(analysis.epsilon_total)),
        "measured_joint_deviation": serialize.sig15(analysis.joint_deviation),
    }
    if sc.bell_coeffs is not None:
        report["beta_max"] = serialize.sig15(analysis.beta_max)
        report["bell_deviation_bound"] = serialize.sig15(analysis.bell_deviation_bound)
        report["measured_bell_deviation"] = serialize.sig15(analysis.bell_deviation)
        try:
            report["local_bound"] = serialize.sig15(analysis.local_bound)
        except ValueError as exc:  # too many local strategies to enumerate
            sys.stderr.write(f"note: local_bound and certified_margin omitted: {exc}\n")
        else:
            report["certified_margin"] = serialize.sig15(analysis.certified_margin)
    _emit(report, args.output)
    return 0


def _demo_makarov(args) -> dict:
    hv = adversary.makarov_branches()
    traced = check_exact(hv.traced(), tol=args.tol)
    full = check_exact(hv.adversary_device(), tol=args.tol)
    result = adversary.run_faked_chsh(noise=args.noise)
    return {
        "traced_verdict": serialize.verdict_to_json(traced),
        "adversary_verdict": serialize.verdict_to_json(full),
        "chsh": serialize.sig15(result.chsh),
        "detection_rate": serialize.sig15(result.detection_rate),
        "correlators": {LABEL_SEP.join(xy): serialize.sig15(v) for xy, v in result.correlators.items()},
    }


def _analyser_row(eta: float, delta: float, n_max: int) -> dict:
    eta1 = 1.0 - (1.0 - eta) * (1.0 + delta)
    spec = AnalyserSpec(eta1=eta1, eta2=eta, angles=(0.0, np.pi / 4.0), n_max=n_max)
    dev = analyser_device(spec)
    eps = approximate_epsilon(dev, analyser_mq(eta, n_max))
    closed = analyser_epsilon_closed_form(eta, delta)
    return {
        "eta": eta,
        "delta": delta,
        "n_max": n_max,
        "epsilon_numeric": serialize.sig15(eps),
        "epsilon_closed_form": serialize.sig15(closed),
        "tv_bound": serialize.sig15(tv_bound(eps)),
    }


def _demo_analyser(args) -> dict:
    if args.eta2 is not None or args.eta1 is not None or args.delta is not None:
        eta = args.eta2 if args.eta2 is not None else 0.8
        if args.eta1 is not None:
            spec = AnalyserSpec(eta1=args.eta1, eta2=eta, angles=(0.0,), n_max=args.nmax)
            delta = spec.delta
            eta = spec.eta2
        else:
            delta = args.delta or 0.0
        rows = [_analyser_row(eta, delta, args.nmax)]
    else:
        grid = [(eta, delta) for eta in (0.5, 0.8, 0.95) for delta in (0.0, 0.01, 0.1)]
        rows = [_analyser_row(eta, delta, args.nmax) for eta, delta in grid]
    return {"sweep": rows}


def _demo_chsh_singlet(args) -> dict:
    report, verdicts = _scenario_report(chsh_singlet_scenario(), True, args.tol)
    report["strong_fair_sampling"] = all(verdict.strong for verdict in verdicts)
    return report


def _demo_prop2_random(args) -> dict:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    cases = []
    for _ in range(args.count):
        n_parties = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(n_parties)]
        devices = [
            random_fair_sampling_device(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
            for d in dims
        ]
        cases.append(BellScenario(devices, random_density(int(np.prod(dims)), rng)))
    devs = [postselected_vs_ideal_deviation(sc, ideal_scenario(sc)) for sc in cases]
    return {
        "scenarios": args.count,
        "seed": args.seed,
        "max_deviation": serialize.sig15(max(devs)),
        "deviations": [serialize.sig15(d) for d in devs],
    }


def cmd_demo(args) -> int:
    _emit(args.demo(args), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every ``main`` call.

    Each command and each demo takes only the options it reads, and ``-o``.
    Each demo's subparser binds its function as ``args.demo``, which
    ``cmd_demo`` runs; adding a demo touches only its own subparser.
    """
    parser = argparse.ArgumentParser(
        prog="fairsamp",
        description="Fair-sampling analysis of lossy measurement devices and Bell experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--tol": dict(type=float, default=VERDICT_TOL, help="decision tolerance"),
        "--seed": dict(type=int, default=0, help="seed for randomized checks"),
        "--mq": dict(default=None, help="reference operator JSON used in place of each device's own"),
    }

    def command(parent, name: str, summary: str, *options: str, output="output path (default stdout)"):
        p = parent.add_parser(name, help=summary)
        for option in options:
            p.add_argument(option, **shared[option])
        p.add_argument("-o", "--output", default=None, help=output)
        return p

    p = command(sub, "check", "fair-sampling verdict for a device file", "--mq", "--tol")
    p.add_argument("device")
    out_dir = "output directory (default <device>.decomposition)"
    p = command(sub, "decompose", "canonical filter/lossless decomposition", "--seed", output=out_dir)
    p.add_argument("device")
    p.add_argument("--trials", type=int, default=100, help="random states for verification")
    p = command(sub, "simulate", "joint statistics of a Bell scenario file", "--tol")
    p.add_argument("scenario")
    p.add_argument("--postselect", action="store_true", help="include post-selected statistics")
    p = command(sub, "bound", "deviation bounds and measured deviations for a scenario", "--mq", "--tol")
    p.add_argument("scenario")

    demos = sub.add_parser("demo", help="reproducible built-in demonstrations").add_subparsers(
        dest="name", required=True
    )
    p = command(demos, "makarov", "faked CHSH violation by a detector-blinding adversary", "--tol")
    p.set_defaults(demo=_demo_makarov)
    p.add_argument("--noise", type=float, default=0.0, help="outcome noise")
    p = command(demos, "analyser", "numeric against closed-form epsilon of mismatched analysers")
    p.set_defaults(demo=_demo_analyser)
    p.add_argument("--nmax", type=int, default=4, help="photon-number truncation")
    p.add_argument("--eta2", type=float, default=None, help="second detector efficiency")
    pair = p.add_mutually_exclusive_group()
    pair.add_argument("--eta1", type=float, default=None, help="first detector efficiency")
    pair.add_argument("--delta", type=float, default=None, help="relative miss-probability excess")
    p = command(demos, "chsh-singlet", "post-selected CHSH of a singlet at quarter efficiency", "--tol")
    p.set_defaults(demo=_demo_chsh_singlet)
    p = command(demos, "prop2-random", "ideal-experiment deviations of random fair scenarios", "--seed")
    p.set_defaults(demo=_demo_prop2_random)
    p.add_argument("--count", type=int, default=20, help="scenario count")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; an input, output or computation error prints ``error: ...`` and returns 1."""
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a replaced command is the one run.
    commands = {
        "check": cmd_check,
        "decompose": cmd_decompose,
        "simulate": cmd_simulate,
        "bound": cmd_bound,
        "demo": cmd_demo,
    }
    try:
        if "tol" in args:
            check_tolerance(args.tol, "--tol")
        return commands[args.command](args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}".rstrip() + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
