"""Command-line entry points: check, decompose, simulate, bound, demo.

Every command reads and writes UTF-8 JSON.  ``check`` exits 0 when the
device passes the weak fair-sampling test, 2 when it fails (with the
deviation reported), and 1 on input errors.  Reports always carry both the
theoretical bound and the measured quantity so the inequalities can be
audited externally.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import sys
from pathlib import Path

import numpy as np

from . import adversary, serialize
from .analysis import approximate_epsilon, check_exact, tv_bound
from .bell import (
    LABEL_SEP,
    BellScenario,
    _acceptance,
    _max_deviation,
    _postselected_bell_value,
    _postselected_tables,
    bound_report,
    deviation_bound,
    ideal_scenario,
    postselected_vs_ideal_deviation,
)
from .device import ZeroAcceptanceError, projective_qubit_device
from .filters import canonical_decomposition, verify_recomposition
from .linalg import VERDICT_TOL, projector, support_projector
from .optics import AnalyserSpec, analyser_device, analyser_epsilon_closed_form, analyser_mq
from .sampling import random_fair_sampling_device

DEMOS = ("makarov", "analyser", "chsh-singlet", "prop2-random")


def _emit(payload, out_path: str | None) -> None:
    text = serialize.dump_json(payload, out_path)
    if out_path is None:
        sys.stdout.write(text + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return 1


def cmd_check(args) -> int:
    try:
        dev = serialize.device_from_json(serialize.load_json(args.device))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"error: cannot load device: {exc}")
    try:
        verdict = check_exact(dev, tol=args.tol)
        if args.mq is not None:
            mq = serialize.matrix_from_json(serialize.load_json(args.mq))
            support, epsilon = support_projector(mq), approximate_epsilon(dev, mq)
            verdict = dataclasses.replace(verdict, quantum_elem=mq, support=support, epsilon=epsilon)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        return _fail(f"error: {exc}")
    payload = serialize.verdict_to_json(verdict)
    if verdict.epsilon < 1.0:
        payload["tv_bound"] = serialize.sig15(tv_bound(verdict.epsilon))
    _emit(payload, args.output)
    return 0 if verdict.weak else 2


def cmd_decompose(args) -> int:
    try:
        dev = serialize.device_from_json(serialize.load_json(args.device))
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"error: cannot load device: {exc}")
    try:
        decomp = canonical_decomposition(dev)
        max_dev = verify_recomposition(dev, decomp, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        return _fail(f"error: {exc}")
    out_dir = Path(args.output or (Path(args.device).stem + ".decomposition"))
    out_dir.mkdir(parents=True, exist_ok=True)
    filters_json, lossless_json = serialize.decomposition_to_json(decomp)
    serialize.dump_json(filters_json, out_dir / "filter.json")
    serialize.dump_json(lossless_json, out_dir / "lossless.json")
    serialize.dump_json(
        {"max_deviation": serialize.sig15(max_dev), "trials": args.trials, "seed": args.seed},
        out_dir / "verification.json",
    )
    sys.stdout.write(f"{out_dir}\n")
    return 0


def _scenario_report(sc: BellScenario, postselect: bool, tol: float) -> dict:
    """The ``simulate`` report, read from one raw table per setting tuple; omissions noted on stderr."""
    raw = sc._raw_arrays(sc.setting_tuples())
    post = _postselected_tables(raw)
    label = LABEL_SEP.join
    raw_labels = [label(outs) for outs in itertools.product(*sc._alphabets())]
    report: dict = {
        "raw": {label(xs): serialize.table_to_json(raw_labels, table) for xs, table in raw.items()},
        "acceptance": {label(xs): serialize.sig15(_acceptance(table)) for xs, table in raw.items()},
    }
    if postselect:
        good_labels = [label(outs) for outs in itertools.product(*(dev.outcomes for dev in sc.devices))]
        report["postselected"] = {label(xs): serialize.table_to_json(good_labels, ps) for xs, ps in post.items()}
        report["erased"] = [label(xs) for xs in raw if xs not in post]
    if sc.bell_coeffs is not None:
        if postselect:
            try:
                value = _postselected_bell_value(sc, post)
                report["bell_value_postselected"] = serialize.sig15(value)
            except ZeroAcceptanceError as exc:
                sys.stderr.write(f"note: bell_value_postselected omitted: {exc}\n")
        report["bell_value_raw"] = serialize.sig15(sc._functional.value(raw))
    try:
        verdicts = [check_exact(dev, tol=tol) for dev in sc.devices]
        if all(v.weak for v in verdicts):
            ideal = ideal_scenario(sc, [v.quantum_elem for v in verdicts])
            ideal_raw = ideal._raw_arrays(post)
            report["ideal_deviation"] = serialize.sig15(_max_deviation(post, ideal_raw))
    except ZeroAcceptanceError as exc:
        sys.stderr.write(f"note: no ideal experiment, ideal_deviation omitted: {exc}\n")
    return report


def cmd_simulate(args) -> int:
    try:
        sc = serialize.scenario_from_json(
            serialize.load_json(args.scenario), base_dir=Path(args.scenario).parent
        )
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"error: cannot load scenario: {exc}")
    try:
        report = _scenario_report(sc, args.postselect, args.tol)
    except ValueError as exc:
        return _fail(f"error: {exc}")
    _emit(report, args.output)
    return 0


def cmd_bound(args) -> int:
    try:
        sc = serialize.scenario_from_json(
            serialize.load_json(args.scenario), base_dir=Path(args.scenario).parent
        )
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"error: cannot load scenario: {exc}")
    try:
        if args.mq is not None:
            shared = serialize.matrix_from_json(serialize.load_json(args.mq))
            mqs = [shared for _ in sc.devices]
        else:
            mqs = [check_exact(dev, tol=args.tol).quantum_elem for dev in sc.devices]
        br = bound_report(sc, mqs)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"error: {exc}")
    report = {
        "per_party": [
            {"epsilon": serialize.sig15(e), "tv_bound": serialize.sig15(tv_bound(e))}
            for e in br.epsilons
        ],
        "epsilon_total": serialize.sig15(br.epsilon_total),
        "joint_tv_bound": serialize.sig15(tv_bound(br.epsilon_total)),
        "measured_joint_deviation": serialize.sig15(br.measured_joint_deviation),
    }
    if br.beta_max is not None:
        report["beta_max"] = serialize.sig15(br.beta_max)
        report["bell_deviation_bound"] = serialize.sig15(
            deviation_bound(br.epsilon_total, br.beta_max)
        )
        report["measured_bell_deviation"] = serialize.sig15(br.measured_bell_deviation)
    _emit(report, args.output)
    return 0


def chsh_coefficients() -> dict:
    """CHSH weights (-1)^(xy) * a * b over settings {0,1} and outcomes {+,-}."""
    coeffs = {}
    for x in "01":
        for y in "01":
            for a in "+-":
                for b in "+-":
                    sign = (-1.0) ** (int(x) * int(y))
                    val = (1.0 if a == "+" else -1.0) * (1.0 if b == "+" else -1.0)
                    coeffs[((x, y), (a, b))] = sign * val
    return coeffs


def singlet_state() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return projector(v)


def chsh_singlet_scenario(efficiency: float = 0.25) -> BellScenario:
    """Singlet measured by quarter-efficiency analysers at the Tsirelson angles."""
    dev_a = projective_qubit_device({"0": 0.0, "1": np.pi / 2.0}, efficiency)
    dev_b = projective_qubit_device(
        {"0": -3.0 * np.pi / 4.0, "1": 3.0 * np.pi / 4.0}, efficiency
    )
    return BellScenario([dev_a, dev_b], singlet_state(), chsh_coefficients())


def _demo_makarov(args) -> dict:
    hv = adversary.makarov_branches()
    traced = check_exact(hv.traced(), tol=args.tol)
    full = check_exact(hv.adversary_device(), tol=args.tol)
    result = adversary.run_faked_chsh(noise=args.noise, seed=args.seed)
    return {
        "traced_verdict": serialize.verdict_to_json(traced),
        "adversary_verdict": serialize.verdict_to_json(full),
        "chsh": serialize.sig15(result.chsh),
        "detection_rate": serialize.sig15(result.detection_rate),
        "correlators": {f"{x},{y}": serialize.sig15(v) for (x, y), v in result.correlators.items()},
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
    sc = chsh_singlet_scenario()
    report = _scenario_report(sc, True, args.tol)
    report["strong_fair_sampling"] = all(check_exact(dev, tol=args.tol).strong for dev in sc.devices)
    return report


def _demo_prop2_random(args) -> dict:
    rng = np.random.default_rng(args.seed)
    cases = []
    for _ in range(args.count):
        n_parties = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 5)) for _ in range(n_parties)]
        devices = [
            random_fair_sampling_device(d, int(rng.integers(2, 4)), int(rng.integers(2, 4)), rng)
            for d in dims
        ]
        g = rng.normal(size=(int(np.prod(dims)),) * 2) + 1j * rng.normal(size=(int(np.prod(dims)),) * 2)
        psi = g @ g.conj().T
        psi /= np.trace(psi).real
        cases.append(BellScenario(devices, psi))
    devs = [postselected_vs_ideal_deviation(sc, ideal_scenario(sc)) for sc in cases]
    return {
        "scenarios": args.count,
        "seed": args.seed,
        "max_deviation": serialize.sig15(max(devs)),
        "deviations": [serialize.sig15(d) for d in devs],
    }


def cmd_demo(args) -> int:
    try:
        if args.name == "makarov":
            payload = _demo_makarov(args)
        elif args.name == "analyser":
            payload = _demo_analyser(args)
        elif args.name == "chsh-singlet":
            payload = _demo_chsh_singlet(args)
        else:
            payload = _demo_prop2_random(args)
    except (ValueError, KeyError) as exc:
        return _fail(f"error: {exc}")
    _emit(payload, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="fairsamp",
        description="Fair-sampling analysis of lossy measurement devices and Bell experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=VERDICT_TOL, help="decision tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("check", help="fair-sampling verdict for a device file")
    p.add_argument("device")
    p.add_argument("--mq", default=None, help="reference operator JSON for mq, support and epsilon")
    common(p)

    p = sub.add_parser("decompose", help="canonical filter/lossless decomposition")
    p.add_argument("device")
    p.add_argument("--trials", type=int, default=100, help="random states for verification")
    common(p)

    p = sub.add_parser("simulate", help="joint statistics of a Bell scenario file")
    p.add_argument("scenario")
    p.add_argument("--postselect", action="store_true", help="include post-selected statistics")
    common(p)

    p = sub.add_parser("bound", help="deviation bounds and measured deviations for a scenario")
    p.add_argument("scenario")
    p.add_argument("--mq", default=None, help="reference operator JSON used for every party")
    common(p)

    p = sub.add_parser("demo", help="reproducible built-in demonstrations")
    p.add_argument("name", choices=DEMOS)
    p.add_argument("--noise", type=float, default=0.0, help="outcome noise for the makarov demo")
    p.add_argument("--nmax", type=int, default=4, help="photon-number truncation")
    p.add_argument("--eta1", type=float, default=None, help="first detector efficiency")
    p.add_argument("--eta2", type=float, default=None, help="second detector efficiency")
    p.add_argument("--delta", type=float, default=None, help="relative miss-probability excess")
    p.add_argument("--count", type=int, default=20, help="scenario count for prop2-random")
    common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a replaced command is the one run.
    commands = {
        "check": cmd_check,
        "decompose": cmd_decompose,
        "simulate": cmd_simulate,
        "bound": cmd_bound,
        "demo": cmd_demo,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
