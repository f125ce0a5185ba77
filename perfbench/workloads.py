"""The three benchmark workloads: seeded set-up, operations and correctness gates.

A workload is built in two steps.  ``setup(seed, work_dir)`` generates every
input from the seed (random POVMs, states, Bell coefficients) and writes the
JSON files the CLI operations read; it returns the list of operations that
make up one *pass*.  The runner repeats whole passes back to back.

An operation is one user-level request: a CLI command run in-process through
``fairsamp.cli.main(argv)`` or one library call group.  ``Op.run(pass_no)`` is
the timed part; ``Op.check`` runs afterwards, untimed, and raises
``GateError`` when the output is wrong.  Random generation never happens
inside ``Op.run``.  Only the ``prop2-random`` demo uses the pass number: it
derives its CLI seed from its position and the pass number alone, never from
the workload seed, so every run makes the same sequence of randomly sized
demo scenarios.

Sizes are a fixed grid per workload and only the values are drawn from the
seed, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fairsamp as fs
from fairsamp import cli, serialize
from fairsamp.sampling import random_density, random_fair_sampling_device

#: Deviation allowed between post-selected and ideal statistics of fair scenarios.
EXACT_TOL = 1e-9


class GateError(AssertionError):
    """An operation produced output that fails its correctness check."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Op:
    """One timed request plus the check its result must pass.

    ``run`` is called with the pass number; ``check`` with what ``run`` returned.
    """

    kind: str
    run: Callable[[int], Any]
    check: Callable[[Any], None] = field(default=lambda result: None)


@dataclass
class Plan:
    """What set-up produced: the pass of operations and a short warm-up list."""

    ops: list[Op]
    warmup: list[Op]


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def derived_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0] % 1_000_000)


# --------------------------------------------------------------------------- inputs


def random_unitary(dim: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """exp(i * angle * H) for a random Hermitian H of unit operator norm."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    w, v = np.linalg.eigh(h)
    w = w / np.max(np.abs(w))
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def perturbed_device(dev: fs.LossyDevice, angle: float, rng: np.random.Generator) -> fs.LossyDevice:
    """Rotate the last setting's good elements by a small unitary.

    Unitary conjugation keeps every element positive and the click element
    below the identity, so the result is a valid device whose click elements
    are no longer proportional: it samples unfairly with a small epsilon.
    """
    u = random_unitary(dev.dim, angle, rng)
    x_last = dev.settings[-1]
    povm = {
        x: {a: (u @ dev.element(x, a) @ u.conj().T if x == x_last else dev.element(x, a)) for a in dev.outcomes}
        for x in dev.settings
    }
    return fs.LossyDevice(dev.dim, dev.settings, dev.outcomes, povm)


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    rho = random_density(dim, rng)
    return (rho + rho.conj().T) / 2.0


def full_bell_coefficients(devices, rng: np.random.Generator) -> dict:
    """Random +-1 weight for every setting tuple and good outcome tuple."""
    coeffs = {}
    for xs in itertools.product(*(d.settings for d in devices)):
        for outs in itertools.product(*(d.outcomes for d in devices)):
            coeffs[(xs, outs)] = float(rng.choice((-1.0, 1.0)))
    return coeffs


def write_json(obj, path: Path) -> Path:
    serialize.dump_json(obj, path)
    return path


# --------------------------------------------------------------------------- CLI operations


def run_cli(argv: list[str]) -> int:
    """Run one CLI command in-process, swallowing what it prints."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_op(kind: str, argv: list[str], expect_code: int, check_output: Callable[[], None]) -> Op:
    def check(code):
        gate(code == expect_code, f"{kind}: exit code {code}, expected {expect_code}")
        check_output()

    return Op(kind, lambda _pass: run_cli(argv), check)


# --------------------------------------------------------------------------- gates


def check_distribution(dist: dict, label: str, tol: float = EXACT_TOL) -> None:
    total = sum(dist.values())
    gate(abs(total - 1.0) <= tol, f"{label} sums to {total!r}")
    gate(all(p >= 0.0 for p in dist.values()), f"{label} has a negative probability")


def check_simulate_report(report: dict) -> None:
    gate(bool(report["raw"]), "simulate: empty raw table")
    for label, dist in report["raw"].items():
        check_distribution(dist, f"simulate raw[{label}]")
    for label, dist in report.get("postselected", {}).items():
        check_distribution(dist, f"simulate postselected[{label}]")
    for label, acc in report["acceptance"].items():
        gate(0.0 <= acc <= 1.0 + EXACT_TOL, f"simulate acceptance[{label}] = {acc!r}")
    gate("bell_value_raw" in report, "simulate: no raw Bell value")
    ideal = report.get("ideal_deviation")
    gate(ideal is not None and 0.0 <= ideal <= EXACT_TOL, f"simulate: ideal deviation {ideal!r}")


def check_bound_report(report: dict) -> None:
    gate(report["per_party"][0]["epsilon"] > 0.0, "bound: the perturbed party reports epsilon 0")
    measured, bound = report["measured_joint_deviation"], report["joint_tv_bound"]
    gate(measured <= bound + EXACT_TOL, f"bound: joint deviation {measured!r} > bound {bound!r}")
    measured, bound = report["measured_bell_deviation"], report["bell_deviation_bound"]
    gate(measured <= bound + EXACT_TOL, f"bound: Bell deviation {measured!r} > bound {bound!r}")


# --------------------------------------------------------------------------- bell-large

#: (local dimension, parties) of the three fixed scenarios: D = 16, 27, 64.
BELL_SHAPES = ((2, 4), (3, 3), (4, 3))
BELL_SETTINGS, BELL_OUTCOMES = 2, 3
#: Rotation applied to one setting of party 0 in the CLI scenarios.
PERTURBATION = 0.02


def setup_bell_large(seed: int, work_dir: Path) -> Plan:
    ops: list[Op] = []
    for k, (d, n) in enumerate(BELL_SHAPES):
        rng = rng_for(seed, 1, k)
        fair = [random_fair_sampling_device(d, BELL_SETTINGS, BELL_OUTCOMES, rng) for _ in range(n)]
        psi = random_state(d**n, rng)
        coeffs = full_bell_coefficients(fair, rng)
        fair_sc = fs.BellScenario(fair, psi, coeffs)
        unfair = [perturbed_device(fair[0], PERTURBATION, rng), *fair[1:]]
        fair_path = write_json(serialize.scenario_to_json(fair_sc), work_dir / f"bell{k}.fair.json")
        unfair_path = write_json(
            serialize.scenario_to_json(fs.BellScenario(unfair, psi, coeffs)), work_dir / f"bell{k}.json"
        )
        ops.extend(bell_ops(k, fair_sc, fair_path, unfair_path, work_dir))
    # The D = 27 scenario touches every code path at a fraction of the pass cost.
    return Plan(ops=ops, warmup=ops[3:6])


def bell_ops(k: int, fair_sc: fs.BellScenario, fair_path: Path, unfair_path: Path, work_dir: Path) -> list[Op]:
    def check_verify(worst):
        gate(0.0 <= worst <= EXACT_TOL, f"verify: deviation {worst!r}")

    sim_out = work_dir / f"bell{k}.simulate.json"
    bound_out = work_dir / f"bell{k}.bound.json"
    return [
        Op("verify_postselection", lambda _pass: fs.verify_postselection_equivalence(fair_sc), check_verify),
        cli_op(
            "cli_simulate",
            ["simulate", "--postselect", str(fair_path), "-o", str(sim_out)],
            0,
            lambda: check_simulate_report(read_json(sim_out)),
        ),
        cli_op(
            "cli_bound",
            ["bound", str(unfair_path), "-o", str(bound_out)],
            0,
            lambda: check_bound_report(read_json(bound_out)),
        ),
    ]


# --------------------------------------------------------------------------- device-verdict

#: (n_max, number of angles, CLI check on its file, CLI decompose on its file)
#: of the five analysers; even rows have delta > 0, odd rows delta = 0.  A pass
#: has an odd number of operations (33), so the median latency falls inside
#: one operation's cluster of samples, not on the gap between two.
ANALYSERS = ((6, 8, True, True), (7, 7, True, True), (8, 6, False, False), (9, 5, False, False), (10, 4, False, False))
#: (dimension, fair, CLI decompose on its file) of the five random devices; each
#: has 3 settings x 3 outcomes and gets a CLI check.
RANDOM_DEVICES = ((16, True, True), (24, False, False), (32, True, True), (40, False, False), (48, True, False))
RECOMPOSITION_TRIALS = 10
CHSH_SAMPLES = 2000


def make_analyser(n_max: int, n_angles: int, with_delta: bool, rng: np.random.Generator):
    eta2 = float(rng.uniform(0.6, 0.95))
    delta = float(rng.uniform(0.02, 0.2)) if with_delta else 0.0
    eta1 = 1.0 - (1.0 - eta2) * (1.0 + delta)
    angles = tuple(float(t) for t in np.sort(rng.uniform(0.0, np.pi, size=n_angles)))
    spec = fs.AnalyserSpec(eta1=eta1, eta2=eta2, angles=angles, n_max=n_max)
    return spec, delta


def setup_device_verdict(seed: int, work_dir: Path) -> Plan:
    rng = rng_for(seed, 2)
    lib: list[Op] = []
    files: list[Op] = []
    for i, (n_max, n_angles, cli_check, cli_decompose) in enumerate(ANALYSERS):
        spec, delta = make_analyser(n_max, n_angles, with_delta=(i % 2 == 0), rng=rng)
        dev = fs.analyser_device(spec)
        lib.extend(analyser_ops(dev, spec, delta))
        if cli_check or cli_decompose:
            path = write_json(serialize.device_to_json(dev), work_dir / f"analyser{i}.json")
        if cli_check:
            files.append(check_file_op(path, work_dir, fair=delta == 0.0))
        if cli_decompose:
            files.append(decompose_file_op(path, work_dir))
    for j, (dim, fair, cli_decompose) in enumerate(RANDOM_DEVICES):
        dev = random_fair_sampling_device(dim, 3, 3, rng)
        if not fair:
            dev = perturbed_device(dev, PERTURBATION, rng)
        lib.extend(random_device_ops(dev, fair))
        path = write_json(serialize.device_to_json(dev), work_dir / f"device{j}.json")
        files.append(check_file_op(path, work_dir, fair))
        if cli_decompose:
            files.append(decompose_file_op(path, work_dir))
    chsh_seed = derived_seed(seed, 2, 1)
    extra = [
        Op("faked_chsh", lambda _pass: fs.run_faked_chsh(samples=CHSH_SAMPLES, seed=chsh_seed), check_faked_chsh),
        demo_analyser_op(work_dir),
    ]
    ops = lib + files + extra
    warmup = [lib[0], lib[1], lib[-2], lib[-1], files[0], files[1], *extra]
    return Plan(ops=ops, warmup=warmup)


def analyser_ops(dev: fs.LossyDevice, spec: fs.AnalyserSpec, delta: float) -> list[Op]:
    expected = fs.analyser_epsilon_closed_form(spec.eta2, delta)

    def check_verdict(verdict):
        gate(verdict.weak == (delta == 0.0), f"check_exact: weak={verdict.weak} for delta={delta!r}")

    def check_epsilon(eps):
        gate(abs(eps - expected) <= EXACT_TOL, f"analyser epsilon {eps!r} != closed form {expected!r}")

    return [
        Op("check_exact", lambda _pass: fs.check_exact(dev), check_verdict),
        Op("approximate_epsilon", lambda _pass: fs.approximate_epsilon(dev, fs.analyser_mq(spec.eta2, spec.n_max)), check_epsilon),
    ]


def random_device_ops(dev: fs.LossyDevice, fair: bool) -> list[Op]:
    def check_verdict(verdict):
        gate(verdict.weak == fair, f"check_exact: weak={verdict.weak}, expected {fair}")

    def decompose(_pass):
        return fs.verify_recomposition(dev, fs.canonical_decomposition(dev), trials=RECOMPOSITION_TRIALS)

    def check_recomposition(worst):
        gate(0.0 <= worst <= EXACT_TOL, f"recomposition deviation {worst!r}")

    return [
        Op("check_exact", lambda _pass: fs.check_exact(dev), check_verdict),
        Op("decompose", decompose, check_recomposition),
    ]


def check_file_op(path: Path, work_dir: Path, fair: bool) -> Op:
    out = work_dir / f"{path.stem}.check.json"

    def check_output():
        verdict = read_json(out)
        gate(verdict["weak"] == fair, f"cli check: weak={verdict['weak']}, expected {fair}")

    return cli_op("cli_check", ["check", str(path), "-o", str(out)], 0 if fair else 2, check_output)


def decompose_file_op(path: Path, work_dir: Path) -> Op:
    out = work_dir / f"{path.stem}.decomposition"

    def check_output():
        worst = read_json(out / "verification.json")["max_deviation"]
        gate(0.0 <= worst <= EXACT_TOL, f"cli decompose: recomposition deviation {worst!r}")
        gate((out / "filter.json").is_file() and (out / "lossless.json").is_file(), "cli decompose: missing files")

    argv = ["decompose", str(path), "--trials", str(RECOMPOSITION_TRIALS), "-o", str(out)]
    return cli_op("cli_decompose", argv, 0, check_output)


def check_faked_chsh(result) -> None:
    gate(abs(result.chsh - 4.0) <= EXACT_TOL, f"faked CHSH {result.chsh!r} != 4")
    off = abs(result.sampled_chsh - result.chsh)
    gate(off <= 5.0 * result.sampled_std_error, f"sampled CHSH off by {off!r} ({result.sampled_std_error!r} s.e.)")


def demo_analyser_op(work_dir: Path) -> Op:
    out = work_dir / "demo_analyser.json"

    def check_output():
        rows = read_json(out)["sweep"]
        gate(len(rows) == 9, f"demo analyser: {len(rows)} rows")
        for row in rows:
            off = abs(row["epsilon_numeric"] - row["epsilon_closed_form"])
            gate(off <= EXACT_TOL, f"demo analyser: epsilon off by {off!r} at {row}")

    return cli_op("cli_demo_analyser", ["demo", "analyser", "--nmax", "6", "-o", str(out)], 0, check_output)


# --------------------------------------------------------------------------- scenario-sweep

#: (parties, copies of every dimension tuple): 27 scenarios per party count,
#: which weights the shapes as prop2-random does (parties uniform, then dims uniform).
SWEEP_STRATA = ((1, 9), (2, 3), (3, 1))
LOCAL_DIMS = (2, 3, 4)
DEMO_EVERY = 10
DEMO_COUNT = 5


@dataclass
class RawScenario:
    """Plain arrays from set-up; the operation builds the library objects."""

    dims: tuple[int, ...]
    parties: list[tuple[list[str], list[str], dict]]
    psi: np.ndarray


def sweep_shapes() -> list[tuple[tuple[int, int, int], ...]]:
    """(dim, settings, outcomes) per party; settings/outcomes cycle over {2, 3}."""
    shapes = []
    counter = itertools.count()
    for n_parties, copies in SWEEP_STRATA:
        for dims in itertools.product(LOCAL_DIMS, repeat=n_parties):
            for _ in range(copies):
                parties = []
                for d in dims:
                    j = next(counter)
                    parties.append((d, 2 + j % 2, 2 + (j // 2) % 2))
                shapes.append(tuple(parties))
    return shapes


def setup_scenario_sweep(seed: int, work_dir: Path) -> Plan:
    rng = rng_for(seed, 3)
    shapes = sweep_shapes()
    order = rng.permutation(len(shapes))
    library = []
    for idx in order:
        parties = []
        for d, n_set, n_out in shapes[idx]:
            dev = random_fair_sampling_device(d, n_set, n_out, rng)
            povm = {x: {a: np.array(dev.element(x, a)) for a in dev.outcomes} for x in dev.settings}
            parties.append((list(dev.settings), list(dev.outcomes), povm))
        dims = tuple(d for d, _, _ in shapes[idx])
        library.append(sweep_op(RawScenario(dims, parties, random_state(int(np.prod(dims)), rng))))
    ops: list[Op] = []
    per_block = DEMO_EVERY - 1
    for b in range(0, len(library), per_block):
        ops.extend(library[b : b + per_block])
        ops.append(demo_prop2_op(b, work_dir))
    return Plan(ops=ops, warmup=ops[:DEMO_EVERY])


def sweep_op(raw: RawScenario) -> Op:
    def run(_pass):
        devices = [fs.LossyDevice(d, xs, outs, povm) for d, (xs, outs, povm) in zip(raw.dims, raw.parties)]
        sc = fs.BellScenario(devices, raw.psi)
        return fs.postselected_vs_ideal_deviation(sc, fs.ideal_scenario(sc))

    def check(worst):
        gate(0.0 <= worst <= EXACT_TOL, f"sweep: dims {raw.dims} deviation {worst!r}")

    return Op("sweep_scenario", run, check)


def demo_prop2_op(block: int, work_dir: Path) -> Op:
    def run(pass_no):
        demo_seed = derived_seed(3, block, pass_no)
        out = work_dir / f"prop2_{block}.json"
        argv = ["demo", "prop2-random", "--count", str(DEMO_COUNT), "--seed", str(demo_seed), "-o", str(out)]
        return run_cli(argv), out

    def check(result):
        code, out = result
        gate(code == 0, f"prop2-random: exit code {code}")
        payload = read_json(out)
        gate(payload["scenarios"] == DEMO_COUNT, f"prop2-random: {payload['scenarios']} scenarios")
        gate(payload["max_deviation"] <= EXACT_TOL, f"prop2-random: max deviation {payload['max_deviation']!r}")

    return Op("cli_demo_prop2", run, check)


#: Workload name -> set-up; BENCHMARK.json records why each workload exists.
WORKLOADS = {
    "bell-large": setup_bell_large,
    "device-verdict": setup_device_verdict,
    "scenario-sweep": setup_scenario_sweep,
}
