"""Compare what two fairsamp source trees print and write, command by command.

Usage (from the repository root):

    python tools/output_identity.py --parent ../parent/src --change src [--seeds 1 2]

The inputs are built once, under the parent tree, by the benchmark's own
set-ups in ``perfbench/workloads.py``: the bell-large scenario files and the
device-verdict device files of each seed.  On those files it runs
``simulate``, ``simulate --postselect`` and ``bound`` (scenarios) or
``check`` and ``decompose --trials 10`` (devices), then seven ``demo``
invocations and the scripts in ``demos/``: each tree runs its own, from the
``demos`` directory beside its ``src`` (``<--parent>/../demos`` and
``<--change>/../demos``), and a script in only one tree is reported as
``only in`` that tree.  Each scenario file's parties
share one dimension d; ``eye<d>.json``, the identity of that dimension, is
written beside it, and ``bound --mq eye<d>.json`` runs on it too.  Each
scenario file also gets two copies, on which ``simulate --postselect`` and
``bound`` run:

- ``<name>.incomplete.json`` has its middle Bell coefficient entry removed:
  ``simulate`` prints the partial Bell value and ``bound`` the missing-entry
  error;
- ``<name>.dead.json`` gives party 0 an extra setting ``dead`` whose good
  elements are all zero (its no-click element is the identity), and a
  coefficient of 1 for every good outcome tuple of every setting tuple with
  ``dead``: ``simulate`` notes that it omits the post-selected Bell value and
  ``bound`` fails, both with the one error that names the erased tuples.

Each command runs in a fresh
interpreter under each tree's ``PYTHONPATH``, with one BLAS thread, in an
empty working directory of its own.  Its stdout, stderr, exit code and every
file it writes there, bytes and permission bits, are compared; the working
directory's path is replaced by ``<out>`` in stdout and stderr first, since
``decompose`` prints the directory it wrote.  Every difference is printed on
one line, and the exit code is 1 when there is one, 0 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Runs ``fairsamp.cli.main`` on the interpreter's arguments.
CLI = "import sys; from fairsamp.cli import main; sys.exit(main(sys.argv[1:]))"
#: Writes the inputs of workload ``sys.argv[1]`` for seed ``sys.argv[2]`` into the directory ``sys.argv[3]``.
BUILD = (
    "import sys; from pathlib import Path; import workloads; "
    "getattr(workloads, sys.argv[1])(int(sys.argv[2]), Path(sys.argv[3]))"
)
DEMOS = (
    ["makarov"],
    ["makarov", "--noise", "0.1"],
    ["analyser", "--nmax", "2"],
    ["analyser", "--eta2", "0.9", "--delta", "0.05", "--nmax", "3"],
    ["analyser", "--eta1", "0.7", "--nmax", "2"],
    ["chsh-singlet"],
    ["prop2-random", "--seed", "3", "--count", "5"],
)
#: Commands run on each copy of a scenario file: one coefficient entry removed, or a dead setting added.
COPY_COMMANDS = (["simulate", "--postselect"], ["bound"])
#: Seconds one command may take before the comparison stops.
TIMEOUT_S = 600


@dataclass(frozen=True)
class Run:
    """One command: its name in the report and the interpreter's arguments.

    A ``script`` names a file of ``demos/``; each tree runs its own copy, and ``args`` is empty.
    """

    name: str
    args: tuple[str, ...]
    script: str | None = None


def cli_run(*argv: str) -> Run:
    return Run(" ".join(argv), ("-c", CLI, *argv))


def demos(src: Path) -> Path:
    """The ``demos`` directory of the tree whose ``src`` directory is ``src``."""
    return src.resolve().parent / "demos"


def demo_runs(*trees: Path) -> list[Run]:
    """One run per script in the ``demos`` directory of any of the trees, by name."""
    names = sorted({script.name for src in trees for script in demos(src).glob("*.py")})
    return [Run(f"demos/{name}", (), name) for name in names]


def environment(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src.resolve()), **{var: "1" for var in BLAS_THREAD_VARS}}


def identity_json(dim: int) -> list:
    """The ``dim`` x ``dim`` identity as a JSON matrix of ``[re, im]`` pairs."""
    return [[[float(i == j), 0.0] for j in range(dim)] for i in range(dim)]


def identity_reference(path: Path) -> Path:
    """Write ``eye<d>.json``, the identity of scenario ``path``'s party dimension d, beside it, and return it.

    Parties of different dimensions raise ``ValueError``: one matrix cannot serve them all.
    """
    dims = sorted({party["dim"] for party in json.loads(path.read_text())["parties"]})
    if len(dims) != 1:
        raise ValueError(f"{path} has parties of dimensions {dims}")
    eye = path.with_name(f"eye{dims[0]}.json")
    eye.write_text(json.dumps(identity_json(dims[0])))
    return eye


def without_one_coefficient(path: Path) -> Path:
    """Write, beside scenario ``path``, a copy with its middle Bell coefficient entry removed, and return it."""
    scenario = json.loads(path.read_text())
    coeffs = scenario["bell"]["coeffs"]
    del coeffs[len(coeffs) // 2]
    copy = path.with_name(f"{path.stem}.incomplete.json")
    copy.write_text(json.dumps(scenario))
    return copy


def with_dead_setting(path: Path) -> Path:
    """Write, beside scenario ``path``, a copy in which party 0 has a setting ``dead`` that never clicks; return it.

    The copy's Bell coefficients weigh every good outcome tuple of every setting tuple with ``dead`` by 1.
    """
    scenario = json.loads(path.read_text())
    devices = [party["device"] for party in scenario["parties"]]
    first, dim = devices[0], devices[0]["dim"]
    zero = [[[0.0, 0.0]] * dim for _ in range(dim)]
    first["settings"].append("dead")
    first["povm"]["dead"] = {**{a: zero for a in first["outcomes"]}, "noclick": identity_json(dim)}
    outcomes = list(itertools.product(*(dev["outcomes"] for dev in devices)))
    scenario["bell"]["coeffs"].extend(
        {"x": ["dead", *xs], "a": list(outs), "c": 1.0}
        for xs in itertools.product(*(dev["settings"] for dev in devices[1:]))
        for outs in outcomes
    )
    copy = path.with_name(f"{path.stem}.dead.json")
    copy.write_text(json.dumps(scenario))
    return copy


def build_inputs(parent: Path, seeds: list[int], inputs: Path) -> list[Run]:
    """Write each seed's workload inputs under ``inputs`` with the parent tree, and list the runs on them."""
    env = {**environment(parent), "PYTHONPATH": os.pathsep.join([str(parent.resolve()), str(ROOT / "perfbench")])}
    runs = []
    for seed in seeds:
        for setup, commands in (
            ("setup_bell_large", (["simulate"], ["simulate", "--postselect"], ["bound"])),
            ("setup_device_verdict", (["check"], ["decompose", "--trials", "10"])),
        ):
            where = inputs / f"seed{seed}" / setup
            where.mkdir(parents=True)
            subprocess.run([sys.executable, "-c", BUILD, setup, str(seed), str(where)], env=env, check=True)
            for path in sorted(where.glob("*.json")):
                runs.extend(cli_run(command[0], str(path), *command[1:]) for command in commands)
                if setup == "setup_bell_large":
                    runs.append(cli_run("bound", str(path), "--mq", str(identity_reference(path))))
                    for copy in (without_one_coefficient(path), with_dead_setting(path)):
                        runs.extend(cli_run(command[0], str(copy), *command[1:]) for command in COPY_COMMANDS)
    runs.extend(cli_run("demo", *argv) for argv in DEMOS)
    return runs


def observe(src: Path, run: Run, cwd: Path) -> dict[str, bytes] | None:
    """What ``run`` leaves under ``src``: stdout, stderr and exit code, then each file it wrote in ``cwd``.

    Each written file is seen twice: ``file <name>``, its bytes, and
    ``mode <name>``, its permission bits as ``oct(st_mode & 0o777)``.

    None when ``run`` is a script that the tree's ``demos`` directory lacks.
    """
    args = run.args
    if run.script is not None:
        script = demos(src) / run.script
        if not script.is_file():
            return None
        args = (str(script),)
    cwd.mkdir(parents=True)
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=environment(src), capture_output=True, timeout=TIMEOUT_S
    )
    here = str(cwd).encode()
    seen = {
        "stdout": done.stdout.replace(here, b"<out>"),
        "stderr": done.stderr.replace(here, b"<out>"),
        "exit code": str(done.returncode).encode(),
    }
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        name = path.relative_to(cwd)
        seen[f"file {name}"] = path.read_bytes()
        seen[f"mode {name}"] = oct(path.stat().st_mode & 0o777).encode()
    return seen


def first_difference(a: bytes, b: bytes) -> str:
    """The first line on which ``a`` and ``b`` differ, from each, as ``parent ... change ...``."""
    lines = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(*lines)) if x != y), min(map(len, lines)))
    parent, change = (repr(side[i][:120]) if i < len(side) else "(no line)" for side in lines)
    return f"line {i + 1}: parent {parent}, change {change}"


def compare(parent: Path, change: Path, runs: list[Run], work: Path) -> list[str]:
    """One line per difference between the two trees' observations of each run."""
    differences = []
    for i, run in enumerate(runs):
        seen = {side: observe(src, run, work / side / str(i)) for side, src in (("parent", parent), ("change", change))}
        lacking = [side for side, observed in seen.items() if observed is None]
        if lacking:
            differences.append(f"{run.name}: only in {'change' if lacking == ['parent'] else 'parent'}")
            continue
        for key in sorted(seen["parent"].keys() | seen["change"].keys()):
            a, b = (seen[side].get(key) for side in ("parent", "change"))
            if a is None or b is None:
                differences.append(f"{run.name}: {key} only in {'change' if a is None else 'parent'}")
            elif a != b:
                differences.append(f"{run.name}: {key} differs, {first_difference(a, b)}")
    return differences


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent tree's src/ directory")
    p.add_argument("--change", type=Path, required=True, help="the changed tree's src/ directory")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="workload seeds of the inputs")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output-identity-") as tmp:
        inputs = Path(tmp) / "inputs"
        runs = build_inputs(args.parent, args.seeds, inputs) + demo_runs(args.parent, args.change)
        differences = [line.replace(str(inputs), "<in>") for line in compare(args.parent, args.change, runs, Path(tmp))]
    for line in differences:
        print(line)
    print(f"{len(runs)} runs, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
