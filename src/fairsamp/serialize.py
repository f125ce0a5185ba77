"""JSON interchange formats shared by the CLI and the file-based interfaces.

Complex matrices serialize as arrays of rows whose entries are two-element
[real, imag] arrays.  Devices, scenarios, filter decompositions and verdicts
all build on that matrix format; probabilities are rounded to 15 significant
digits on output.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .analysis import FairSamplingVerdict
from .bell import LABEL_SEP, BellCoeffs, BellScenario
from .device import NOCLICK, LossyDevice
from .filters import FilterDecomposition


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def matrix_from_json(obj) -> np.ndarray:
    rows = []
    for row in obj:
        rows.append([complex(entry[0], entry[1]) for entry in row])
    a = np.array(rows, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix JSON has shape {a.shape}, expected square")
    return a


def sig15(x: float) -> float:
    """Round a probability (or any real) to 15 significant digits for reporting."""
    return float(format(float(x), ".15g"))


def device_to_json(dev: LossyDevice) -> dict:
    return {
        "dim": dev.dim,
        "settings": list(dev.settings),
        "outcomes": list(dev.outcomes),
        "povm": {
            x: {a: matrix_to_json(dev.element(x, a)) for a in (*dev.outcomes, NOCLICK)}
            for x in dev.settings
        },
    }


def device_from_json(obj: Mapping) -> LossyDevice:
    povm = {
        x: {a: matrix_from_json(m) for a, m in row.items()} for x, row in obj["povm"].items()
    }
    return LossyDevice(int(obj["dim"]), obj["settings"], obj["outcomes"], povm)


def decomposition_to_json(decomp: FilterDecomposition) -> tuple[dict, dict]:
    """Returns (filter.json payload, lossless.json payload)."""
    filters = {
        "dim": decomp.lossless.dim,
        "kraus": {
            x: {
                "click": matrix_to_json(f.kraus_click),
                "noclick": matrix_to_json(f.kraus_noclick),
            }
            for x, f in decomp.filters.items()
        },
    }
    return filters, device_to_json(decomp.lossless.to_lossy())


def verdict_to_json(verdict: FairSamplingVerdict) -> dict:
    return {
        "weak": verdict.weak,
        "strong": verdict.strong,
        "homogeneous": verdict.homogeneous,
        "epsilon": sig15(verdict.epsilon),
        "classical_eff": {x: sig15(v) for x, v in verdict.classical_eff.items()},
        "mq": matrix_to_json(verdict.quantum_elem),
        "support": matrix_to_json(verdict.support),
    }


def coeffs_from_json(obj) -> BellCoeffs:
    coeffs: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    for entry in obj:
        key = (tuple(str(x) for x in entry["x"]), tuple(str(a) for a in entry["a"]))
        if key in coeffs:
            raise ValueError(f"duplicate Bell coefficient for {key!r}")
        coeffs[key] = float(entry["c"])
    return coeffs


def coeffs_to_json(coeffs: BellCoeffs) -> list:
    return [
        {"x": list(xs), "a": list(outs), "c": float(c)} for (xs, outs), c in coeffs.items()
    ]


def scenario_from_json(obj: Mapping, base_dir: str | Path | None = None) -> BellScenario:
    """Parse a scenario whose devices are inline objects or file references."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    devices = []
    for party in obj["parties"]:
        spec = party["device"]
        if isinstance(spec, str):
            with open(base / spec, encoding="utf-8") as fh:
                spec = json.load(fh)
        dev = device_from_json(spec)
        if "dim" in party and int(party["dim"]) != dev.dim:
            raise ValueError(
                f"party declares dimension {party['dim']} but its device has {dev.dim}"
            )
        devices.append(dev)
    psi = matrix_from_json(obj["state"])
    coeffs = None
    if "bell" in obj and obj["bell"]:
        coeffs = coeffs_from_json(obj["bell"]["coeffs"])
    return BellScenario(devices, psi, coeffs)


def scenario_to_json(sc: BellScenario) -> dict:
    out: dict[str, Any] = {
        "parties": [{"device": device_to_json(dev), "dim": dev.dim} for dev in sc.devices],
        "state": matrix_to_json(sc.psi),
    }
    if sc.bell_coeffs is not None:
        out["bell"] = {"coeffs": coeffs_to_json(sc.bell_coeffs)}
    return out


def distribution_to_json(dist: Mapping) -> dict:
    """Distributions keyed by outcome tuples flatten to ``LABEL_SEP``-joined string keys."""
    out = {}
    for key, p in dist.items():
        label = LABEL_SEP.join(key) if isinstance(key, tuple) else str(key)
        out[label] = sig15(p)
    return out


def dump_json(obj, path: str | Path | None = None) -> str:
    """Serialize deterministically; write atomically when a path is given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return text


def load_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
