"""JSON interchange formats shared by the CLI and the file-based interfaces.

Complex matrices serialize as arrays of rows whose entries are two-element
[real, imag] arrays.  Devices, scenarios, filter decompositions and verdicts
all build on that matrix format; probabilities are rounded to 15 significant
digits on output.  Output text is byte-identical to
``json.dumps(obj, indent=2, sort_keys=True)``; ``dump_json`` writes float
blocks and float tables in bulk instead of one value at a time.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import inf, isfinite, nan
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .analysis import FairSamplingVerdict
from .bell import LABEL_SEP, BellCoeffs, BellScenario
from .device import NOCLICK, LossyDevice
from .filters import FilterDecomposition


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of ``[re, im]`` pairs holding every bit of each part, ``-0.0`` included."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _first_index(bad, items) -> int:
    return next(i for i, item in enumerate(items) if bad(item))


def matrix_from_json(obj) -> np.ndarray:
    """Parse a square complex matrix written as rows of ``[re, im]`` pairs.

    Each part must be a finite JSON number; every bit of it is kept.  Anything
    else raises ``ValueError`` naming the first offending row or entry.
    """
    if type(obj) is not list or not obj:
        raise ValueError(f"matrix must be a non-empty list of rows, got {obj!r:.40}")
    n = len(obj)
    if set(map(type, obj)) != {list} or set(map(len, obj)) != {n}:
        i = _first_index(lambda row: type(row) is not list or len(row) != n, obj)
        raise ValueError(f"row {i} is {obj[i]!r:.40}, expected length {n} (square matrix)")
    entries = list(chain.from_iterable(obj))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        i = _first_index(lambda e: type(e) is not list or len(e) != 2, entries)
        raise ValueError(f"entry [{i // n}][{i % n}] is {entries[i]!r:.40}, expected [re, im]")
    parts = list(chain.from_iterable(entries))
    if not set(map(type, parts)) <= {float, int}:
        i = _first_index(lambda v: type(v) not in (float, int), parts) // 2
        raise ValueError(f"entry [{i // n}][{i % n}] is {entries[i]!r:.40}, expected two numbers")
    try:
        flat = np.fromiter(parts, dtype=np.float64, count=len(parts))
    except OverflowError:
        raise ValueError("matrix holds an integer too large for a float") from None
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite)) // 2
        raise ValueError(f"entry [{i // n}][{i % n}] is {entries[i]!r:.40}, expected finite numbers")
    return flat.view(np.complex128).reshape(n, n)


def _matrix_at(where: str, obj) -> np.ndarray:
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def sig15(x: float) -> float:
    """Round a probability (or any real) to 15 significant digits for reporting."""
    return float(format(float(x), ".15g"))


def _sig15_all(values: Sequence[float]) -> list[float]:
    """``sig15`` of every float in ``values``: the same ``.15g`` rule, in one ``%`` call parsed back."""
    return list(map(float, ("%.15g " * len(values) % tuple(values)).split()))


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


def _field(obj: dict, key: str, owner: str = ""):
    """``obj[key]`` of a JSON object; a missing field raises ``ValueError`` naming it (and ``owner``)."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}" + (f" in {owner}" if owner else ""))
    return obj[key]


def _json_object(obj, where: str) -> dict:
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {obj!r:.40}")
    return obj


def _dim_at(where: str, value) -> int:
    if type(value) is not int or value < 1:
        raise ValueError(f"{where} must be a positive integer, got {value!r:.40}")
    return value


def _number_at(where: str, value) -> float:
    try:
        x = float(value) if type(value) in (int, float) else nan
    except OverflowError:
        x = inf
    if not isfinite(x):
        raise ValueError(f"{where} must be a finite JSON number, got {value!r:.40}")
    return x


def _labels_at(where: str, value) -> list[str]:
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise ValueError(f"{where} must be a list of strings, got {value!r:.40}")
    return value


def device_from_json(obj) -> LossyDevice:
    """Parse a device object; a malformed field raises ``ValueError`` naming it."""
    obj = _json_object(obj, "device")
    dim = _dim_at("dim", _field(obj, "dim"))
    settings = _labels_at("settings", _field(obj, "settings"))
    outcomes = _labels_at("outcomes", _field(obj, "outcomes"))
    table = _json_object(_field(obj, "povm"), "povm")
    povm = {
        x: {a: _matrix_at(f"povm[{x!r}][{a!r}]", m) for a, m in _json_object(row, f"povm[{x!r}]").items()}
        for x, row in table.items()
    }
    return LossyDevice(dim, settings, outcomes, povm)


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
    """Parse a Bell coefficient list; a malformed entry raises ``ValueError`` naming it and its field.

    The entries are type-checked as whole lists; only when that finds a fault
    are they parsed one at a time, to name the first bad entry.
    """
    if type(obj) is not list:
        raise ValueError(f"coeffs must be a list, got {obj!r:.40}")
    coeffs = _coeffs_in_bulk(obj)
    return coeffs if coeffs is not None else _coeffs_by_entry(obj)


def _coeffs_in_bulk(obj: list) -> BellCoeffs | None:
    """The coefficients of a well-formed entry list, or None if any entry or field is malformed."""
    if not set(map(type, obj)) <= {dict}:
        return None
    try:
        xs, outs, cs = zip(*map(itemgetter("x", "a", "c"), obj)) if obj else ((), (), ())
    except KeyError:
        return None
    for labels in (xs, outs):
        if not set(map(type, labels)) <= {list} or not set(map(type, chain.from_iterable(labels))) <= {str}:
            return None
    if not set(map(type, cs)) <= {float, int}:
        return None
    try:
        weights = np.fromiter(cs, dtype=np.float64, count=len(cs))
    except OverflowError:
        return None
    coeffs = dict(zip(zip(map(tuple, xs), map(tuple, outs)), weights.tolist()))
    if len(coeffs) != len(cs) or not np.isfinite(weights).all():
        return None
    return coeffs


def _coeffs_by_entry(obj: list) -> BellCoeffs:
    coeffs: dict[tuple[tuple[str, ...], tuple[str, ...]], float] = {}
    for i, entry in enumerate(obj):
        where = f"coeffs[{i}]"
        entry = _json_object(entry, where)
        key = (
            tuple(_labels_at(f"{where}.x", _field(entry, "x", where))),
            tuple(_labels_at(f"{where}.a", _field(entry, "a", where))),
        )
        c = _number_at(f"{where}.c", _field(entry, "c", where))
        if key in coeffs:
            raise ValueError(f"duplicate Bell coefficient for {key!r}")
        coeffs[key] = c
    return coeffs


def coeffs_to_json(coeffs: BellCoeffs) -> list:
    return [
        {"x": list(xs), "a": list(outs), "c": float(c)} for (xs, outs), c in coeffs.items()
    ]


def scenario_from_json(obj, base_dir: str | Path | None = None) -> BellScenario:
    """Parse a scenario whose devices are inline objects or file references."""
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    obj = _json_object(obj, "scenario")
    parties = _field(obj, "parties")
    if type(parties) is not list:
        raise ValueError(f"parties must be a list, got {parties!r:.40}")
    devices = []
    for i, party in enumerate(parties):
        party = _json_object(party, f"party {i}")
        try:
            spec = _field(party, "device")
            dev = device_from_json(load_json(base / spec) if isinstance(spec, str) else spec)
            declared = _dim_at("dim", party["dim"]) if "dim" in party else dev.dim
        except ValueError as exc:
            raise ValueError(f"party {i}: {exc}") from None
        if declared != dev.dim:
            raise ValueError(f"party declares dimension {declared} but its device has {dev.dim}")
        devices.append(dev)
    psi = _matrix_at("state", _field(obj, "state"))
    coeffs = None
    if obj.get("bell"):
        coeffs = coeffs_from_json(_field(_json_object(obj["bell"], "bell"), "coeffs"))
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


def table_to_json(labels: Sequence[str], table: np.ndarray) -> dict:
    """A joint table array as ``distribution_to_json`` writes it; ``labels`` name its entries in C order."""
    return dict(zip(labels, _sig15_all(table.ravel().tolist())))


_INDENT = "  "


def _float_text(x: float) -> str:
    """A float as ``json`` writes it: its repr, with NaN and the infinities spelled out."""
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _float_block(lst: list, level: int) -> str | None:
    """Text of a rectangular nested list of finite floats at indent ``level``, else None.

    Each nesting level is flattened and type-checked as a whole list.  One
    ``%`` template, built level by level from the shape, then formats every
    leaf with ``float.__repr__`` in a single call.  Ragged shapes, empty rows,
    leaves that are not exactly ``float`` (ints, bools, subclasses),
    non-finite values and lists that contain their own ancestor return None
    and take the generic path.
    """
    shape = []
    rows = [lst]
    ancestors: set[int] = set()
    while True:
        n = len(rows[0])
        if n == 0 or set(map(len, rows)) != {n}:
            return None
        shape.append(n)
        flat = list(chain.from_iterable(rows))
        kinds = set(map(type, flat))
        if kinds == {float}:
            break
        if kinds != {list}:
            return None
        ancestors.update(map(id, rows))
        if not ancestors.isdisjoint(map(id, flat)):  # circular: json raises, so must we
            return None
        rows = flat
    if not isfinite(sum(flat)):  # a sum overflowing finite terms only costs the fast path
        return None
    template = "%r"
    for depth in reversed(range(len(shape))):
        inner = "\n" + _INDENT * (level + depth + 1)
        outer = "\n" + _INDENT * (level + depth)
        template = "[" + inner + (template + "," + inner) * (shape[depth] - 1) + template + outer + "]"
    return template % tuple(flat)


def _float_table(dct: dict, level: int) -> str | None:
    """Text of a dict of str keys and finite float values at indent ``level``, else None."""
    if set(map(type, dct.values())) != {float} or set(map(type, dct)) != {str}:
        return None
    keys = sorted(dct)
    values = list(map(dct.__getitem__, keys))
    if not isfinite(sum(values)):
        return None
    inner = "\n" + _INDENT * (level + 1)
    pairs = map("%s: %s".__mod__, zip(map(encode_basestring_ascii, keys), map(float.__repr__, values)))
    return "{" + inner + ("," + inner).join(pairs) + "\n" + _INDENT * level + "}"


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(o, level: int, out: list[str], markers: set[int]) -> None:
    """Append the text of ``o`` at indent ``level``, checking types in ``json``'s order."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        if id(o) in markers:
            raise ValueError("Circular reference detected")
        if isinstance(o, dict):
            fast = _float_table(o, level)
        else:
            fast = _float_block(o, level) if type(o) is list else None
        if fast is not None:
            out.append(fast)
            return
        markers.add(id(o))
        inner = "\n" + _INDENT * (level + 1)
        if isinstance(o, dict):
            out.append("{")
            for i, (key, value) in enumerate(sorted(o.items())):
                out.append(("," if i else "") + inner + encode_basestring_ascii(_key_text(key)) + ": ")
                _write(value, level + 1, out, markers)
            out.append("\n" + _INDENT * level + "}")
        else:
            out.append("[")
            for i, value in enumerate(o):
                out.append(("," if i else "") + inner)
                _write(value, level + 1, out, markers)
            out.append("\n" + _INDENT * level + "]")
        markers.discard(id(o))
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dump_json(obj, path: str | Path | None = None) -> str:
    """Serialize deterministically; write atomically when a path is given.

    The text is that of ``json.dumps(obj, indent=2, sort_keys=True)``, byte
    for byte; the file gets it plus a newline.
    """
    out: list[str] = []
    _write(obj, 0, out, set())
    text = "".join(out)
    if path is not None:
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)  # two writes: ``text + "\n"`` would copy a many-MB text
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return text


def load_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
