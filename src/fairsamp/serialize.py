"""JSON interchange formats shared by the CLI and the file-based interfaces.

Complex matrices serialize as arrays of rows whose entries are two-element
[real, imag] arrays.  Devices, scenarios, filter decompositions and verdicts
all build on that matrix format; probabilities are rounded to 15 significant
digits on output.  Output text is byte-identical to
``json.dumps(obj, indent=2, sort_keys=True)``; ``dump_json`` writes float
blocks in bulk instead of one value at a time, and copies joint tables
rendered by ``table_to_json`` as they are.  Every float block is written
from a float64 array: a ``MatrixBlock`` holds one, and a nested list of
floats is copied into one.  Its digits come from one ``orjson.dumps`` call:
orjson writes the same shortest round-trip digits as ``float.__repr__``, and
spells them alike except at magnitudes in ``[1e-9, 1e-4)`` and from ``1e16``
on; only values there are written with ``float.__repr__``.  ``load_json``
reads input with orjson and falls back to ``json`` for any text orjson
refuses.

``device_to_json``, ``scenario_to_json``, ``matrix_to_json`` and
``coeffs_to_json`` return plain JSON values.  ``verdict_to_json`` and
``decomposition_to_json`` return payloads for ``dump_json`` whose matrices
are ``MatrixBlock``s, as ``simulate`` reports hold ``RenderedTable``s.
"""

from __future__ import annotations

import errno
import io
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import copysign, inf, isfinite, isinf, nan
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np
import orjson

from .analysis import FairSamplingVerdict
from .bell import LABEL_SEP, BellCoeffs, BellScenario
from .device import NOCLICK, LossyDevice
from .filters import FilterDecomposition
from .linalg import EXPONENT_FROM, PADDED_EXPONENT_FROM, POSITIONAL_FROM


def matrix_to_json(m: np.ndarray) -> list:
    """Rows of ``[re, im]`` pairs holding every bit of each part, ``-0.0`` included."""
    return matrix_block(m).values.tolist()


#: How many characters of ``repr`` of an offending value a field error quotes.
PREVIEW_CHARS = 40


def _repr_pieces(value):
    """The text of ``repr(value)`` for a JSON value, in pieces; a long string yields its first ``PREVIEW_CHARS``."""
    if type(value) is list:
        yield "["
        for i, item in enumerate(value):
            yield ", " if i else ""
            yield from _repr_pieces(item)
        yield "]"
    elif type(value) is dict:
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield ", " if i else ""
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    elif type(value) is str and len(value) > PREVIEW_CHARS:
        # repr quotes with '"' only when the whole string holds "'" and no '"': the probe's last
        # character makes repr of the prefix pick the same quote.
        yield repr(value[:PREVIEW_CHARS] + ("'" if "'" in value and '"' not in value else '"'))
    else:
        yield repr(value)


def _preview(value) -> str:
    """``repr(value)[:PREVIEW_CHARS]`` of a JSON value, built no further than that.

    Each nesting level writes a bracket first, so at most ``PREVIEW_CHARS``
    levels are entered: a huge value costs no more than a short one, and one
    nested past the recursion limit still gets its preview.
    """
    text = ""
    for piece in _repr_pieces(value):
        text += piece
        if len(text) >= PREVIEW_CHARS:
            break
    return text[:PREVIEW_CHARS]


def _first_index(bad, items) -> int:
    return next(i for i, item in enumerate(items) if bad(item))


def matrix_from_json(obj) -> np.ndarray:
    """Parse a square complex matrix written as rows of ``[re, im]`` pairs.

    Each part must be a finite JSON number; every bit of it is kept.  Anything
    else raises ``ValueError`` naming the first offending row or entry.
    """
    if type(obj) is not list or not obj:
        raise ValueError(f"matrix must be a non-empty list of rows, got {_preview(obj)}")
    n = len(obj)
    if set(map(type, obj)) != {list} or set(map(len, obj)) != {n}:
        i = _first_index(lambda row: type(row) is not list or len(row) != n, obj)
        raise ValueError(f"row {i} is {_preview(obj[i])}, expected length {n} (square matrix)")
    entries = list(chain.from_iterable(obj))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        i = _first_index(lambda e: type(e) is not list or len(e) != 2, entries)
        raise ValueError(f"entry [{i // n}][{i % n}] is {_preview(entries[i])}, expected [re, im]")
    parts = list(chain.from_iterable(entries))
    if not set(map(type, parts)) <= {float, int}:
        i = _first_index(lambda v: type(v) not in (float, int), parts) // 2
        raise ValueError(f"entry [{i // n}][{i % n}] is {_preview(entries[i])}, expected two numbers")
    try:
        flat = np.fromiter(parts, dtype=np.float64, count=len(parts))
    except OverflowError:
        raise ValueError("matrix holds an integer too large for a float") from None
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.argmin(finite)) // 2
        raise ValueError(f"entry [{i // n}][{i % n}] is {_preview(entries[i])}, expected finite numbers")
    return flat.view(np.complex128).reshape(n, n)


def _matrix_at(where: str, obj) -> np.ndarray:
    try:
        return matrix_from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


#: The largest double with 15 significant digits.
LARGEST_SIG15 = 1.79769313486231e308


def _parse_sig15(token: str) -> float:
    """The value of the ``%.15g`` text ``token``.

    Past ``LARGEST_SIG15`` round-to-nearest may overflow (``1.79769313486232e+308``
    reads as infinity); such a finite value rounds toward zero instead.
    """
    y = float(token)
    return copysign(LARGEST_SIG15, y) if isinf(y) and "n" not in token else y


def sig15(x: float) -> float:
    """Round a probability (or any real) to 15 significant digits for reporting.

    A finite value stays finite: one that rounds past the largest double gives ``±LARGEST_SIG15``.
    """
    return _parse_sig15(format(float(x), ".15g"))


def _device_payload(dev: LossyDevice, encode) -> dict:
    """The fields of a device object, each POVM element written by ``encode``."""
    return {
        "dim": dev.dim,
        "settings": list(dev.settings),
        "outcomes": list(dev.outcomes),
        "povm": {
            x: {a: encode(dev.element(x, a)) for a in (*dev.outcomes, NOCLICK)}
            for x in dev.settings
        },
    }


def device_to_json(dev: LossyDevice) -> dict:
    return _device_payload(dev, matrix_to_json)


def _field(obj: dict, key: str, owner: str = ""):
    """``obj[key]`` of a JSON object; a missing field raises ``ValueError`` naming it (and ``owner``)."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}" + (f" in {owner}" if owner else ""))
    return obj[key]


def _json_object(obj, where: str) -> dict:
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {_preview(obj)}")
    return obj


def _dim_at(where: str, value) -> int:
    if type(value) is not int or value < 1:
        raise ValueError(f"{where} must be a positive integer, got {_preview(value)}")
    return value


def _number_at(where: str, value) -> float:
    try:
        x = float(value) if type(value) in (int, float) else nan
    except OverflowError:
        x = inf
    if not isfinite(x):
        raise ValueError(f"{where} must be a finite JSON number, got {_preview(value)}")
    return x


def _labels_at(where: str, value) -> list[str]:
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise ValueError(f"{where} must be a list of strings, got {_preview(value)}")
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
    """Returns (filter.json payload, lossless.json payload), for ``dump_json``; matrices are ``MatrixBlock``s."""
    filters = {
        "dim": decomp.lossless.dim,
        "kraus": {
            x: {
                "click": matrix_block(f.kraus_click),
                "noclick": matrix_block(f.kraus_noclick),
            }
            for x, f in decomp.filters.items()
        },
    }
    return filters, _device_payload(decomp.lossless, matrix_block)


def verdict_to_json(verdict: FairSamplingVerdict) -> dict:
    """The verdict's report fields, for ``dump_json``; ``mq`` and ``support`` are ``MatrixBlock``s."""
    return {
        "weak": verdict.weak,
        "strong": verdict.strong,
        "homogeneous": verdict.homogeneous,
        "epsilon": sig15(verdict.epsilon),
        "classical_eff": {x: sig15(v) for x, v in verdict.classical_eff.items()},
        "mq": matrix_block(verdict.quantum_elem),
        "support": matrix_block(verdict.support),
    }


def coeffs_from_json(obj) -> BellCoeffs:
    """Parse a Bell coefficient list; a malformed entry raises ``ValueError`` naming it and its field.

    The entries are type-checked as whole lists; only when that finds a fault
    are they parsed one at a time, to name the first bad entry.
    """
    if type(obj) is not list:
        raise ValueError(f"coeffs must be a list, got {_preview(obj)}")
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
        raise ValueError(f"parties must be a list, got {_preview(parties)}")
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
    bell = obj.get("bell")  # absent or null: no Bell functional
    coeffs = None if bell is None else coeffs_from_json(_field(_json_object(bell, "bell"), "coeffs", "bell"))
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


def _array_block(values: np.ndarray, level: int) -> str | None:
    """Text of the C-contiguous float64 array ``values`` at indent ``level``, as ``json`` writes ``values.tolist()``.

    None if an axis is empty or a value is not finite: the generic path
    writes those.  The digits of every value come from one ``orjson.dumps``
    of the flat array.  orjson (with Ryu) and ``float.__repr__`` (with David
    Gay's dtoa) both write the shortest digits that read back as the value,
    the nearest such digits where several qualify, and spell them alike for
    ``±0.0`` and every magnitude outside ``[PADDED_EXPONENT_FROM,
    POSITIONAL_FROM)`` and ``[EXPONENT_FROM, inf)``; ``float.__repr__``
    writes the values a mask over the magnitudes finds in those ranges.  One
    ``%s`` template, built level by level from the shape, then fills in
    every token at once.
    """
    flat = values.ravel()
    if flat.size == 0 or not np.isfinite(flat).all():
        return None
    tokens = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    mags = np.abs(flat)
    apart = np.flatnonzero(((mags >= PADDED_EXPONENT_FROM) & (mags < POSITIONAL_FROM)) | (mags >= EXPONENT_FROM))
    for i, x in zip(apart.tolist(), flat[apart].tolist()):
        tokens[i] = float.__repr__(x)
    template = "%s"
    for depth in reversed(range(values.ndim)):
        inner = "\n" + _INDENT * (level + depth + 1)
        outer = "\n" + _INDENT * (level + depth)
        template = "[" + inner + (template + "," + inner) * (values.shape[depth] - 1) + template + outer + "]"
    return template % tuple(tokens)


def _float_block(lst: list, level: int) -> str | None:
    """Text of a rectangular nested list of finite floats at indent ``level``, else None.

    Each nesting level is flattened and type-checked as a whole list; the
    leaves, copied into an array of the block's shape, are written by
    ``_array_block``.  Ragged shapes, empty rows, leaves that are not
    exactly ``float`` (ints, bools, subclasses), non-finite values and lists
    that contain their own ancestor return None and take the generic path,
    which writes or rejects them as ``json`` does.
    """
    shape = []
    rows = [lst]
    ancestors: set[int] = set()
    while True:
        n = len(rows[0])
        if n == 0 or set(map(len, rows)) != {n}:
            return None
        if type(rows[0][0]) is list:
            # Circular: json raises, so must we.  Checked before flattening, and skipped for
            # rows of floats, the most numerous: an ancestor among them fails the type check.
            if not ancestors.isdisjoint(map(id, rows)):
                return None
            ancestors.update(map(id, rows))
        shape.append(n)
        flat = list(chain.from_iterable(rows))
        kinds = set(map(type, flat))
        if kinds == {float}:
            break
        if kinds != {list}:
            return None
        rows = flat
    return _array_block(np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(shape), level)


@dataclass(frozen=True, eq=False)
class MatrixBlock:
    """A complex matrix for ``dump_json``, which writes it as ``matrix_to_json`` of the matrix.

    ``values`` is the matrix's C-contiguous float64 ``(..., 2)`` view of real
    and imaginary parts; it shares memory with the matrix whenever that is
    already C-contiguous complex128, so a change to the matrix before the
    write shows in the text.
    """

    values: np.ndarray

    def text(self, level: int) -> str:
        """The matrix's JSON text at indent ``level``."""
        text = _array_block(self.values, level)
        if text is None:
            out: list[str] = []
            _write(self.values.tolist(), level, out, set())
            text = "".join(out)
        return text


def matrix_block(m: np.ndarray) -> MatrixBlock:
    """``m`` wrapped for ``dump_json``, which writes it as it writes ``matrix_to_json(m)``."""
    a = np.ascontiguousarray(m, dtype=complex)
    return MatrixBlock(a.view(np.float64).reshape(a.shape + (2,)))


#: Exponents of ``%.15g`` text that ``repr`` of the rounded value may not share: 15 (which
#: ``repr`` writes in full), 308 (which may round past the largest double, see ``sig15``)
#: and -300 to -324 (subnormals, whose ``repr`` is shorter).  ``e-3`` also matches -30 to
#: -39, whose text parses back unchanged.
_REPARSED_EXPONENTS = ("e+15", "e+308", "e-3")


def _sig15_text(token: str) -> str:
    """``_float_text(sig15(x))`` from the ``%.15g`` text ``token`` of ``x``.

    The token is that text already unless it lacks a point (integers, which
    ``repr`` ends in ``.0``, and the non-finite values) or has one of
    ``_REPARSED_EXPONENTS``; only those are parsed back.
    """
    if "." in token and not any(e in token for e in _REPARSED_EXPONENTS):
        return token
    return _float_text(_parse_sig15(token))


class TableLabels:
    """The labels of a joint table's entries in C order, sorted and escaped once for every table they name.

    Labels must be distinct.  ``order`` lists the C-order indices of the
    entries in sorted label order, as ``sort_keys`` writes them.
    """

    def __init__(self, labels: Iterable[str]):
        labels = list(labels)
        self.order = np.array(sorted(range(len(labels)), key=labels.__getitem__), dtype=np.intp)
        self._keys = [encode_basestring_ascii(labels[i]).replace("%", "%%") for i in self.order.tolist()]
        self._format = "%.15g " * len(labels)
        self._templates: dict[int, str] = {}

    def tokens(self, table: np.ndarray) -> tuple[str, ...]:
        """The text of ``sig15`` of each entry of ``table``, in sorted label order, from one ``%.15g`` pass."""
        text = self._format % tuple(table.ravel()[self.order].tolist())
        tokens = text.split()
        if text.count(".") != len(tokens) or any(e in text for e in _REPARSED_EXPONENTS):
            tokens = map(_sig15_text, tokens)
        return tuple(tokens)

    def template(self, level: int) -> str:
        """The text of the table at indent ``level``, with a ``%s`` for each entry's value."""
        if level not in self._templates:
            inner = "\n" + _INDENT * (level + 1)
            pairs = ("," + inner).join(key + ": %s" for key in self._keys)
            self._templates[level] = "{" + inner + pairs + "\n" + _INDENT * level + "}"
        return self._templates[level]


@dataclass(frozen=True, eq=False)
class RenderedTable:
    """A joint table rendered for ``dump_json``, which writes it as the dict ``{label: sig15(p)}``."""

    labels: TableLabels
    tokens: tuple[str, ...]

    def text(self, level: int) -> str:
        """The table's JSON text at indent ``level``."""
        return self.labels.template(level) % self.tokens


def table_to_json(labels: TableLabels, table: np.ndarray) -> RenderedTable:
    """The joint table array ``table`` rendered for ``dump_json``; ``labels`` name its entries in C order.

    ``dump_json`` writes it as ``distribution_to_json`` would write the dict
    of its labelled entries: each value formatted once, with ``sig15``'s
    ``.15g`` rule, and written as ``float.__repr__`` writes the rounded value.
    """
    return RenderedTable(labels, labels.tokens(table))


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
    elif isinstance(o, (RenderedTable, MatrixBlock)):
        out.append(o.text(level))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            out.append("{}" if isinstance(o, dict) else "[]")
            return
        if id(o) in markers:
            raise ValueError("Circular reference detected")
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
    for byte, with each ``RenderedTable`` in ``obj`` read as the dict it
    stands for and each ``MatrixBlock`` as the nested list; the file gets
    the text plus a newline.  A ``path`` that names a directory raises
    ``IsADirectoryError`` before anything is written.  A failed write leaves
    no temporary file and raises its ``OSError`` naming ``path``.
    """
    out: list[str] = []
    _write(obj, 0, out, set())
    text = "".join(out)
    if path is not None:
        path = Path(path)
        if path.is_dir():
            # os.replace onto "." fails with EBUSY, which does not say that it is a directory.
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)  # two writes: ``text + "\n"`` would copy a many-MB text
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException as exc:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)
            if isinstance(exc, OSError) and exc.errno is not None:
                # Name the path asked for, not the temporary file written beside it.
                raise type(exc)(exc.errno, exc.strerror, str(path)) from None
            raise
    return text


#: Texts nested deeper than this are read by ``json`` alone.  orjson 3.8 builds nested
#: containers recursively with no depth limit: about 52 000 nested objects overflow an
#: 8 MiB C stack and kill the process.  ``json`` raises ``RecursionError`` long before.
ORJSON_MAX_DEPTH = 1024

_NOT_STRUCTURAL = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _nests_at_most(data: bytes, limit: int) -> bool:
    """Whether the JSON text ``data`` nests arrays and objects at most ``limit`` deep.

    Exact for valid JSON whose strings hold no bracket; a string holding one
    makes the answer False.  For invalid JSON the answer means nothing (orjson
    rejects such a text before it builds anything).  Only brackets and quotes
    are read: once escaped backslashes and quotes are removed, each
    bracket-free string leaves a pair of adjacent quotes, and the first string
    holding a bracket leaves its opening quote unpaired.
    """
    if b"\\" in data:
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = data.translate(None, _NOT_STRUCTURAL)
    if marks.count(b'"') != 2 * marks.count(b'""'):
        return False
    # Bit 1 is set in '[' (0x5b) and '{' (0x7b), clear in ']' (0x5d) and '}' (0x7d).
    steps = (np.frombuffer(marks.translate(None, b'"'), np.int8) & 2) - 1
    return int(steps.cumsum(dtype=np.int64).max(initial=0)) <= limit


def load_json(path: str | Path):
    """The JSON value in the UTF-8 file at ``path``, as ``json.load`` reads it.

    The bytes are parsed with ``orjson``, which gives the same values to the
    bit.  A text orjson refuses (NaN and the infinities, numbers past the
    largest double, lone surrogates, a BOM, invalid UTF-8, malformed JSON) or
    one nested deeper than ``ORJSON_MAX_DEPTH`` is read by ``json.load`` as a
    text file, so it is accepted or rejected with ``json``'s own error.  One
    difference is kept: an integer outside [-2**63, 2**64) that a double can
    hold reads as the nearest float, where ``json`` gives an ``int``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if _nests_at_most(data, ORJSON_MAX_DEPTH):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
