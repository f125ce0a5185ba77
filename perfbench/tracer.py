"""Run-time tracing of fairsamp's layers, installed from the benchmark's own code.

``Tracer.install()`` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent span, operation id) for
every call made while an operation is active.  A function is replaced in
every ``fairsamp`` namespace that holds it, so ``fairsamp.bell.tensor`` and
``fairsamp.cli.check_exact`` are traced as well as ``fairsamp.linalg.tensor``
and ``fairsamp.analysis.check_exact``; class methods are replaced on the
class.  ``uninstall()`` restores the originals.  Nothing under ``src/`` is
edited.

Spans stay in memory until ``metrics()`` turns them into per-layer figures.
A span's self time is its duration minus the part of it that its child spans
cover; the operation's own root span keeps what no layer claims.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Layer -> traced public functions ("Class.method" for methods).
TARGETS = {
    "linalg": [
        "assert_hermitian", "eigh_psd", "assert_density", "support_projector", "sqrt_pinv_sqrt",
        "operator_norm", "trace_norm", "tensor", "partial_trace", "projector", "expect",
    ],
    "device": [
        "LossyDevice.__init__", "LossyDevice.click_element", "LossyDevice.outcome_distribution",
        "LossyDevice.postselected_distribution", "LosslessDevice.__init__", "LosslessDevice.to_lossy",
        "projective_qubit_device", "total_variation",
    ],
    "optics": [
        "analyser_device", "single_photon_analyser", "analyser_mq", "analyser_epsilon_closed_form",
        "sector_deviation_profile",
    ],
    "analysis": [
        "check_exact", "default_mq", "approximate_epsilon", "ideal_device_from", "filtered_state",
        "tv_bound", "imperfect_state_bound", "necessary_conditions", "state_dependent_check",
    ],
    "filters": ["canonical_decomposition", "verify_recomposition", "classical_normal_form", "composed_probability"],
    "bell": [
        "BellScenario.__post_init__", "BellScenario.joint_raw", "BellScenario.all_click_probability",
        "BellScenario.joint_postselected", "joint_device", "filtered_global_state", "ideal_scenario",
        "postselected_vs_ideal_deviation", "verify_postselection_equivalence", "epsilon_total",
        "bell_value", "validate_coefficients", "beta_max", "deviation_bound", "postselected_bell_value",
    ],
    "adversary": [
        "makarov_branches", "makarov_traced", "run_faked_chsh", "HiddenVariableDevice.traced",
        "HiddenVariableDevice.adversary_device",
    ],
    "serialize": [
        "matrix_to_json", "matrix_from_json", "sig15", "device_to_json", "device_from_json",
        "decomposition_to_json", "verdict_to_json", "coeffs_from_json", "coeffs_to_json",
        "scenario_from_json", "scenario_to_json", "distribution_to_json", "dump_json", "load_json",
    ],
    "cli": ["main", "cmd_check", "cmd_decompose", "cmd_simulate", "cmd_bound", "cmd_demo", "build_parser"],
}
LAYERS = tuple(TARGETS)

#: Span names of methods whose default "<layer>.<Class>.<method>" name is not used.
METHOD_LABELS = {
    "LossyDevice.__init__": "device.LossyDevice.init",
    "LosslessDevice.__init__": "device.LosslessDevice.init",
    "BellScenario.__post_init__": "bell.BellScenario.init",
    "BellScenario.joint_raw": "bell.joint_raw",
    "BellScenario.all_click_probability": "bell.all_click_probability",
    "BellScenario.joint_postselected": "bell.joint_postselected",
}

#: Name of the root span that every operation opens.
OP_SPAN = "op"

#: Per-layer metrics with their units.  Counts and times are totals per pass
#: of the workload's operation list.
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bell.joint_raw.calls": "count",
    "bell.joint_raw.self_s": "s",
    "bell.joint_postselected.calls": "count",
    "bell.joint_postselected.self_s": "s",
    "bell.all_click_probability.self_s": "s",
    "bell.postselected_vs_ideal_deviation.self_s": "s",
    "bell.ideal_scenario.self_s": "s",
    "bell.filtered_global_state.self_s": "s",
    "bell.outcome_tuples": "count",
    "bell.joint_calls_per_setting_tuple": "1",
    "bell.erased_ratio": "1",
    "linalg.tensor.calls": "count",
    "linalg.tensor.self_s": "s",
    "linalg.tensor.bytes_computed": "bytes",
    "linalg.expect.calls": "count",
    "linalg.expect.self_s": "s",
    "linalg.eigh_psd.calls": "count",
    "linalg.eigh_psd.self_s": "s",
    "linalg.sqrt_pinv_sqrt.calls": "count",
    "linalg.sqrt_pinv_sqrt.self_s": "s",
    "linalg.support_projector.calls": "count",
    "linalg.support_projector.self_s": "s",
    "linalg.operator_norm.calls": "count",
    "linalg.operator_norm.self_s": "s",
    "serialize.load_json.self_s": "s",
    "serialize.device_from_json.self_s": "s",
    "serialize.scenario_from_json.self_s": "s",
    "serialize.matrix_to_json.self_s": "s",
    "serialize.dump_json.self_s": "s",
    "serialize.bytes_read": "bytes",
    "serialize.bytes_written": "bytes",
    "device.LossyDevice.init.calls": "count",
    "device.LossyDevice.init.self_s": "s",
    "device.LosslessDevice.init.self_s": "s",
    "device.eigh_per_povm_element": "1",
    "analysis.check_exact.calls": "count",
    "analysis.check_exact.self_s": "s",
    "analysis.approximate_epsilon.calls": "count",
    "analysis.approximate_epsilon.self_s": "s",
    "analysis.ideal_device_from.calls": "count",
    "analysis.ideal_device_from.self_s": "s",
    "filters.canonical_decomposition.self_s": "s",
    "filters.verify_recomposition.self_s": "s",
    "optics.analyser_device.self_s": "s",
    "adversary.run_faked_chsh.self_s": "s",
    "adversary.samples_per_s": "1/s",
    "cli.main.calls": "count",
    "trace.op_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "1",
}

class Tracer:
    """Wraps fairsamp's layer functions and records spans while an operation runs."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int]] = []  # sid, name, start, end, parent, op
        self.op_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._op_seq = itertools.count()
        self.op_kinds: list[str] = []  # indexed by operation id
        self._patches: list[tuple[object, str, object]] = []
        # Counters collected by the wrappers themselves.
        self.tensor_bytes = 0
        self.outcome_tuples = 0
        self.joint_calls = 0
        self.setting_tuples: set = set()
        self._keep_alive: list = []
        self.postselected_calls = 0
        self.erased = 0
        self.povm_elements = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.chsh_samples = 0
        self._op_name = self._name_id(OP_SPAN, "benchmark")

    # ----------------------------------------------------------------- install

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "fairsamp" or k.startswith("fairsamp.")]
        hooks = self._post_hooks()
        for layer, targets in TARGETS.items():
            module = importlib.import_module(f"fairsamp.{layer}")
            for target in targets:
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    label = METHOD_LABELS.get(target, f"{layer}.{cls_name}.{meth.strip('_')}")
                    self._patch(cls, meth, self._wrap(original, label, layer, hooks.get(label)))
                else:
                    original = getattr(module, target)
                    label = f"{layer}.{target}"
                    wrapper = self._wrap(original, label, layer, hooks.get(label))
                    for ns in modules:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                self._patch(ns, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ----------------------------------------------------------------- spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, label: str, layer: str, post=None):
        """Span-recording wrapper; ``post(args, kwargs, result, exc)`` updates counters."""
        name_id = self._name_id(label, layer)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op_id
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A worker thread's first span hangs under whatever the operation's
            # thread is running, which is waiting for it.
            parent = stack[-1] if stack else (tracer._op_stack[-1] if tracer._op_stack else -1)
            sid = next(tracer._ids)
            stack.append(sid)
            start = clock()
            failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, name_id, start, end, parent, op))
                if post is not None:
                    post(args, kwargs, None if failed else result, failed)

        return wrapper

    @contextlib.contextmanager
    def operation(self, index: int, kind: str):
        """Root span of one operation; layer calls made inside it are recorded.

        Every execution gets a fresh operation id, so repeated passes never share one.
        """
        op_id = next(self._op_seq)
        self.op_kinds.append(kind)
        stack = self._stack()
        self._op_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        self.op_id = op_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.op_id = None
            stack.pop()
            self.spans.append((sid, self._op_name, start, end, -1, op_id))
            self._keep_alive.clear()

    # ----------------------------------------------------------------- counters

    def _post_hooks(self) -> dict:
        from fairsamp.device import ZeroAcceptanceError

        def tensor(args, kwargs, result, failed):
            if result is not None:
                self.tensor_bytes += result.nbytes

        def joint(args, kwargs, result, failed):
            scenario, xs = args[0], tuple(args[1] if len(args) > 1 else kwargs["xs"])
            self.joint_calls += 1
            self._keep_alive.append(scenario)  # keeps id() unique within the operation
            self.setting_tuples.add((self.op_id, id(scenario), xs))
            if result is not None:
                self.outcome_tuples += len(result)

        def postselected(args, kwargs, result, failed):
            joint(args, kwargs, result, failed)
            self.postselected_calls += 1
            if isinstance(failed, ZeroAcceptanceError):
                self.erased += 1

        def lossy_init(args, kwargs, result, failed):
            dev = args[0]
            if failed is None:
                self.povm_elements += len(dev.settings) * (len(dev.outcomes) + 1)

        def lossless_init(args, kwargs, result, failed):
            dev = args[0]
            if failed is None:
                self.povm_elements += len(dev.settings) * len(dev.outcomes)

        def load_json(args, kwargs, result, failed):
            path = args[0] if args else kwargs["path"]
            with contextlib.suppress(OSError):
                self.bytes_read += os.path.getsize(path)

        def dump_json(args, kwargs, result, failed):
            path = args[1] if len(args) > 1 else kwargs.get("path")
            if result is not None and path is not None:
                self.bytes_written += len(result.encode("utf-8")) + 1

        def faked_chsh(args, kwargs, result, failed):
            self.chsh_samples += int(kwargs.get("samples") or (args[2] if len(args) > 2 else 0) or 0)

        return {
            "linalg.tensor": tensor,
            "bell.joint_raw": joint,
            "bell.joint_postselected": postselected,
            "device.LossyDevice.init": lossy_init,
            "device.LosslessDevice.init": lossless_init,
            "serialize.load_json": load_json,
            "serialize.dump_json": dump_json,
            "adversary.run_faked_chsh": faked_chsh,
        }

    # ----------------------------------------------------------------- analysis

    def self_times(self) -> dict[int, float]:
        """Span id -> self time in seconds (duration minus the union of child spans)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0
            cursor = start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, cursor), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    cursor = ce
            out[sid] = (end - start - covered) * 1e-9
        return out

    def metrics(self, passes: int, traced_s: float, untraced_s: float) -> tuple[dict, dict]:
        """(per-layer metrics per pass, accounting summary)."""
        self_s = self.self_times()
        by_name_calls: dict[str, int] = {}
        by_name_self: dict[str, float] = {}
        by_layer_calls = {layer: 0 for layer in LAYERS}
        by_layer_self = {layer: 0.0 for layer in LAYERS}
        op_total = 0.0
        unattributed = 0.0
        device_init_ids = {i for i, n in enumerate(self.names) if n.endswith("Device.init")}
        eigh_id = self.names.index("linalg.eigh_psd")
        init_spans = {sid for sid, name, *_ in self.spans if name in device_init_ids}
        eigh_in_init = 0
        # Inclusive time: the sampling work runs partly in wrapped child calls.
        chsh_s = 0.0
        for sid, name_id, start, end, parent, _ in self.spans:
            name, layer = self.names[name_id], self.layer_of[name_id]
            if name == OP_SPAN:
                op_total += (end - start) * 1e-9
                unattributed += self_s[sid]
                continue
            if name == "adversary.run_faked_chsh":
                chsh_s += (end - start) * 1e-9
            by_name_calls[name] = by_name_calls.get(name, 0) + 1
            by_name_self[name] = by_name_self.get(name, 0.0) + self_s[sid]
            by_layer_calls[layer] += 1
            by_layer_self[layer] += self_s[sid]
            if name_id == eigh_id and parent in init_spans:
                eigh_in_init += 1

        per = 1.0 / passes
        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = by_layer_calls[layer] * per
            values[f"{layer}.self_s"] = by_layer_self[layer] * per
        for metric in PER_LAYER_UNITS:
            if metric in values:
                continue
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = by_name_calls.get(base, 0) * per
            elif stat == "self_s":
                values[metric] = by_name_self.get(base, 0.0) * per
        values.update(
            {
                "bell.outcome_tuples": self.outcome_tuples * per,
                "bell.joint_calls_per_setting_tuple": _ratio(self.joint_calls, len(self.setting_tuples)),
                "bell.erased_ratio": _ratio(self.erased, self.postselected_calls),
                "linalg.tensor.bytes_computed": self.tensor_bytes * per,
                "serialize.bytes_read": self.bytes_read * per,
                "serialize.bytes_written": self.bytes_written * per,
                "device.eigh_per_povm_element": _ratio(eigh_in_init, self.povm_elements),
                "adversary.samples_per_s": _ratio(self.chsh_samples, chsh_s),
                "trace.op_s": op_total * per,
                "trace.unattributed_s": unattributed * per,
                "trace.overhead_ratio": traced_s / untraced_s - 1.0,
            }
        )
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
        layer_sum = sum(by_layer_self.values())
        accounting = {
            "op_s": op_total,
            "layer_self_s": layer_sum,
            "unattributed_s": unattributed,
            "residual_s": op_total - layer_sum - unattributed,
            "spans": len(self.spans),
        }
        return metrics, accounting

    def write_spans(self, path: Path) -> None:
        """Write every span as compact JSON: a name table plus one row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span", "name", "start_ns", "end_ns", "parent", "op"],
                    "names": self.names,
                    "layers": self.layer_of,
                    "op_kinds": self.op_kinds,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
