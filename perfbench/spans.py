"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the ``entconv`` modules from the
outside; nothing in the program changes.  Modules import names directly
(``protocols.cnot_full``, ``optics.apply_single_qubit``), so each function is
replaced by identity at every ``entconv.*`` module global that refers to it.
Methods are replaced on their class.  Spans (name, parent, start, end) stay in
memory; ``summary`` turns them into per-layer metrics and ``write`` writes them
out when the job ends.  A name the program no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Spanned functions, as "module.qualname" below the entconv package: those a
# per-layer metric or a dominant-share check reads.  An unspanned helper's
# time counts as its caller's self time.
SPANNED = (
    "cli.main",
    "config.load_config",
    "protocols.monte_carlo",
    "protocols.run_protocol",
    "protocols.conversion_input",
    "cnot.cnot_full",
    "cnot.cnot_ideal",
    "cnot.point_fidelity",
    "cavity.spin_photon_map",
    "cavity.SpinPhotonMap.apply",
    "optics.hwp",
    "optics.qwp",
    "optics.spin_hadamard",
    "kerr.apply_cross_kerr",
    "kerr.HomodyneModel.for_tags",
    "kerr.homodyne_measure",
    "qstate.apply_single_qubit",
    "qstate.apply_controlled",
    "qstate.measure_site",
    "qstate.attach_spin",
)

PLATES = ("optics.hwp", "optics.qwp", "optics.spin_hadamard")


def _entconv_modules() -> dict:
    """Loaded entconv modules by their last name part."""
    return {name.rpartition(".")[2]: m for name, m in sys.modules.items() if name == "entconv" or name.startswith("entconv.")}


def _resolve(modules: dict, name: str):
    """(owner, attribute, raw attribute value, function) of a spanned name, or None if absent."""
    module_name, _, qualname = name.partition(".")
    owner = modules.get(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return (owner, attr, raw, fn) if hasattr(fn, "__code__") else None


def profile_keys() -> dict[tuple, str]:
    """cProfile key (file, line, function) of every spanned function the program has -> its name."""
    modules = _entconv_modules()
    keys = {}
    for name in SPANNED:
        found = _resolve(modules, name)
        if found is not None:
            code = found[3].__code__
            keys[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    return keys


class SpanRecorder:
    """Records spans of the functions in SPANNED while installed."""

    def __init__(self) -> None:
        self.names = list(SPANNED)
        self.spans: list[list[int]] = []   # [name index, parent span index or -1, start ns, end ns]
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.absent: list[str] = []
        self.states_built = 0
        self.kept_norms: list[float] = []
        self.readouts = 0
        self.misclassified = 0

    def _observe_gate(self, outcome) -> None:
        self.kept_norms.append(outcome.pre_measurement_norm)

    def _observe_readout(self, outcome) -> None:
        self.readouts += 1
        self.misclassified += int(outcome.misclassified)

    def _wrap(self, fn, index: int, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every spanned function that the loaded entconv modules have."""
        modules = _entconv_modules()
        observers = {"cnot.cnot_full": self._observe_gate, "kerr.homodyne_measure": self._observe_readout}
        self.absent = []
        for index, name in enumerate(self.names):
            found = _resolve(modules, name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, raw, fn = found
            wrapped = self._wrap(fn, index, observers.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, type(raw)(wrapped) if fn is not raw else wrapped)
            else:
                for module in modules.values():
                    for global_name, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, global_name, wrapped)
        self._count_states(modules.get("qstate"))

    def _count_states(self, qstate) -> None:
        cls = getattr(qstate, "QuantumState", None)
        init = vars(cls).get("__init__") if isinstance(cls, type) else None
        if init is None:
            self.absent.append("qstate.QuantumState.__init__")
            return
        recorder = self

        # a constructor that skips __init__ is not counted
        @functools.wraps(init)
        def counting_init(*args, **kwargs):
            recorder.states_built += 1
            return init(*args, **kwargs)

        self._patch(cls, "__init__", counting_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def durations(self, name: str) -> list[int]:
        index = self.names.index(name)
        return [end - start for i, _, start, end in self.spans if i == index]

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per spanned name.

        Self time is a span's duration minus the part covered by its child
        spans; children of one span never overlap, so that part is their sum.
        """
        covered = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for (index, _, start, end), child in zip(self.spans, covered):
            entry = stats[self.names[index]]
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child) * 1e-9
        return stats

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: index, parent, name, start ns, end ns."""
        with open(path, "w") as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (index, parent, start, end) in enumerate(self.spans):
                out.write(f"{i}\t{parent}\t{self.names[index]}\t{start}\t{end}\n")


def layer_metrics(recorder: SpanRecorder, work_units: int, success_per_round: float) -> dict[str, float]:
    """Per-layer metrics of one traced job, named as in BENCHMARK.json."""
    stats = recorder.summary()
    out: dict[str, float] = {}

    def take(name: str, *fields: str) -> None:
        for field in fields:
            out[f"{name}.{field}"] = stats[name][field]

    take("protocols.monte_carlo", "self_s")
    take("protocols.run_protocol", "calls", "self_s")
    take("protocols.conversion_input", "total_s")
    out["protocols.success_per_round"] = success_per_round
    take("cnot.cnot_full", "calls", "self_s", "total_s")
    out["cnot.kept_norm_mean"] = statistics.fmean(recorder.kept_norms) if recorder.kept_norms else 0.0
    take("cnot.cnot_ideal", "calls", "total_s")
    take("cnot.point_fidelity", "calls", "total_s")
    take("cavity.spin_photon_map", "calls", "total_s")
    take("cavity.SpinPhotonMap.apply", "calls", "self_s")
    out["optics.plates.calls"] = sum(stats[name]["calls"] for name in PLATES)
    out["optics.plates.self_s"] = sum(stats[name]["self_s"] for name in PLATES)
    take("kerr.apply_cross_kerr", "calls", "self_s")
    take("kerr.HomodyneModel.for_tags", "calls", "self_s")
    take("kerr.homodyne_measure", "calls", "self_s")
    out["kerr.misclassified_share"] = recorder.misclassified / recorder.readouts if recorder.readouts else 0.0
    out["qstate.states_built"] = recorder.states_built
    out["qstate.states_per_trial"] = recorder.states_built / work_units
    take("qstate.apply_single_qubit", "calls", "self_s")
    take("qstate.apply_controlled", "calls", "self_s")
    take("qstate.measure_site", "calls", "self_s")
    take("qstate.attach_spin", "self_s")
    take("cli.main", "self_s")
    take("config.load_config", "total_s")
    return out


def quantile(values: list[int], q: float) -> float:
    """The value with a share q of the values below it; 0 when there are none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def span_share(recorder: SpanRecorder, kind: str, names: tuple[str, ...]) -> float:
    """Share of cli.main's time spent in ``names`` (their total or self time)."""
    stats = recorder.summary()
    whole = stats["cli.main"]["total_s"]
    return sum(stats[name][f"{kind}_s"] for name in names) / whole if whole else 0.0


def profile_share(profile_stats: dict, spanned: dict, kind: str, names: tuple[str, ...]) -> float:
    """The same share as ``span_share``, taken from a cProfile of the untraced job.

    ``profile_stats`` is ``pstats.Stats.stats``; ``spanned`` maps cProfile
    function keys to span names (``profile_keys()``).  A function's
    self time here is its cumulative time minus the cumulative time of calls
    into spanned functions made from it or from unspanned functions below it;
    that is exact while those unspanned functions are called only from there.
    """
    by_name = {name: key for key, name in spanned.items()}
    callees: dict = {}
    for callee, (_, _, _, _, callers) in profile_stats.items():
        for caller, edge in callers.items():
            callees.setdefault(caller, []).append((callee, edge[3]))

    def cumulative(name: str) -> float:
        key = by_name.get(name)
        return profile_stats[key][3] if key in profile_stats else 0.0

    whole = cumulative("cli.main")
    if not whole:
        return 0.0
    share = 0.0
    for name in names:
        time_in = cumulative(name)
        if kind == "self" and time_in:
            stack = [by_name[name]]
            seen = set(stack)
            while stack:
                caller = stack.pop()
                for callee, edge_time in callees.get(caller, ()):
                    if callee in spanned:
                        time_in -= edge_time
                    elif callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
        share += time_in / whole
    return share
