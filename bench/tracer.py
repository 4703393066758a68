"""Span tracing of the qrepeater layers, installed from outside the package.

A :class:`Tracer` replaces selected public functions with wrappers that
record one span per call: its name, start, end, parent span and the op
(benchmark operation) it belongs to.  Spans are kept in flat arrays in
memory and summarised or written out when the benchmark ends; self time
is a span's duration minus the time its direct children cover.

A wrapper is installed in every ``qrepeater`` module namespace that holds
the function, because modules import each other's functions by name
(``protocol`` and ``analysis`` both do ``from .ops import purify``).
The tracer also swaps the ``np`` that ``qrepeater.protocol`` sees for a
copy whose ``random.default_rng`` hands out a generator that counts every
variate the Monte Carlo sampler draws.  Wrappers return exactly what the
wrapped call returns, so tracing never changes an answer.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time
import types
from array import array

import numpy as np

#: (module, attribute, span name, metric group).  The group pools spans
#: into one per-layer metric; ``channel`` pools the link closed forms.
TARGETS = (
    ("qrepeater.bell", "BellDiagonalState.from_weights", "bell.from_weights", None),
    ("qrepeater.ops", "purify", "ops.purify", None),
    ("qrepeater.ops", "swap", "ops.swap", None),
    ("qrepeater.ops", "connect_chain", "ops.connect_chain", None),
    ("qrepeater.protocol", "run_protocol", "protocol.run_protocol", None),
    ("qrepeater.protocol", "build_b_pair", "protocol.build_b_pair", None),
    ("qrepeater.protocol", "build_c_pair", "protocol.build_c_pair", None),
    ("qrepeater.protocol", "pump", "protocol.pump", None),
    ("qrepeater.protocol", "monte_carlo_time", "protocol.monte_carlo_time", None),
    ("qrepeater.analysis", "fixed_point_at_distance", "analysis.fixed_point_at_distance", None),
    ("qrepeater.analysis", "asymptotic_fidelity", "analysis.asymptotic_fidelity", None),
    ("qrepeater.timing", "max_of_geometric", "timing.max_of_geometric", None),
    ("qrepeater.timing", "max_pair", "timing.max_pair", None),
    ("qrepeater.timing", "restarting_rounds", "timing.restarting_rounds", None),
    ("qrepeater.channel", "channel_efficiency", "channel.channel_efficiency", "channel"),
    ("qrepeater.channel", "entangle_success_prob", "channel.entangle_success_prob", "channel"),
    ("qrepeater.channel", "initial_fidelity", "channel.initial_fidelity", "channel"),
    ("qrepeater.channel", "expected_link_time", "channel.expected_link_time", "channel"),
    ("qrepeater.channel", "link_state", "channel.link_state", "channel"),
    ("qrepeater.channel", "p_em_for_fidelity", "channel.p_em_for_fidelity", "channel"),
    ("qrepeater.cli", "main", "cli.main", None),
    ("qrepeater.config", "load_config", "config.load_config", None),
)

#: Metric groups that report ``calls`` and ``self_s``, in report order.
GROUPS = tuple(dict.fromkeys(group or name for _, _, name, group in TARGETS))

#: Purify and swap calls kept per run for the exact-oracle spot-check.
SPOT_CHECKS_PER_KERNEL = 8


class _CountingGenerator:
    """Delegates to a numpy Generator and counts the variates it returns."""

    def __init__(self, generator, tracer: "Tracer"):
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._tracer.rng_draws += int(np.size(out))
            return out

        return counted


class Tracer:
    """Records spans and layer counters while installed (use as a context
    manager).  One tracer may be installed many times; its records add up."""

    def __init__(self, seed: int = 0):
        self.names: list[str] = []   # span name per name id
        self.groups: list[str] = []  # metric group per name id
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        #: Clock the spans are read on; the benchmark sets its SpeedClock.
        self.clock = time.perf_counter
        self._stack = [-1]
        self._installed: list[tuple] = []  # (namespace, attribute, original)
        # Counters read from call results.
        self.purify_success = array("d")
        self.fp_iterations = 0
        self.asym_levels = 0
        self.nonconverged = 0
        self.b_pair_keys: list[tuple] = []
        self.rng_draws = 0
        self.mc_trials = 0
        # Seeded reservoir of kernel calls for the oracle spot-check.
        self._rand = random.Random(f"spot:{seed}")
        self._seen = {"purify": 0, "swap": 0}
        self.spot_samples: dict[str, list] = {"purify": [], "swap": []}

    # -- recording -----------------------------------------------------
    def _wrap(self, span_name: str, group: str | None, fn, observe):
        if span_name not in self.names:
            self.names.append(span_name)
            self.groups.append(group or span_name)
        nid = self.names.index(span_name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _sample(self, kernel: str, item) -> None:
        seen = self._seen[kernel] = self._seen[kernel] + 1
        kept = self.spot_samples[kernel]
        if len(kept) < SPOT_CHECKS_PER_KERNEL:
            kept.append(item)
        else:
            slot = self._rand.randrange(seen)
            if slot < SPOT_CHECKS_PER_KERNEL:
                kept[slot] = item

    def _observer(self, span_name: str):
        if span_name == "ops.purify":
            def observe(args, kwargs, result):
                self.purify_success.append(result.success_prob)
                self._sample("purify", (args, kwargs, result))
        elif span_name == "ops.swap":
            def observe(args, kwargs, result):
                self._sample("swap", (args, kwargs, result))
        elif span_name == "analysis.fixed_point_at_distance":
            def observe(args, kwargs, result):
                self.fp_iterations += result.iterations
                self.nonconverged += not result.converged
        elif span_name == "analysis.asymptotic_fidelity":
            def observe(args, kwargs, result):
                self.asym_levels += result.iterations
                self.nonconverged += not result.converged
        elif span_name == "protocol.build_b_pair":
            def observe(args, kwargs, result):
                self.b_pair_keys.append((self.op, *args, *kwargs.values()))
        elif span_name == "protocol.monte_carlo_time":
            def observe(args, kwargs, result):
                self.mc_trials += result.n_trials
        else:
            return None
        return observe

    # -- installation --------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "qrepeater" or name.startswith("qrepeater.")
        ]
        for module_name, attr, span_name, group in TARGETS:
            module = importlib.import_module(module_name)
            observe = self._observer(span_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                wrapped = self._wrap(span_name, group, raw.__func__, observe)
                self._replace(cls, meth, classmethod(wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, group, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        protocol = importlib.import_module("qrepeater.protocol")
        self._replace(protocol, "np", self._counting_numpy())
        return self

    def __exit__(self, *exc) -> None:
        while self._installed:
            setattr(*self._installed.pop())

    def _replace(self, namespace, attr: str, value) -> None:
        self._installed.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, value)

    def _counting_numpy(self) -> types.ModuleType:
        tracer = self

        def default_rng(*args, **kwargs):
            return _CountingGenerator(np.random.default_rng(*args, **kwargs), tracer)

        rnd = types.ModuleType(np.random.__name__)
        vars(rnd).update(vars(np.random))
        rnd.default_rng = default_rng
        proxy = types.ModuleType(np.__name__)
        vars(proxy).update(vars(np))
        proxy.random = rnd
        return proxy

    # -- results -------------------------------------------------------
    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).copy(),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "op": np.array(self.span_op, dtype=np.int64),
            "start": np.array(self.span_start),
            "end": np.array(self.span_end),
        }

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per metric group, summed over all spans."""
        spans = self.span_arrays()
        n_names = len(self.names)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(spans["name"], minlength=n_names)
        selfs = np.bincount(spans["name"], weights=self_time, minlength=n_names)
        out = {group: [0, 0.0] for group in GROUPS}
        for nid, group in enumerate(self.groups):
            out[group][0] += int(calls[nid])
            out[group][1] += float(selfs[nid])
        return {group: (c, s) for group, (c, s) in out.items()}

    def distinct_levels(self) -> int:
        """Distinct ``build_b_pair`` inputs within each unit, ignoring the
        target span: the levels one shared ladder per unit would build."""
        keys = set()
        for op, a_left, a_right, config, *_ in self.b_pair_keys:
            keys.add((op, a_left, a_right, config.link, config.noise, config.f0))
        return len(keys)

    def spot_check(self) -> tuple[int, float]:
        """Re-run the sampled purify and swap calls through the 16x16
        oracle; returns (checks made, largest absolute deviation)."""
        from qrepeater.exact import purify_oracle, swap_oracle

        checks, max_dev = 0, 0.0
        for args, kwargs, result in self.spot_samples["purify"]:
            ref = purify_oracle(*args, **kwargs)
            dev = abs(ref.success_prob - result.success_prob)
            if (ref.state is None) != (result.state is None):
                dev = float("inf")
            elif ref.state is not None:
                dev = max(dev, float(np.max(np.abs(ref.state.weights - result.state.weights))))
            checks, max_dev = checks + 1, max(max_dev, dev)
        for args, kwargs, result in self.spot_samples["swap"]:
            ref = swap_oracle(*args, **kwargs)
            dev = float(np.max(np.abs(ref.weights - result.weights)))
            checks, max_dev = checks + 1, max(max_dev, dev)
        return checks, max_dev
