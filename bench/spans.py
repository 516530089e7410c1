"""Call tracing from the benchmark's side of the package boundary.

:class:`Tracer` wraps the public functions of every ``agency`` layer in
each module namespace that binds them (``linear_revenue`` is bound in
``metrics``, ``conditions``, ``cli`` and the package root, and a call
through any of them must be seen), plus the distribution and instance
methods the table in ``BENCHMARK.json`` names. While installed, each call
records a span: name, start, end, parent span and the operation it belongs
to. Spans live in flat in-memory arrays and are written once, at exit.
Self time is a span's duration minus the durations of its direct children.

Nothing here changes the program: :meth:`Tracer.installed` restores every
original binding when the block ends, so untraced operations run the exact
code a user runs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

#: Traced callables per layer: ``name -> (owner, attribute)``. An owner is a
#: module name for functions, or ``module:Class`` for methods.
LAYERS: dict[str, dict[str, tuple[str, str]]] = {
    "instance": {
        "best_response": ("agency.instance", "best_response"),
        "expected_payments": ("agency.instance:Instance", "expected_payments"),
    },
    "typedist": {
        "cdf": ("agency.typedist:TypeDistribution", "cdf"),
        "cdf_left": ("agency.typedist:TypeDistribution", "cdf_left"),
        "cdf_continuous": ("agency.typedist:TypeDistribution", "cdf_continuous"),
        "pdf": ("agency.typedist:TypeDistribution", "pdf"),
        "virtual_cost": ("agency.typedist:TypeDistribution", "virtual_cost"),
        "quantile": ("agency.typedist:TypeDistribution", "quantile"),
        "iron": ("agency.typedist", "iron"),
        # iron_inverse() only forwards to the method every caller uses
        "iron_inverse": ("agency.typedist:IronedVirtualCost", "inverse"),
    },
    "allocation": {
        name: ("agency.allocation", name)
        for name in ("envelope_rule", "virtual_rule", "rule_from_payments")
    },
    "metrics": {
        name: ("agency.metrics", name)
        for name in ("linear_revenue", "best_linear", "welfare", "virtual_welfare",
                     "linear_revenue_quadrature", "virtual_welfare_quadrature")
    },
    "conditions": {
        name: ("agency.conditions", name)
        for name in ("verify", "slowly_increasing_beta", "linear_bounded_params",
                     "rhr_bound_alpha_hat", "small_tail_eta")
    },
    "incentives": {
        name: ("agency.incentives", name)
        for name in ("curvature_check", "check_menu_ic", "menu_curvature_rows",
                     "menu_induced_pieces", "menu_selection", "binary_action_optimal",
                     "menu_revenue", "certify_non_implementable_at")
    },
    "examples": {name: ("agency.examples", name) for name in ("non_monotone_audit", "build")},
    "cli": {"main": ("agency.cli", "main")},
}

#: Work counters filled from call results by the ``_count_*`` methods.
COUNTERS = (
    "typedist.iron.flats",
    "metrics.best_linear.revenue_evals",
    "incentives.certify_non_implementable_at.profiles",
    "incentives.certify_non_implementable_at.grid_profiles",
    "examples.non_monotone_audit.profiles",
    "cli.report_bytes",
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Span recorder; install it around the operations to be traced."""

    def __init__(self, namespaces: list[str]):
        self.namespaces = namespaces
        self.names = list(SPAN_NAMES) + ["bench.op"]
        self._id = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.ironed_hits = 0
        self.ironed_misses = 0
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan()

    # -- installation ------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object]]:
        """Every (holder, attribute, wrapper) to set while installed."""
        plan = []
        for layer, fns in LAYERS.items():
            for fn, (owner, attr) in fns.items():
                mod_name, _, cls_name = owner.partition(":")
                holder = sys.modules[mod_name]
                if cls_name:
                    holder = getattr(holder, cls_name)
                orig = getattr(holder, attr)
                wrapper = self._wrap(orig, self._id[f"{layer}.{fn}"])
                if cls_name:
                    plan.append((holder, attr, wrapper))
                    continue
                for ns in self.namespaces:
                    mod = sys.modules[ns]
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            plan.append((mod, key, wrapper))
        return plan

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace every call made inside the block as part of operation ``op``."""
        saved = [(holder, attr, getattr(holder, attr)) for holder, attr, _ in self._patches]
        for holder, attr, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        self._op = op
        ironed = sys.modules["agency.typedist"].ironed
        before = ironed.cache_info()
        root = self._open(self._id["bench.op"])
        try:
            yield
        finally:
            self._close(root)
            for holder, attr, orig in saved:
                setattr(holder, attr, orig)
            after = ironed.cache_info()
            self.ironed_hits += after.hits - before.hits
            self.ironed_misses += after.misses - before.misses

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, orig, name_id: int):
        count = {
            "typedist.iron": self._count_flats,
            "metrics.linear_revenue": self._count_revenue_eval,
            "incentives.certify_non_implementable_at": self._count_certificate,
            "examples.non_monotone_audit": self._count_audit,
        }.get(self.names[name_id])

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(args, out)
            return out

        return traced

    def _count_flats(self, args, iv) -> None:
        self.counts["typedist.iron.flats"] += len(iv.flats)

    def _count_revenue_eval(self, args, out) -> None:
        best_linear = self._id["metrics.best_linear"]
        if any(self.name_id[i] == best_linear for i in self._stack):
            self.counts["metrics.best_linear.revenue_evals"] += 1

    def _count_certificate(self, args, cert) -> None:
        # the grid spans every outcome's payment, the null outcome's too
        axis = len(np.arange(cert.box[0], cert.box[1] + cert.step / 2.0, cert.step))
        self.counts["incentives.certify_non_implementable_at.profiles"] += cert.consistent_profiles
        self.counts["incentives.certify_non_implementable_at.grid_profiles"] += axis ** (args[0].m + 1)

    def _count_audit(self, args, audit) -> None:
        lo, hi = audit["box"]
        axis = len(np.arange(lo, hi + audit["grid_step"] / 2.0, audit["grid_step"]))
        self.counts["examples.non_monotone_audit.profiles"] += axis ** 3

    # -- results -----------------------------------------------------------

    def self_times(self, ops=None) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every recorded span, or
        over the spans of the operations in ``ops``."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        keep = np.ones(len(dur), dtype=bool)
        if ops is not None:
            keep = np.isin(np.frombuffer(self.op, dtype=np.int32), list(ops))
        self_s = np.bincount(names[keep], weights=(dur - child)[keep], minlength=len(self.names))
        calls = np.bincount(names[keep], minlength=len(self.names))
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def write(self, path: str, meta: dict) -> None:
        """Write every span to an ``.npz`` sidecar file."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            meta=np.asarray(repr(meta)),
        )
