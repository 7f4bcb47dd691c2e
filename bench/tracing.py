"""Spans around the public functions of pgsearch, recorded from outside.

:class:`Tracer` wraps every public function of the layer modules and
rebinds each name wherever a pgsearch module imported it, so that
``pgsearch.optimizer.run_schedule`` and ``pgsearch.cli.sv_run_schedule``
are timed at the call sites the program really uses.  Spans live in flat
arrays while the run goes on and are written to one ``.npz`` side file at
the end; :func:`layer_metrics` computes every per-layer metric from that
file alone.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

from workloads import search_box

LAYERS = ("cli", "analysis", "optimizer", "model", "statevector")

#: Per-iteration kernels and O(1) helpers called once per candidate or per
#: oracle query.  A span on a call that takes a microsecond or two would
#: measure the tracer, so their time stays in the caller's self time.
NO_SPAN = frozenset({
    "model.apply_global", "model.apply_local", "model.uniform_state",
    "model.norm_squared", "model.block_success_probability",
    "model.item_success_probability",
    "statevector.sv_apply_oracle", "statevector.sv_apply_global_diffusion",
    "statevector.sv_apply_local_diffusion",
})

#: Largest N whose full-state kernels count as "small" (fresh arrays that
#: still fit the caches comfortably); larger N count as "large".
SMALL_N_MAX = 1 << 20

#: Minimum memory traffic of one full-state query: read and write each
#: float64 amplitude once.
BYTES_PER_AMP_QUERY = 16


def _amp_bytes(state) -> int:
    return 8 * state.amplitudes.size


def _box(g) -> int:
    j1_max, j2_max = search_box(g.n_items, g.n_blocks)
    return (j1_max + 1) * (j2_max + 1)


# Work a span did, as (work, size), taken from its arguments and result.
_WORK = {
    "model.run_schedule": lambda a, r: (a[1].queries, a[0].n_items),
    "statevector.sv_run_schedule":
        lambda a, r: (a[0].n_items * a[2].queries, a[0].n_items),
    "optimizer.optimal_exact_schedule": lambda a, r: (_box(a[0]), a[0].n_items),
    "analysis.comparison_table": lambda a, r: (len(r), 0),
    "statevector.sv_reduce": lambda a, r: (_amp_bytes(a[0]), a[0].amplitudes.size),
    "statevector.measure_block_distribution":
        lambda a, r: (_amp_bytes(a[0]), a[0].amplitudes.size),
    "statevector.save_state": lambda a, r: (_amp_bytes(a[0]), a[0].amplitudes.size),
    "statevector.load_state": lambda a, r: (_amp_bytes(r), r.amplitudes.size),
}


class Tracer:
    """Records one span per call of each wrapped function.

    A span holds its name, start, end, parent span and request id, plus the
    work it did (queries, amplitude-queries, rows or bytes) where that is
    defined.  ``request`` is set by the caller before each request.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.work = array("d")
        self.size = array("d")
        self.request = -1
        self._stack: list[int] = []
        self._bindings = self._find_bindings()

    def _wrap(self, span_name: str, fn):
        name_id = len(self.names)
        self.names.append(span_name)
        work_of = _WORK.get(span_name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.req.append(self.request)
            self.work.append(0.0)
            self.size.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if work_of is not None:
                self.work[i], self.size[i] = work_of(args, result)
            return result

        return traced

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, name, function, wrapper) for every public function of
        every layer, at every pgsearch module that binds it."""
        import pgsearch

        modules = [pgsearch] + [
            importlib.import_module(f"pgsearch.{layer}") for layer in LAYERS]
        bindings = []
        for layer, module in zip(LAYERS, modules[1:]):
            for attr in module.__all__:
                fn = getattr(module, attr)
                span_name = f"{layer}.{attr}"
                if (not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or span_name in NO_SPAN):
                    continue
                wrapper = self._wrap(span_name, fn)
                bindings += [(site, site_attr, fn, wrapper)
                             for site in modules
                             for site_attr, value in vars(site).items()
                             if value is fn]
        return bindings

    def install(self) -> None:
        """Rebind every wrapped name to its wrapper."""
        for site, attr, _, wrapper in self._bindings:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped name."""
        for site, attr, fn, _ in self._bindings:
            setattr(site, attr, fn)

    def save(self, path: str, req_pass: list[int]) -> None:
        """Write all spans to ``path``; ``req_pass[r]`` is the pass that ran
        request id ``r``."""
        import numpy as np

        np.savez(
            path, names=np.array(self.names), name=np.array(self.name),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent), req=np.array(self.req),
            work=np.array(self.work), size=np.array(self.size),
            req_pass=np.array(req_pass, dtype=np.int64))


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics from a span file written by :meth:`Tracer.save`.

    Counts are per pass and exact (every traced pass runs the same request
    list, so they are taken from the first).  Times are per pass, averaged
    over the traced passes.  Rates are totals over all traced passes.  A
    metric of a layer that did no work in the workload reads 0.
    """
    import numpy as np

    with np.load(path) as f:
        span = {key: f[key] for key in f.files}
    names = list(span["names"])
    name, parent = span["name"], span["parent"]
    dur = span["end"] - span["start"]
    work, size = span["work"], span["size"]
    span_pass = span["req_pass"][span["req"]]
    passes = max(1, np.unique(span_pass).size)
    first = span_pass == (span_pass.min() if span_pass.size else 0)

    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=name.size)

    def sel(span_name: str):
        return name == (names.index(span_name) if span_name in names else -1)

    def count(span_name: str) -> int:
        return int((sel(span_name) & first).sum())

    def per_pass(values, mask) -> float:
        return float(values[mask].sum()) / passes

    def rate(num, den, scale=1.0) -> float:
        return num * scale / den if den else 0.0

    layer_of = np.array([n.split(".")[0] for n in names])[name]
    exact = sel("optimizer.optimal_exact_schedule")
    exact_ids = np.flatnonzero(exact)
    candidate = sel("model.run_schedule") & np.isin(parent, exact_ids)
    run = sel("model.run_schedule")
    sv = sel("statevector.sv_run_schedule")
    table = sel("analysis.comparison_table")

    def mbps(span_name: str) -> float:
        m = sel(span_name)
        return rate(work[m].sum(), dur[m].sum(), 1e-6)

    def ns_per_amp_query(mask) -> float:
        return rate(dur[mask].sum(), work[mask].sum(), 1e9)

    return {
        "cli.self_s": per_pass(self_t, layer_of == "cli"),
        "cli.parse_k_spec_s": per_pass(dur, sel("cli.parse_k_spec")),
        "analysis.comparison_table.calls": count("analysis.comparison_table"),
        "analysis.rows": int(work[table & first].sum()),
        "analysis.us_per_row": rate(dur[table].sum(), work[table].sum(), 1e6),
        "optimizer.asymptotic_optimum.calls":
            count("optimizer.asymptotic_optimum"),
        "optimizer.exact.calls": count("optimizer.optimal_exact_schedule"),
        "optimizer.exact.self_s": per_pass(self_t, exact),
        "optimizer.candidates": int((candidate & first).sum()),
        "optimizer.candidate_ratio":
            rate((candidate & first).sum(), work[exact & first].sum()),
        "model.run_schedule.calls": count("model.run_schedule"),
        "model.queries": int(work[run & first].sum()),
        "model.ns_per_query": rate(dur[run].sum(), work[run].sum(), 1e9),
        "statevector.amp_queries": int(work[sv & first].sum()),
        "statevector.ns_per_amp_query.small":
            ns_per_amp_query(sv & (size <= SMALL_N_MAX)),
        "statevector.ns_per_amp_query.large":
            ns_per_amp_query(sv & (size > SMALL_N_MAX)),
        "statevector.eff_gbps":
            rate(BYTES_PER_AMP_QUERY * work[sv].sum(), dur[sv].sum(), 1e-9),
        "statevector.sv_reduce_mbps": mbps("statevector.sv_reduce"),
        "statevector.save_state_mbps": mbps("statevector.save_state"),
        "statevector.load_state_mbps": mbps("statevector.load_state"),
        "statevector.block_distribution_mbps":
            mbps("statevector.measure_block_distribution"),
    }
