"""Spans recorded around calls into each ``relaycm`` layer.

The benchmark wraps the package's public functions from outside: nothing
in ``src/`` changes.  Each wrapper records a span with its name, start,
end, parent span and grid-point id; spans stay in memory and the layer
metrics are computed from them once the sweep has ended.

``harness`` and ``gmi`` import several functions by name, so those are
wrapped in the namespace where each call looks them up.  Methods are
wrapped on their class, which covers every caller.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("channel", "constellation", "demapper", "gmi", "scldpc", "container", "harness")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    point: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded sweep."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, point=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if point is None and parent is not None:
            point = self.spans[parent].point
        s = Span(name, self.clock(), parent=parent, point=point, attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_self_times(spans) -> dict:
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] += t
    return totals


def _wrap(tracer, fn, name, attrs=None, point=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name, point=point(args) if point else None) as s:
            result = fn(*args, **kwargs)
            if attrs:
                s.attrs.update(attrs(args, kwargs, result))
            return result
    wrapper.__wrapped__ = fn
    return wrapper


def _dmc_attrs(args, kwargs, result):
    c = args[0]
    method = kwargs.get("method", args[3] if len(args) > 3 else "analytic")
    draws = 0
    if method == "mc":
        draws = c.order * kwargs.get("mc_samples", args[4] if len(args) > 4 else 100_000)
    return {"draws": draws}


def _slice_attrs(args, kwargs, result):
    # imported here: untraced runs keep the benchmark process free of numpy
    import numpy as np
    return {"points": int(np.size(args[0])) * len(args[1])}


def _llrs_attrs(args, kwargs, result):
    dem = args[0]
    return {"points": result.shape[0] * dem.constellation.order,
            "kind": "conventional" if dem.transition is None else "equivalent"}


def _decode_attrs(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged.all())}


def counting_bisection(tracer, fn):
    """Wrap ``required_snr2_db`` so that every margin probe is a span."""
    def bisection(margin_fn, *args, **kwargs):
        def probe(db):
            with tracer.span("gmi.probe", snr2_db=db):
                return margin_fn(db)
        with tracer.span("gmi.bisection") as s:
            result = fn(probe, *args, **kwargs)
            s.attrs["reachable"] = not math.isinf(result)
            return result
    bisection.__wrapped__ = fn
    return bisection


def _patches():
    """(owner, attribute, span name, attrs function, point function)."""
    from relaycm import channel, demapper, gmi, harness, scldpc

    def task_index(args):
        return args[0]["index"]

    out = [
        (harness, "run_snr_region", "harness.run", None, None),
        (harness, "run_distance_contour", "harness.run", None, None),
        (harness, "run_coded_contour", "harness.run", None, None),
        (harness, "_region_task", "harness.point", None, task_index),
        (harness, "_distance_task", "harness.point", None, task_index),
        (harness, "_coded_task", "harness.point", None, task_index),
        (channel, "nearest_index", "channel.slice", _slice_attrs, None),
        (demapper.Demapper, "llrs", "demapper.llrs", _llrs_attrs, None),
        (gmi.RelayGmiEvaluator, "__init__", "gmi.evaluator_setup", None, None),
        (gmi.RelayGmiEvaluator, "two_hop_gmi", "gmi.rate", None, None),
        (gmi.RelayGmiEvaluator, "single_hop_gmi", "gmi.rate", None, None),
        (gmi, "optimal_llr_scale", "gmi.scale_search", None, None),
        (scldpc.SpatiallyCoupledCode, "encode", "scldpc.encode", None, None),
        (harness, "build_code", "scldpc.build", None, None),
        (harness, "decode", "scldpc.decode", _decode_attrs, None),
        (harness, "plan_container", "container.plan", None, None),
        (harness, "relay_add", "container.splice", None, None),
        (harness, "select_llrs", "container.splice", None, None),
    ]
    for mod in (harness, gmi):
        out += [
            (mod, "transition_matrix", "channel.dmc", _dmc_attrs, None),
            (mod, "nearest_index", "channel.slice", _slice_attrs, None),
            (mod, "indices_for_bits", "constellation.map", None, None),
        ]
    out.append((harness, "bits_for_indices", "constellation.map", None, None))
    return out


@contextmanager
def installed(tracer):
    """Wrap every traced entry point for the duration of the block."""
    from relaycm import harness

    saved = []
    try:
        for owner, attr, name, attrs, point in _patches():
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(tracer, orig, name, attrs, point))
        orig = harness.required_snr2_db
        saved.append((harness, "required_snr2_db", orig))
        harness.required_snr2_db = counting_bisection(tracer, orig)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(spans, wall_s, n_codewords):
    """Per-layer metrics of one traced sweep that took ``wall_s``.

    ``n_codewords`` is the coded sweep's codewords per evaluation, the
    base of ``scldpc.encodes_per_word``.
    """
    def total(name, **match):
        return sum(s.duration for s in spans if s.name == name
                   and all(s.attrs.get(k) == v for k, v in match.items()))

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": t for layer, t in layer_self_times(spans).items()}
    slice_points = attr_sum("channel.slice", "points")
    dem_points = attr_sum("demapper.llrs", "points")
    bisections = count("gmi.bisection")
    probes = count("gmi.probe")
    words = count("scldpc.decode")
    iterations = attr_sum("scldpc.decode", "iterations")
    decode_s = total("scldpc.decode")
    encodes = count("scldpc.encode")
    points = [s.duration for s in spans if s.name == "harness.point"]
    m.update({
        "channel.dmc_s": total("channel.dmc"),
        "channel.dmc_calls": count("channel.dmc"),
        "channel.mc_draws": attr_sum("channel.dmc", "draws"),
        "channel.slice_s": total("channel.slice"),
        "channel.slice_points": slice_points,
        "channel.slice_ns_per_point": 1e9 * ratio(total("channel.slice"), slice_points),
        "constellation.map_s": total("constellation.map"),
        "demapper.llrs_s": total("demapper.llrs"),
        "demapper.llrs_calls": count("demapper.llrs"),
        "demapper.points": dem_points,
        "demapper.ns_per_point": 1e9 * ratio(total("demapper.llrs"), dem_points),
        "demapper.equivalent_s": total("demapper.llrs", kind="equivalent"),
        "demapper.conventional_s": total("demapper.llrs", kind="conventional"),
        "gmi.evaluator_setup_s": total("gmi.evaluator_setup"),
        "gmi.rate_s": total("gmi.rate"),
        "gmi.scale_search_s": total("gmi.scale_search"),
        "gmi.scale_search_calls": count("gmi.scale_search"),
        "gmi.bisections": bisections,
        "gmi.probes": probes,
        "gmi.probes_per_bisection": ratio(probes, bisections),
        "gmi.probe_s": total("gmi.probe"),
        "gmi.reachable_frac": ratio(attr_sum("gmi.bisection", "reachable"), bisections),
        "scldpc.build_s": total("scldpc.build"),
        "scldpc.encode_s": total("scldpc.encode"),
        "scldpc.encode_calls": encodes,
        "scldpc.encodes_per_word": ratio(encodes, n_codewords * len(points)) if words else 0.0,
        "scldpc.decode_s": decode_s,
        "scldpc.words": words,
        "scldpc.iterations": iterations,
        "scldpc.ms_per_iteration": 1e3 * ratio(decode_s, iterations),
        "scldpc.converged_word_frac": ratio(attr_sum("scldpc.decode", "converged"), words),
        "container.plan_s": total("container.plan"),
        "container.plan_calls": count("container.plan"),
        "container.splice_s": total("container.splice"),
        "harness.point_s_max": max(points, default=0.0),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(layer_self_times(spans).values()),
    })
    return m
