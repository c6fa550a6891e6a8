"""The benchmark's wrap contract with the package.

``perfbench/spans.py`` traces a sweep by replacing named attributes of
``relaycm`` modules and classes for the duration of a run.  A refactor
that renames or drops one of those names, or that binds it where the
replacement cannot reach (a reference captured at import time), would
break ``perfbench/run.py --trace 1`` without failing any other test.
``spans.py`` is loaded from its file so that no path setup is needed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from relaycm import harness

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    mod = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_is_an_attribute_of_its_owner(spans):
    for owner, attr, *_ in spans._patches():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    assert "required_snr2_db" in harness.__dict__


_SWEEPS = {
    "snr-region": ("""
[run]
kind = snr_region
[link]
variants = hd_matched, hd_legacy_sopt, scale
[sweep]
snr1_db = 17
n_symbols = 500
tol_db = 0.5
""", {"harness.run", "harness.point", "gmi.evaluator_setup", "gmi.rate",
      "gmi.bisection", "gmi.probe", "gmi.scale_search", "demapper.llrs",
      "channel.dmc", "channel.slice", "constellation.map"}),
    "distance-contour": ("""
[run]
kind = distance_contour
[sweep]
spans1 = 0:1
f = 0.5
n_symbols = 500
tol_db = 0.5
""", {"harness.run", "harness.point", "gmi.evaluator_setup", "gmi.rate",
      "gmi.bisection", "gmi.probe", "demapper.llrs", "channel.dmc",
      "channel.slice", "constellation.map"}),
    "coded-contour": ("""
[run]
kind = coded_contour
[sweep]
snr1_db = 16
f = 0.5
snr2_lo_db = 6
[code]
q = 8
chain_len = 8
n_codewords = 1
tol_db = 0.5
""", {"harness.run", "harness.point", "gmi.bisection", "gmi.probe",
      "demapper.llrs", "channel.dmc", "channel.slice", "constellation.map",
      "scldpc.build", "scldpc.encode", "scldpc.decode", "container.plan",
      "container.splice"}),
}


@pytest.mark.parametrize("verb", sorted(_SWEEPS))
def test_traced_sweep_reaches_every_layer(spans, tmp_path, verb):
    ini, want = _SWEEPS[verb]
    path = tmp_path / "sweep.ini"
    path.write_text(ini)
    harness._cached_code.cache_clear()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        rc = harness.main([verb, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    names = {s.name for s in tracer.spans}
    assert want <= names, sorted(want - names)
    points = [s for s in tracer.spans if s.name == "harness.point"]
    assert [s.point for s in points] == list(range(len(points)))
    # the wrappers are gone again
    for owner, attr, *_ in spans._patches():
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), attr
