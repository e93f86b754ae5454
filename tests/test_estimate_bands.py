"""Every zoo band's ``estimate_band`` output, pinned under seven pipelines.

``tests/data/estimate_bands_golden.json`` holds, per pipeline and zoo
workload compiled on ``zu3eg``, the ``repr`` of ``(latency, interval, lut,
ff, dsp)`` of each ``estimate_band`` call the compile makes, in call order:
the default pipeline, the four Figure-11 ablation modes, the ScaleHLS
baseline at factor 8 and the Vitis baseline.  ``repr`` keeps every bit of
each float, so a rewrite of the estimator that reorders its floating-point
operations shows here.  Regenerate only on purpose:
``PYTHONPATH=src python tests/test_estimate_bands.py --regen``.
"""

import contextlib
import json
import pathlib
import sys

import pytest

from repro.baselines import ABLATION_MODES, ablation_pipeline_spec
from repro.baselines.scalehls import scalehls_pipeline_spec
from repro.baselines.vitis import vitis_pipeline_spec
from repro.compiler import DEFAULT_PIPELINE, Compiler
from repro.estimation import qor
from repro.workloads import list_workloads

_GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "estimate_bands_golden.json"

#: Pipeline name -> spec text.
_SPECS = {
    "default": DEFAULT_PIPELINE,
    **{f"ablation-{mode}": ablation_pipeline_spec(mode, 64) for mode in ABLATION_MODES},
    "scalehls-8": scalehls_pipeline_spec(8),
    "vitis": vitis_pipeline_spec(),
}


@contextlib.contextmanager
def _recorded_bands():
    """Collect the ``repr`` row of every ``estimate_band`` call made inside."""
    original = qor.estimate_band
    rows = []

    def recording(band, platform, rec_mii=None):
        latency, interval, resources = original(band, platform, rec_mii)
        rows.append(repr((latency, interval, resources.lut, resources.ff, resources.dsp)))
        return latency, interval, resources

    qor.estimate_band = recording
    try:
        yield rows
    finally:
        qor.estimate_band = original


def _band_rows(spec):
    """Workload -> the band rows of its compile through ``spec``."""
    table = {}
    for workload in list_workloads():
        with _recorded_bands() as rows:
            Compiler.from_spec(spec, platform="zu3eg").run(workload=workload)
        table[workload] = rows
    return table


@pytest.mark.parametrize("name", sorted(_SPECS))
def test_every_zoo_band_estimates_as_recorded(name):
    golden = json.loads(_GOLDEN_PATH.read_text())[name]
    actual = _band_rows(_SPECS[name])
    assert sorted(actual) == sorted(golden)
    assert all(actual.values())
    differing = [
        workload for workload, rows in golden.items() if actual[workload] != rows
    ]
    assert differing == []


def test_golden_covers_every_pipeline():
    golden = json.loads(_GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(_SPECS)
    assert len(_SPECS) == 7


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_estimate_bands.py --regen")
    golden = {name: _band_rows(spec) for name, spec in _SPECS.items()}
    _GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} compiles to {_GOLDEN_PATH}")
