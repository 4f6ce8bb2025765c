"""Tests of the benchmark itself: seeded inputs, metric names, the tracer guard."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from analogkit import archive, cli, ensemble  # noqa: E402
from analogkit.errors import DataError, InsufficientAnalogs, WindowUnavailable  # noqa: E402
from analogkit.metric import MetricConfig  # noqa: E402
from analogkit.synthetic import SynthSpec, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    wl = workloads.WORKLOADS[name]

    def input_digest(seed, where):
        wl.setup(tmp_path / where, seed)
        return workloads.digest(tmp_path / where, wl.input_files())

    first = input_digest(7, "first")
    assert input_digest(7, "again") == first
    assert input_digest(8, "other") != first


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]] + list(workloads.STAGE_RATES)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()}


def test_tracer_wraps_every_binding_and_restores_it(monkeypatch):
    original = ensemble.search_classic
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.search_classic is ensemble.search_classic is not original
    finally:
        t.uninstall()
    assert cli.search_classic is ensemble.search_classic is original

    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + [("ensemble", "no_such_layer")])
    with pytest.raises(LookupError, match="no_such_layer"):
        tracer.Tracer().install()
    assert cli.search_classic is original


def test_skip_reasons_classify_the_program_messages():
    fcst, obs, _ = generate(SynthSpec(n_cycles=3, n_leads=2))
    with pytest.raises(WindowUnavailable) as edge:
        archive.extract_window(fcst, 0, 0, 0, t_half=1)
    query = ensemble.AnalogQuery(station=0, target_cycle=2, lead=0, t_half=0,
                                 search_cycles=np.array([0, 1]), m=1)
    elsewhere = archive.ObservationArchive(["elsewhere"], obs.times, obs.values)
    with pytest.raises(DataError) as no_candidates:
        ensemble.search_classic(query, fcst, elsewhere, MetricConfig(np.ones(6), np.ones(6), 0))
    assert oracle.skip_reason(str(edge.value)) == oracle.WINDOW_UNAVAILABLE
    assert oracle.skip_reason(str(InsufficientAnalogs(3, 11))) == oracle.INSUFFICIENT_ANALOGS
    assert oracle.skip_reason(str(no_candidates.value)) == oracle.NO_CANDIDATES
