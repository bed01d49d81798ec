"""Self-tests of the benchmark: reference checker, span recorder, smoke runs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench import run, spans, workloads

PKG, _ = run.import_driftknn(run.ROOT)


class SmallLattice(workloads.PredictLattice):
    """A coarse lattice with few rows, so distance ties are everywhere."""

    GRID = 16
    N_P, N_Q, N_QUERY = 60, 150, 25


def _quiet(*_args):
    pass


def test_reference_agrees_with_package_and_flags_a_flipped_label(tmp_path):
    wl = SmallLattice()
    wl.prepare(tmp_path, seed=5)
    runner = run.OpRunner(PKG.io_cli, wl)
    ops = wl.cycle(0)
    for op in ops:
        runner.run(op)
    assert runner.failures == []
    assert runner.attempted == 3

    op = ops[0]
    lines = op.out.read_text().splitlines()
    head, row = lines[0], lines[1].rsplit(",", 1)
    lines[1] = f"{row[0]},{1 - int(row[1])}"
    op.out.write_text("\n".join([head, *lines[1:]]) + "\n")
    with pytest.raises(ValueError, match="differ from the reference"):
        wl.check(op, "")


def test_reference_flags_a_source_first_tie_rule(tmp_path, monkeypatch):
    # A weak signal on an 8x8 lattice, so the adaptive label often hinges on
    # how a distance tie between P and Q rows is ordered.
    class TieSensitive(SmallLattice):
        GRID, P_MAX = 8, 0.6

    original = PKG.neighbors.merged_order

    def source_first(sets, x):
        mo = original(sets, x)
        order = np.lexsort((mo.within_index, -mo.group, mo.distances))
        return type(mo)(mo.distances[order], mo.group[order], mo.within_index[order],
                        mo.labels[order], mo.n_groups)

    monkeypatch.setattr(PKG.neighbors, "merged_order", source_first)
    failures = []
    for seed in range(6):
        wl = TieSensitive()
        wl.prepare(tmp_path, seed)
        runner = run.OpRunner(PKG.io_cli, wl)
        runner.run(wl.cycle(0)[0])
        failures += runner.failures
    assert any("differ from the reference" in f for f in failures)


def _attribute_snapshot():
    snap = {}
    modules = [PKG] + [getattr(PKG, m) for m in spans._LAYER_MODULES]
    for mod_name, attr, *_ in spans.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(getattr(PKG, mod_name), cls_name)
            snap[(cls, meth)] = cls.__dict__[meth]
        else:
            for mod in modules:
                if attr in mod.__dict__:
                    snap[(mod, attr)] = mod.__dict__[attr]
    return snap


def test_span_recorder_wraps_every_lookup_and_restores_it(tmp_path):
    before = _attribute_snapshot()
    wl = SmallLattice()
    wl.prepare(tmp_path, seed=1)
    with spans.SpanRecorder(PKG) as rec:
        patched = _attribute_snapshot()
        assert all(patched[k] is not v for k, v in before.items())
        for op in wl.cycle(0):
            PKG.io_cli.run_cli(op.argv)
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    names = {s[1] for s in rec.spans}
    assert {"io_cli.run_cli", "classifiers.adaptive_predict", "neighbors.merged_order",
            "classifiers.lepski_predict", "classifiers.weighted_knn_predict",
            "io_cli.read_labeled_csv"} <= names
    for op_id, name, t0, t1, parent, _info in rec.spans:
        assert t1 >= t0
        assert (parent == -1) == (name == "io_cli.run_cli")
        assert parent == -1 or rec.spans[parent][0] == op_id
    assert sorted({s[0] for s in rec.spans}) == [0, 1, 2]
    metrics = spans.layer_metrics(rec.spans, n_ops=3)
    assert metrics["io_cli.read_labeled_csv.rows"] == wl.N_P + wl.N_Q
    assert metrics["classifiers.adaptive_predict.calls"] == pytest.approx(wl.N_QUERY / 3)


def test_self_time_excludes_children():
    recs = [[0, "io_cli.run_cli", 0.0, 10.0, -1, None],
            [0, "io_cli.read_labeled_csv", 1.0, 4.0, 0, 7],
            [0, "core.SampleSet", 2.0, 3.0, 1, None]]
    m = spans.layer_metrics(recs, n_ops=2)
    assert m["io_cli.run_cli.self_ms"] == pytest.approx(3500.0)
    assert m["io_cli.read_labeled_csv.self_ms"] == pytest.approx(1000.0)
    assert m["core.SampleSet.self_ms"] == pytest.approx(500.0)
    assert m["io_cli.read_labeled_csv.rows"] == 3.5


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failed_ops(tmp_path, name):
    result, details = run.run_workload(PKG, 0.0, name, seed=3, seconds=0, trace=False,
                                       work_root=tmp_path, log=_quiet)
    assert details["failures"] == []
    assert details["op_p50_ms"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= run.SETUP_REPEATS + 1
    assert [m for m in result["metrics"]] == [m for m, _ in run.END_TO_END]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric(tmp_path):
    result, _ = run.run_workload(PKG, 0.0, "predict-lattice", seed=3, seconds=0, trace=True,
                                 work_root=tmp_path, log=_quiet)
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m for m, _ in spans.PER_LAYER)
    assert result["metrics"]["classifiers.adaptive.stop_frac"]["value"] == 1.0
    assert (tmp_path / "spans-predict-lattice-seed3.jsonl").stat().st_size > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = workloads.PredictLattice(), workloads.PredictLattice()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a.prepare(tmp_path / "a", seed=9)
    b.prepare(tmp_path / "b", seed=9)
    for name in ("train.csv", "query.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert np.array_equal(a.queries, b.queries)
    assert workloads.op_seed(9, 4) == workloads.op_seed(9, 4) != workloads.op_seed(10, 4)
