"""CSV exchange formats, run manifests, and the command-line interface."""

import csv
import json
import math
import re

import numpy as np
import pytest

from driftknn.classifiers import (
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_predict,
)
from driftknn.core import HyperParams, RandomSource, SampleSet, TransferDataset, pooled_sample_set
from driftknn.io_cli import (
    CsvFormatError,
    manifest_argv,
    read_labeled_csv,
    read_points_csv,
    run_cli,
    write_aggregate_csv,
    write_labeled_csv,
    write_manifest,
    write_records_csv,
)
from driftknn.simulation import (
    _EXPERIMENT_STREAM_IDS,
    classification_accuracy,
    fit_method,
    make_drift_model,
    run_accuracy_experiment,
    sample_multisource_dataset,
    sample_test_points,
    summarize_accuracy,
)


def make_set(points, labels):
    return SampleSet(np.asarray(points, dtype=float), np.asarray(labels))


AWKWARD = [math.pi, 1.0 / 3.0, 1e-17, 6.02214076e23, -0.1]


def write_points(path, rows, header=("x0", "x1")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------- round trips


def test_sample_set_round_trip_is_bit_exact(tmp_path):
    pts = np.array([AWKWARD, AWKWARD[::-1]])
    s = SampleSet(pts, np.array([0, 1]))
    path = tmp_path / "plain.csv"
    write_labeled_csv(path, s)
    assert path.read_text().splitlines()[0] == "x0,x1,x2,x3,x4,y"
    back = read_labeled_csv(path)
    assert isinstance(back, SampleSet) and back.d == 5
    np.testing.assert_array_equal(back.points, s.points)
    np.testing.assert_array_equal(back.labels, s.labels)


def test_transfer_round_trip(tmp_path):
    p = make_set([[math.pi, 0.1], [2.5, -1e-12]], [1, 0])
    q = make_set([[0.0, 1e300]], [1])
    ds = TransferDataset((p,), q)
    path = tmp_path / "transfer.csv"
    write_labeled_csv(path, ds)
    back = read_labeled_csv(path)
    assert isinstance(back, TransferDataset) and (back.m, back.d) == (1, 2)
    np.testing.assert_array_equal(back.sources[0].points, p.points)
    np.testing.assert_array_equal(back.sources[0].labels, p.labels)
    np.testing.assert_array_equal(back.q_data.points, q.points)
    # P rows precede Q rows in the file
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,y,origin"
    assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["P", "P", "Q"]


def test_transfer_round_trip_with_empty_target(tmp_path):
    ds = TransferDataset((make_set([[1.0]], [1]),), SampleSet.empty(1))
    path = tmp_path / "ponly.csv"
    write_labeled_csv(path, ds)
    back = read_labeled_csv(path)
    assert isinstance(back, TransferDataset)
    assert back.n_p == 1 and back.n_q == 0
    assert back.d == 1


def test_multisource_round_trip(tmp_path):
    s1 = make_set([[0.1, 0.2]], [1])
    s2 = make_set([[0.3, 0.4], [0.5, 0.6]], [0, 1])
    q = make_set([[0.7, 0.8]], [0])
    mds = TransferDataset((s1, s2), q)
    path = tmp_path / "multi.csv"
    write_labeled_csv(path, mds)
    back = read_labeled_csv(path)
    assert isinstance(back, TransferDataset)
    assert (back.m, back.d) == (2, 2)
    assert [ln.rsplit(",", 1)[1] for ln in path.read_text().splitlines()[1:]] == \
        ["P1", "P2", "P2", "Q"]
    np.testing.assert_array_equal(back.sources[1].points, s2.points)
    np.testing.assert_array_equal(back.q_data.labels, q.labels)


@pytest.mark.parametrize("tags, rows_per_set", [
    (["Q", "P", "Q", "P"], [[1, 3], [0, 2]]),  # P, Q
    (["P2", "Q", "P1", "P2"], [[2], [0, 3], [1]]),  # P1, P2, Q
])
def test_interleaved_tags_round_trip(tmp_path, tags, rows_per_set):
    # each set keeps its rows in file order, whatever the order of the tags
    xs, ys = np.array([0.5, 0.25, 1 / 3, 1.5]), np.array([1, 0, 0, 1])
    path = write_text(tmp_path / "mixed.csv", "x0,y,origin\n" + "".join(
        f"{x!r},{y},{t}\n" for x, y, t in zip(xs.tolist(), ys.tolist(), tags)))
    data = read_labeled_csv(path)
    write_labeled_csv(tmp_path / "back.csv", data)
    for ds in (data, read_labeled_csv(tmp_path / "back.csv")):
        for s, rows in zip([*ds.sources, ds.q_data], rows_per_set, strict=True):
            np.testing.assert_array_equal(s.points[:, 0], xs[rows])
            np.testing.assert_array_equal(s.labels, ys[rows])


def test_write_rejects_non_dataset(tmp_path):
    with pytest.raises(TypeError, match="not a dataset"):
        write_labeled_csv(tmp_path / "x.csv", [1, 2, 3])


# ---------------------------------------------------------------- format errors


def write_text(path, text):
    path.write_text(text)
    return path


def test_read_empty_file(tmp_path):
    p = write_text(tmp_path / "e.csv", "")
    with pytest.raises(CsvFormatError, match="line 1: empty file"):
        read_labeled_csv(p)


def test_read_bad_headers(tmp_path):
    p = write_text(tmp_path / "h1.csv", "x0,x1\n0,1\n")
    with pytest.raises(CsvFormatError, match="must end with 'y'"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "h2.csv", "x0,x2,y\n0,1,0\n")
    with pytest.raises(CsvFormatError, match="feature columns must be x0"):
        read_labeled_csv(p)


def test_read_field_count_cites_line(tmp_path):
    p = write_text(tmp_path / "c.csv", "x0,x1,y\n0,1,0\n0,1\n")
    with pytest.raises(CsvFormatError, match="line 3: expected 3 fields, got 2"):
        read_labeled_csv(p)


def test_read_bad_values_cite_line(tmp_path):
    p = write_text(tmp_path / "v1.csv", "x0,y\n0,0\n1,1\nfoo,0\n")
    with pytest.raises(CsvFormatError, match="line 4: non-numeric"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "v2.csv", "x0,y\ninf,0\n")
    with pytest.raises(CsvFormatError, match="line 2: non-finite"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "v3.csv", "x0,y\n0,0\n1,2\n")
    with pytest.raises(CsvFormatError, match="line 3: label must be 0 or 1, got '2'"):
        read_labeled_csv(p)


def test_read_origin_tag_errors(tmp_path):
    p = write_text(tmp_path / "o1.csv", "x0,y,origin\n0,0,R\n")
    with pytest.raises(CsvFormatError, match="line 2: unknown origin tag 'R'"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "o2.csv", "x0,y,origin\n0,0,P\n1,1,P1\n")
    with pytest.raises(CsvFormatError, match="cannot mix origin 'P'"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "o3.csv", "x0,y,origin\n0,0,P1\n1,1,P3\n")
    with pytest.raises(CsvFormatError, match="contiguous P1..Pm"):
        read_labeled_csv(p)


@pytest.mark.parametrize("tag", ["P01", "P0", "P\u0661", "P\u00b2", "p1", "P+1"])
def test_origin_tag_grammar_is_ascii_without_leading_zero(tmp_path, tag, capsys):
    # tags are exactly P, Q and P[1-9][0-9]*: P01 and P\u0661 must not
    # alias P1, and P\u00b2 is a digit to str.isdigit but not to int()
    p = write_text(tmp_path / "t.csv", f"x0,y,origin\n0.1,0,{tag}\n0.2,1,Q\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"line 2: unknown origin tag {tag!r}")):
        read_labeled_csv(p)
    test = tmp_path / "test.csv"
    write_points(test, [[0.5]], header=("x0",))
    assert run_cli(["predict", "--method", "adaptive", "--train", str(p), "--test", str(test),
                    "--out", str(tmp_path / "pred.csv")]) == 1
    assert f"line 2: unknown origin tag {tag!r}" in capsys.readouterr().err


def test_read_reports_the_first_faulty_line(tmp_path):
    # within a file the earlier line wins, whatever the kind of fault; a
    # query file names the line of a non-finite coordinate
    p = write_text(tmp_path / "two.csv", "x0,y,origin\n0,0,P\n0,1,R\n0,1\n")
    with pytest.raises(CsvFormatError, match="line 3: unknown origin tag 'R'"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "two.csv", "x0,y\n0,0\n1,2\nnan,0\n")
    with pytest.raises(CsvFormatError, match="line 3: label must be 0 or 1"):
        read_labeled_csv(p)
    p = write_text(tmp_path / "pts.csv", "x0,x1\n0,1\n2,inf\nzzz,0\n")
    with pytest.raises(CsvFormatError, match="line 3: non-finite coordinate"):
        read_points_csv(p)


def test_read_skips_blank_lines(tmp_path):
    p = write_text(tmp_path / "b.csv", "x0,y\n0,1\n\n1,0\n")
    s = read_labeled_csv(p)
    assert len(s) == 2


def test_multisource_without_target_rows(tmp_path):
    p = write_text(tmp_path / "m.csv", "x0,y,origin\n0,1,P1\n1,0,P2\n")
    mds = read_labeled_csv(p)
    assert isinstance(mds, TransferDataset)
    assert mds.m == 2
    assert mds.n_q == 0


def test_single_numbered_source_reads_as_a_p_q_file(tmp_path):
    body = "0.25,1,{}\n0.5,0,Q\n0.75,1,{}\n"
    numbered = write_text(tmp_path / "p1.csv", "x0,y,origin\n" + body.format("P1", "P1"))
    tagged = write_text(tmp_path / "pq.csv", "x0,y,origin\n" + body.format("P", "P"))
    a, b = read_labeled_csv(numbered), read_labeled_csv(tagged)
    assert (a.m, a.source_sizes, a.n_q) == (b.m, b.source_sizes, b.n_q) == (1, (2,), 1)
    for s, t in zip((*a.sources, a.q_data), (*b.sources, b.q_data)):
        np.testing.assert_array_equal(s.points, t.points)
        np.testing.assert_array_equal(s.labels, t.labels)
    # a write-back uses P/Q tags
    assert write_labeled_csv(tmp_path / "back.csv", a) is None
    with open(tmp_path / "back.csv", newline="") as fh:
        assert [row["origin"] for row in csv.DictReader(fh)] == ["P", "P", "Q"]
    assert (tmp_path / "back.csv").read_text() == "x0,y,origin\n0.25,1,P\n0.75,1,P\n0.5,0,Q\n"


# ---------------------------------------------------------------- query points


def test_read_points_basic(tmp_path):
    p = tmp_path / "pts.csv"
    write_points(p, [[0.25, 0.5], [0.75, 1.0]])
    pts = read_points_csv(p)
    np.testing.assert_array_equal(pts, [[0.25, 0.5], [0.75, 1.0]])


def test_read_points_ignores_extra_columns(tmp_path):
    p = write_text(tmp_path / "pts.csv", "x0,x1,y_pred\n0.1,0.2,1\n0.3,0.4,0\n")
    pts = read_points_csv(p)
    assert pts.shape == (2, 2)
    np.testing.assert_allclose(pts[1], [0.3, 0.4])


def test_read_points_errors(tmp_path):
    with pytest.raises(CsvFormatError, match="line 1: empty"):
        read_points_csv(write_text(tmp_path / "e.csv", ""))
    with pytest.raises(CsvFormatError, match="expected feature columns"):
        read_points_csv(write_text(tmp_path / "h.csv", "lat,lon\n0,1\n"))
    with pytest.raises(CsvFormatError, match="no data rows"):
        read_points_csv(write_text(tmp_path / "n.csv", "x0\n"))
    with pytest.raises(CsvFormatError, match="line 2: non-numeric"):
        read_points_csv(write_text(tmp_path / "v.csv", "x0\nzzz\n"))
    with pytest.raises(CsvFormatError, match="line 3: expected >= 2"):
        read_points_csv(write_text(tmp_path / "s.csv", "x0,x1\n0,1\n2\n"))


# ---------------------------------------------------------------- result files


def test_records_and_aggregate_files(tmp_path):
    records = run_accuracy_experiment(
        "fig4a", methods=("qonly",), p_max_values=(0.55,), n_p_values=(10,),
        n_q=20, reps=3, seed=5)
    rec_path = tmp_path / "records.csv"
    write_records_csv(rec_path, records)
    with open(rec_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert rows[0]["method"] == "qonly"
    assert float(rows[0]["p_max"]) == 0.55
    assert rows[0]["excess_risk"] == ""
    agg_path = tmp_path / "agg.csv"
    agg = summarize_accuracy(records)
    write_aggregate_csv(agg_path, agg)
    with open(agg_path) as fh:
        arows = list(csv.DictReader(fh))
    assert len(arows) == 1
    # repr round-trips the mean exactly
    assert float(arows[0]["accuracy_mean"]) == agg[0].accuracy_mean
    assert int(arows[0]["reps"]) == 3


def test_manifest_round_trip(tmp_path):
    out = tmp_path / "result.csv"
    out.write_text("stub\n")
    argv = ["simulate", "fig4a", "--out", str(out), "--seed", "3"]
    mpath = write_manifest(out, argv, seed=3, started="2026-01-01T00:00:00+00:00",
                           config={"command": "simulate"})
    assert mpath.name == "result.csv.manifest.jsonl"
    assert manifest_argv(mpath) == argv
    entry = json.loads(mpath.read_text())
    assert entry["seed"] == 3
    assert "version" in entry
    with pytest.raises(ValueError, match="empty manifest"):
        manifest_argv(write_text(tmp_path / "empty.jsonl", ""))


# ---------------------------------------------------------------- CLI


def transfer_csv(tmp_path, name="train.csv"):
    # two tight clusters with opposite labels, in both samples
    p_pts = [[0.1, 0.1], [0.12, 0.1], [0.9, 0.9], [0.88, 0.9]]
    q_pts = [[0.1, 0.12], [0.14, 0.1], [0.9, 0.88], [0.86, 0.9]]
    ds = TransferDataset((make_set(p_pts, [0, 0, 1, 1]),), make_set(q_pts, [0, 0, 1, 1]))
    path = tmp_path / name
    write_labeled_csv(path, ds)
    return path


def test_cli_predict_knn(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.11, 0.11], [0.89, 0.89]])
    out = tmp_path / "pred.csv"
    code = run_cli(["predict", "--method", "knn", "--train", str(train),
                    "--test", str(test), "--out", str(out), "--k", "1"])
    assert code == 0
    assert "2 predictions" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["y_pred"] for r in rows] == ["0", "1"]
    assert (tmp_path / "pred.csv.manifest.jsonl").exists()


def test_cli_predict_all_methods(tmp_path):
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.11, 0.11], [0.89, 0.89], [0.5, 0.5]])
    cases = [
        ["--method", "knn"],
        ["--method", "knn", "--pool", "--k", "3"],
        ["--method", "weighted", "--gamma", "0.3"],
        ["--method", "adaptive"],
        ["--method", "lepski", "--lepski-width", "lemma5"],
        ["--method", "lepski", "--pool"],
        ["--method", "combined", "--gamma", "0.3"],
        ["--method", "combined"],
    ]
    for i, extra in enumerate(cases):
        out = tmp_path / f"pred{i}.csv"
        code = run_cli(["predict", "--train", str(train), "--test", str(test),
                        "--out", str(out)] + extra)
        assert code == 0, extra
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["y_pred"] in ("0", "1") for r in rows)


def test_cli_predict_multisource(tmp_path):
    s1 = make_set([[0.1, 0.1], [0.9, 0.9]], [0, 1])
    s2 = make_set([[0.12, 0.1], [0.88, 0.9]], [0, 1])
    q = make_set([[0.1, 0.12], [0.9, 0.88]], [0, 1])
    train = tmp_path / "multi.csv"
    write_labeled_csv(train, TransferDataset((s1, s2), q))
    test = tmp_path / "test.csv"
    write_points(test, [[0.1, 0.1], [0.9, 0.9]])
    out = tmp_path / "pred.csv"
    for gamma in ("0.3", "0.3,0.5"):
        code = run_cli(["predict", "--method", "multisource", "--train", str(train),
                        "--test", str(test), "--out", str(out), "--gamma", gamma])
        assert code == 0
    code = run_cli(["predict", "--method", "adaptive", "--train", str(train),
                    "--test", str(test), "--out", str(out)])
    assert code == 0


def test_cli_weighted_and_multisource_are_one_fit(tmp_path):
    gen = np.random.default_rng(23)
    sets = [make_set(gen.integers(0, 9, size=(n, 2)) / 8, gen.integers(0, 2, n))
            for n in (40, 30, 50)]
    pq, multi, plain = tmp_path / "pq.csv", tmp_path / "multi.csv", tmp_path / "plain.csv"
    write_labeled_csv(pq, TransferDataset((sets[0],), sets[2]))
    write_labeled_csv(multi, TransferDataset(sets[:2], sets[2]))
    write_labeled_csv(plain, sets[2])
    test = tmp_path / "test.csv"
    write_points(test, (gen.integers(0, 9, size=(25, 2)) / 8).tolist())
    for train, gamma in ((pq, "0.3"), (multi, "0.3"), (multi, "0.3,0.6")):
        outputs = []
        for method in ("weighted", "multisource"):
            out = tmp_path / f"{method}.csv"
            assert run_cli(["predict", "--method", method, "--train", str(train),
                            "--test", str(test), "--out", str(out), "--gamma", gamma]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], (train, gamma)
    # both need origin tags
    for method in ("weighted", "multisource"):
        assert run_cli(["predict", "--method", method, "--train", str(plain), "--test",
                        str(test), "--out", str(tmp_path / "x.csv"), "--gamma", "0.3"]) == 2


def lattice_set(gen, n):
    """n rows on the 1/8 lattice of the unit square with coin-flip labels."""
    return make_set(gen.integers(0, 9, size=(n, 2)) / 8, gen.integers(0, 2, n))


def cli_labels(tmp_path, train, test, extra):
    out = tmp_path / "golden.csv"
    assert run_cli(["predict", "--train", str(train), "--test", str(test),
                    "--out", str(out)] + extra) == 0, extra
    with open(out) as fh:
        return [int(r["y_pred"]) for r in csv.DictReader(fh)]


def test_cli_predict_matches_library_labels(tmp_path):
    gen = np.random.default_rng(17)
    ds = TransferDataset((lattice_set(gen, 60),), lattice_set(gen, 90))
    mds = TransferDataset((lattice_set(gen, 40), lattice_set(gen, 50)), lattice_set(gen, 70))
    queries = gen.integers(0, 9, size=(30, 2)) / 8
    train, multi, test = tmp_path / "pq.csv", tmp_path / "multi.csv", tmp_path / "q.csv"
    write_labeled_csv(train, ds)
    write_labeled_csv(multi, mds)
    write_points(test, queries.tolist())
    hp = HyperParams(alpha=0.0, beta=1.0, gamma=0.3, d=2)
    q, pooled = ds.q_data, pooled_sample_set(ds)
    plan = minimax_plan(ds.source_sizes, ds.n_q, hp)
    mplan = minimax_plan(mds.source_sizes, mds.n_q, HyperParams(0.0, 1.0, (0.3, 0.3), 2))
    cases = [
        (train, ["--method", "knn"], lambda x: knn_predict(q, default_knn_k(len(q), hp), x)),
        (train, ["--method", "knn", "--pool"],
         lambda x: knn_predict(pooled, default_knn_k(len(pooled), hp), x)),
        (train, ["--method", "weighted", "--gamma", "0.3"],
         lambda x: weighted_knn_predict(ds, plan, x)),
        (train, ["--method", "adaptive"], lambda x: adaptive_predict(ds, x)[0]),
        (train, ["--method", "lepski"], lambda x: lepski_predict(q, x)[0]),
        (train, ["--method", "lepski", "--pool"], lambda x: lepski_predict(pooled, x)[0]),
        (train, ["--method", "combined", "--gamma", "0.3"],
         lambda x: knn_predict(pooled, combined_budget_k(ds.n_p, ds.n_q, hp), x)),
        (train, ["--method", "combined"],
         lambda x: knn_predict(pooled, default_knn_k(len(pooled), hp), x)),
        (multi, ["--method", "multisource", "--gamma", "0.3"],
         lambda x: weighted_knn_predict(mds, mplan, x)),
        (multi, ["--method", "weighted", "--gamma", "0.3"],
         lambda x: weighted_knn_predict(mds, mplan, x)),
        (multi, ["--method", "adaptive"], lambda x: adaptive_predict(mds, x)[0]),
    ]
    for path, extra, library in cases:
        assert cli_labels(tmp_path, path, test, extra) == [library(x) for x in queries], extra


def test_cli_predict_usage_errors(tmp_path):
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    out = tmp_path / "pred.csv"
    base = ["predict", "--train", str(train), "--test", str(test), "--out", str(out)]
    # weighted needs a gamma for the plan
    assert run_cli(base + ["--method", "weighted"]) == 2
    # multisource is the weighted fit under its other name, on a P/Q file too
    assert run_cli(base + ["--method", "multisource", "--gamma", "0.3"]) == 0
    multi_out = out.read_bytes()
    assert run_cli(base + ["--method", "weighted", "--gamma", "0.3"]) == 0
    assert out.read_bytes() == multi_out
    # k out of range for the 4 target rows
    assert run_cli(base + ["--method", "knn", "--k", "9"]) == 2
    # declared dimension disagrees with the file
    assert run_cli(base + ["--method", "knn", "--d", "3"]) == 2
    # gamma must parse as numbers
    assert run_cli(base + ["--method", "weighted", "--gamma", "abc"]) == 2


def test_cli_predict_bad_gamma_is_a_usage_error(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    multi = tmp_path / "multi.csv"
    s = make_set([[0.1, 0.1], [0.9, 0.9]], [0, 1])
    write_labeled_csv(multi, TransferDataset((s, s), s))
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    cases = [(train, method, gamma, f"gamma vector has {count} entries, need 1")
             for method in ("knn", "combined", "weighted", "lepski", "knn --k 2", "adaptive")
             for gamma, count in (("", 0), (",", 0), ("0.3,0.5", 2))]
    cases += [(multi, "multisource", "", "gamma vector has 0 entries, need 2"),
              (multi, "multisource", "0.3,0.5,0.7", "gamma vector has 3 entries, need 2")]
    for path, method, gamma, message in cases:
        code = run_cli(["predict", "--method", *method.split(), "--train", str(path),
                        "--test", str(test), "--out", str(tmp_path / "pred.csv"),
                        "--gamma", gamma])
        assert code == 2, (method, gamma)
        assert message in capsys.readouterr().err, (method, gamma)


def test_cli_predict_runtime_errors(tmp_path):
    train = transfer_csv(tmp_path)
    out = tmp_path / "pred.csv"
    # missing training file
    code = run_cli(["predict", "--method", "knn", "--train", str(tmp_path / "no.csv"),
                    "--test", str(train), "--out", str(out)])
    assert code == 1
    # test dimension mismatch
    test1d = tmp_path / "t1.csv"
    write_points(test1d, [[0.5]], header=("x0",))
    code = run_cli(["predict", "--method", "knn", "--train", str(train),
                    "--test", str(test1d), "--out", str(out)])
    assert code == 1


def test_cli_predict_plain_csv_needs_tags_for_adaptive(tmp_path):
    plain = tmp_path / "plain.csv"
    write_labeled_csv(plain, make_set([[0.1, 0.1], [0.9, 0.9]], [0, 1]))
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    out = tmp_path / "pred.csv"
    assert run_cli(["predict", "--method", "adaptive", "--train", str(plain),
                    "--test", str(test), "--out", str(out)]) == 2
    # plain knn still works on an untagged file
    assert run_cli(["predict", "--method", "knn", "--train", str(plain),
                    "--test", str(test), "--out", str(out)]) == 0


def test_cli_simulate_and_manifest_reproduces(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    argv = ["simulate", "fig4a", "--out", str(out), "--seed", "3", "--reps", "2",
            "--np", "30", "--nq", "25", "--pmax", "0.55"]
    assert run_cli(argv) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out}" in stdout
    first = out.read_bytes()
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"weighted", "combined", "qonly"}
    assert all(r["experiment"] == "fig4a" for r in rows)
    # the manifest stores the argv, and replaying it reproduces the bytes
    stored = manifest_argv(tmp_path / "agg.csv.manifest.jsonl")
    assert stored == argv
    assert run_cli(stored) == 0
    assert out.read_bytes() == first


def test_cli_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "agg.csv")
    assert run_cli(["simulate", "fig4a", "--out", out, "--reps", "0"]) == 2
    assert run_cli(["simulate", "fig4a", "--out", out, "--reps", "1",
                    "--pmax", "0.4"]) == 2
    assert run_cli(["simulate", "fig4a", "--out", out, "--reps", "1",
                    "--np", "-5"]) == 2
    assert run_cli(["simulate", "fig4a", "--out", out, "--reps", "1",
                    "--np", "x"]) == 2
    # argparse rejects unknown experiment names with its own exit code 2
    assert run_cli(["simulate", "no-such-sweep", "--out", out]) == 2


def test_cli_rate_check(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    code = run_cli(["rate-check", "--sizes", "20,40,80,200", "--reps", "2",
                    "--nmc", "1000", "--pmax", "0.7", "--seed", "2",
                    "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fitted slope" in stdout
    assert "target slope" in stdout
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(r["accuracy"] == "" for r in rows)
    assert (tmp_path / "rate.csv.manifest.jsonl").exists()


def test_cli_rate_check_usage_errors():
    assert run_cli(["rate-check", "--sizes", "10,20,30"]) == 2  # too few sizes
    assert run_cli(["rate-check", "--sizes", "20,40,80,200", "--reps", "1"]) == 2
    assert run_cli(["rate-check", "--sizes", "20,40,80,200", "--reps", "2",
                    "--pmax", "0.3"]) == 2
    assert run_cli(["rate-check", "--sizes", "20,40,80,200", "--reps", "2",
                    "--nmc", "1"]) == 2


def test_cli_eval(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    out = tmp_path / "eval.csv"
    code = run_cli(["eval", "--method", "qonly", "--train", str(train),
                    "--pmax", "0.55", "--n-test", "50", "--nmc", "2000",
                    "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout and "excess risk" in stdout
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["method"] == "qonly"
    assert 0.0 <= float(rows[0]["accuracy"]) <= 1.0
    assert float(rows[0]["excess_risk"]) >= 0.0


def test_cli_eval_usage_errors(tmp_path):
    train = transfer_csv(tmp_path)
    assert run_cli(["eval", "--method", "qonly", "--train", str(train)]) == 2
    assert run_cli(["eval", "--method", "qonly", "--train", str(train),
                    "--pmax", "0.55", "--n-test", "0"]) == 2
    assert run_cli(["eval", "--method", "qonly", "--train", str(train),
                    "--pmax", "0.55", "--nmc", "1"]) == 2


def test_cli_eval_per_source_gamma(tmp_path, capsys):
    model = make_drift_model(0.55, 0.3, 2)
    mds = sample_multisource_dataset(model, (60, 80), 100, RandomSource(5))
    train, out = tmp_path / "multi.csv", tmp_path / "eval.csv"
    write_labeled_csv(train, mds)
    base = ["eval", "--train", str(train), "--pmax", "0.55", "--n-test", "50",
            "--nmc", "2000", "--seed", "1", "--out", str(out)]
    rs = RandomSource(1).substream(_EXPERIMENT_STREAM_IDS["eval"])
    test = sample_test_points(model.x_c, 0.05, 50, rs.substream(0))
    # one value stays a scalar gamma, written as before; two give the vector
    for gamma, extra, cell, hp_gamma in (("0.30", [], "0.3", 0.3),
                                         ("0.3,0.5", ["--gamma-sim", "0.3"], "0.3,0.5",
                                          (0.3, 0.5))):
        assert run_cli(base + ["--method", "weighted", "--gamma", gamma] + extra) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        fitted = fit_method("weighted", read_labeled_csv(train),
                            HyperParams(alpha=0.0, beta=1.0, gamma=hp_gamma, d=2))
        assert row["gamma"] == cell
        assert row["gamma_sim"] == "0.3"
        assert float(row["accuracy"]) == classification_accuracy(
            fitted.predict_batch, model, test)
    capsys.readouterr()
    # any other count, or a vector without the model's own exponent, is a usage error
    for gamma, extra, message in (
            ("0.3,0.5,0.7", ["--gamma-sim", "0.3"], "gamma vector has 3 entries, need 2"),
            ("0.3,0.5", [], "needs --gamma-sim")):
        assert run_cli(base + ["--method", "weighted", "--gamma", gamma] + extra) == 2
        assert message in capsys.readouterr().err
    # the pooled baseline takes its budget from a one-source plan, so a true
    # vector still fails there (a runtime error)
    assert run_cli(base + ["--method", "combined", "--gamma", "0.3,0.5",
                           "--gamma-sim", "0.3"]) == 1
    assert "gamma vector has 2 entries, need 1" in capsys.readouterr().err


def test_cli_argparse_failures():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
