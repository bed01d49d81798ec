"""CSV exchange formats, run manifests, and the command-line interface."""

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftknn
from driftknn import io_cli
from driftknn.classifiers import (
    adaptive_predict,
    combined_budget_k,
    default_knn_k,
    knn_predict,
    lepski_predict,
    minimax_plan,
    weighted_knn_predict,
)
from driftknn.core import (
    BAD_COORD,
    HyperParams,
    RandomSource,
    SampleSet,
    TransferDataset,
    pooled_sample_set,
)
from driftknn.io_cli import (
    CsvFormatError,
    _data_rows,
    _parse_header,
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
    AggregateRow,
    DriftModel,
    ExperimentRecord,
    classification_accuracy,
    fit_method,
    run_accuracy_experiment,
    sample_multisource_dataset,
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
    q = make_set([[0.0, -1e150]], [1])  # the largest magnitude the coordinate rule allows
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


@pytest.mark.parametrize("sizes, empty", [((3, 0, 2), 2), ((3, 2, 0), 3), ((0, 1), 1)])
def test_multisource_write_refuses_an_empty_source(tmp_path, sizes, empty):
    # no row could carry the empty source's tag: the reader would refuse the file
    # (P1, P3) or read fewer sources (P1, P2 of three), so the writer refuses it
    gen = np.random.default_rng(5)
    sets = [make_set(gen.random((n, 2)), gen.integers(0, 2, n)) if n else SampleSet.empty(2)
            for n in sizes]
    path = tmp_path / "gap.csv"
    with pytest.raises(ValueError, match=rf"^source P{empty} is empty; no row can tag it$"):
        write_labeled_csv(path, TransferDataset(tuple(sets), make_set([[0.5, 0.5]], [1])))
    assert not path.exists()
    # one source may be empty: a P/Q file with only Q rows reads back as that dataset
    write_labeled_csv(path, TransferDataset((SampleSet.empty(2),), make_set([[0.5, 0.5]], [1])))
    back = read_labeled_csv(path)
    assert (back.m, back.n_p, back.n_q) == (1, 0, 1)


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


def test_readers_refuse_coordinates_beyond_the_bound(tmp_path):
    # 2e150 breaks the coordinate rule in both readers, with its line named;
    # 1e150, the largest allowed magnitude, reads back exactly
    message = re.escape("line 3: non-finite coordinate or one beyond 1e+150 in magnitude")
    for big in ("2e150", "-2e150"):
        p = write_text(tmp_path / "big.csv", f"x0,x1,y,origin\n0,0,0,P\n0.5,{big},1,Q\n")
        with pytest.raises(CsvFormatError, match=message):
            read_labeled_csv(p)
        with pytest.raises(CsvFormatError, match=message):
            read_points_csv(p)
    p = write_text(tmp_path / "edge.csv", "x0,x1,y\n1e150,-1e150,1\n")
    np.testing.assert_array_equal(read_labeled_csv(p).points, [[1e150, -1e150]])
    np.testing.assert_array_equal(read_points_csv(p), [[1e150, -1e150]])


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
    # a tag is not cut to a field width: Q, 20 spaces, R is unknown
    p = write_text(tmp_path / "o4.csv", f"x0,y,origin\n0,0,Q{' ' * 20}R\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"unknown origin tag 'Q{' ' * 20}R'")):
        read_labeled_csv(p)


@pytest.mark.parametrize("tag", [
    "P01", "P0", "P\u0661", "P\u00b2", "p1", "P+1",
    pytest.param("P" + "9" * 19, id="P-19-digits"),
    pytest.param("P" + "9" * 5000, id="P-5000-digits"),
])
def test_origin_tag_grammar_is_ascii_without_leading_zero(tmp_path, tag, capsys):
    # tags are exactly P, Q and P[1-9][0-9]{0,17}: P01 and P\u0661 must not
    # alias P1, P\u00b2 is a digit to str.isdigit but not to int(), and a
    # number of 19 digits would overflow an int64 code (5000 would pass the
    # 4300-digit limit of int())
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
    with pytest.raises(CsvFormatError, match=re.escape(
            "line 1: expected feature columns x0..x{d-1}, got ['lat', 'lon']")):
        read_points_csv(write_text(tmp_path / "h.csv", "lat,lon\n0,1\n"))
    with pytest.raises(CsvFormatError, match="no data rows"):
        read_points_csv(write_text(tmp_path / "n.csv", "x0\n"))
    with pytest.raises(CsvFormatError, match="line 2: non-numeric"):
        read_points_csv(write_text(tmp_path / "v.csv", "x0\nzzz\n"))
    with pytest.raises(CsvFormatError, match="line 3: expected >= 2"):
        read_points_csv(write_text(tmp_path / "s.csv", "x0,x1\n0,1\n2\n"))


# A field over the csv module's size limit (131072 characters by default).
HUGE = "1" * 200_000


@pytest.mark.parametrize("read, text, line", [
    (read_labeled_csv, f"x0,{HUGE}\n0.5,1\n", 1),
    (read_labeled_csv, f"x0,y\n0.5,1\n0.{HUGE},1\n", 3),
    (read_points_csv, f"x0,{HUGE}\n0.5,1\n", 1),
    (read_points_csv, f"x0\n0.5\n0.{HUGE}\n", 3),
])
def test_readers_cite_the_line_of_an_oversize_field(tmp_path, read, text, line):
    path = write_text(tmp_path / "huge.csv", text)
    with pytest.raises(CsvFormatError, match=f"huge.csv: line {line}: field larger than"):
        read(path)


@pytest.mark.parametrize("read", [read_labeled_csv, read_points_csv])
@pytest.mark.parametrize("rows", [1, 20_000])
def test_readers_refuse_bytes_that_are_not_utf8(tmp_path, read, rows):
    # the text is decoded a block at a time, so a fault past the first block
    # surfaces mid-file; either way the message names the file
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x0,y\n" + b"0.5,1\n" * rows + b"0.25,0\xe9\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{path}: not UTF-8 text (")):
        read(path)


@pytest.mark.parametrize("read", [read_labeled_csv, read_points_csv])
@pytest.mark.parametrize("tail", [f"0.{HUGE},1\n".encode(), b"0.25,0\xe9\n"],
                         ids=["oversize", "not-utf8"])
def test_a_faulty_row_is_reported_before_a_later_unreadable_line(tmp_path, read, tail):
    # rows are checked as they are read, so the earlier fault wins over a line far past it,
    # beyond the first decoded block, that cannot be read at all
    path = tmp_path / "late.csv"
    path.write_bytes(b"x0,y\n0.5,1\nabc,1\n" + b"0.5,1\n" * 20_000 + tail)
    with pytest.raises(CsvFormatError, match="late.csv: line 3: non-numeric coordinate$"):
        read(path)


@pytest.mark.parametrize("tag", ["Q", '"Q"'], ids=["c-pass", "exact"])
def test_readers_accept_a_utf8_byte_order_mark(tmp_path, tag):
    # spreadsheet "CSV UTF-8" exports start with one; only that leading mark is dropped
    path = tmp_path / "bom.csv"
    path.write_bytes(f"\ufeffx0,x1,y,origin\r\n0.25,0.5,1,P\r\n0.75,0.5,0,{tag}\r\n".encode())
    data = read_labeled_csv(path)
    np.testing.assert_array_equal(data.sources[0].points, [[0.25, 0.5]])
    np.testing.assert_array_equal(data.q_data.points, [[0.75, 0.5]])
    np.testing.assert_array_equal(read_points_csv(path), [[0.25, 0.5], [0.75, 0.5]])
    path.write_bytes("\ufeff\ufeffx0,y\n0.5,1\n".encode())
    with pytest.raises(CsvFormatError, match=re.escape("x0..x{d-1}, got ['\\ufeffx0']")):
        read_labeled_csv(path)
    with pytest.raises(CsvFormatError, match=re.escape("x0..x{d-1}, got ['\\ufeffx0', 'y']")):
        read_points_csv(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["x0,x1,y,origin\n", "x0,x1,y,origin\r\n\r\n\n\r",
                                  "x0,x1,y,origin"])
def test_a_header_only_file_reads_without_a_warning(tmp_path, text):
    path = tmp_path / "header.csv"
    path.write_bytes(text.encode())
    data = read_labeled_csv(path)
    assert (data.m, data.n_p, data.n_q, data.d) == (1, 0, 0, 2)
    with pytest.raises(CsvFormatError, match="header.csv: no data rows"):
        read_points_csv(path)


def test_plain_files_take_the_c_pass_and_quoted_ones_the_exact_reader(tmp_path, monkeypatch):
    # a file that write_labeled_csv wrote (\r\n line ends) and one of 1/128-lattice
    # reprs never reach the csv-module reader; a quote anywhere sends a file there
    calls = []
    monkeypatch.setattr(io_cli, "_data_rows",
                        lambda fh, path: calls.append(path) or _data_rows(fh, path))
    gen = np.random.default_rng(3)
    written = tmp_path / "written.csv"
    write_labeled_csv(written, sample_multisource_dataset(DriftModel(0.8), (300, 200), 500,
                                                          RandomSource(2)))
    assert written.read_bytes().count(b"\r\n") == 1001
    lattice = tmp_path / "lattice.csv"
    with open(lattice, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "x1", "y", "origin"])
        w.writerows([repr(a), repr(b), int(gen.integers(2)), "PQ"[i % 3 == 0]]
                    for i, (a, b) in enumerate((gen.integers(0, 129, (700, 2)) / 128).tolist()))
    for path in (written, lattice):
        for read, oracle in ((read_labeled_csv, oracle_read_labeled_csv),
                             (read_points_csv, oracle_read_points_csv)):
            assert read_outcome(read, path) == read_outcome(oracle, path)
        assert calls == []
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(re.sub(rb",([PQ][0-9]*)\r", rb',"\1"\r', path.read_bytes()))
        assert read_outcome(read_labeled_csv, quoted) == read_outcome(read_labeled_csv, path)
        assert calls == [str(quoted)]
        calls.clear()


# ---------------------------------------------------------------- readers vs oracle


# Per-row readers written apart from io_cli, kept as the oracle of both read paths:
# every row is checked in file order, each field as it comes.
_ORACLE_TAG = re.compile(r"[PQ]|P[1-9][0-9]{0,17}")


def _oracle_coords(path, lineno, row, d):
    try:
        x = [float(v) for v in row[:d]]
    except ValueError:
        raise CsvFormatError(f"{path}: line {lineno}: non-numeric coordinate")
    if not all(abs(v) <= 1e150 for v in x):  # NaN fails too
        raise CsvFormatError(f"{path}: line {lineno}: {BAD_COORD}")
    return x


def oracle_read_labeled_csv(path):
    path = str(path)
    coords, labels, tags = [], [], []
    with open(path, newline="") as fh:
        header, rows = _data_rows(fh, path)
        d, has_origin = _parse_header(header, path)
        ncols = d + 1 + (1 if has_origin else 0)
        for lineno, row in rows:
            if len(row) != ncols:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {ncols} fields, got {len(row)}")
            coords += _oracle_coords(path, lineno, row, d)
            ystr = row[d].strip()
            if ystr not in ("0", "1"):
                raise CsvFormatError(f"{path}: line {lineno}: label must be 0 or 1, got {ystr!r}")
            labels.append(ystr == "1")
            if has_origin:
                tag = row[d + 1].strip()
                if not _ORACLE_TAG.fullmatch(tag):
                    raise CsvFormatError(f"{path}: line {lineno}: unknown origin tag {tag!r}")
                tags.append(tag)
    pts = np.array(coords, dtype=np.float64).reshape(-1, d)
    labs = np.array(labels, dtype=np.int64)
    if not has_origin:
        return SampleSet(pts, labs)
    tag_of = np.array(tags, dtype=str)

    def rows_tagged(tag):
        mask = tag_of == tag
        return SampleSet(pts[mask], labs[mask])

    numbered = set(tags) - {"P", "Q"}
    if not numbered:
        return TransferDataset((rows_tagged("P"),), rows_tagged("Q"))
    if "P" in tags:
        raise CsvFormatError(f"{path}: cannot mix origin 'P' with numbered sources")
    ids = sorted(int(t[1:]) for t in numbered)
    if ids != list(range(1, len(ids) + 1)):
        raise CsvFormatError(
            f"{path}: source tags must be contiguous P1..Pm, got {sorted(numbered)}")
    return TransferDataset(tuple(rows_tagged(f"P{i}") for i in ids), rows_tagged("Q"))


def oracle_read_points_csv(path):
    path = str(path)
    coords = []
    with open(path, newline="") as fh:
        header, rows = _data_rows(fh, path)
        cols = [c.strip() for c in header]
        d = 0
        while d < len(cols) and cols[d] == f"x{d}":
            d += 1
        if d == 0:
            raise CsvFormatError(f"{path}: line 1: expected feature columns x0..x{{d-1}}")
        for lineno, row in rows:
            if len(row) < d:
                raise CsvFormatError(f"{path}: line {lineno}: expected >= {d} fields")
            coords += _oracle_coords(path, lineno, row, d)
    if not coords:
        raise CsvFormatError(f"{path}: no data rows")
    return np.array(coords, dtype=np.float64).reshape(-1, d)


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def read_outcome(read, path):
    """What a reader makes of a file: its CsvFormatError message, or the bits of
    every array it returns, set by set."""
    try:
        data = read(path)
    except CsvFormatError as e:
        return str(e)
    if isinstance(data, np.ndarray):
        return [_bits(data)]
    sets = [data] if isinstance(data, SampleSet) else [*data.sources, data.q_data]
    return [type(data).__name__] + [(_bits(s.points), _bits(s.labels)) for s in sets]


_COORD = st.one_of(
    st.integers(0, 128).map(lambda k: repr(k / 128)),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-3, 3).map(lambda k: f" {k} "),
)
_FAULTS = {
    "count": lambda row, d, pick: row[:-1] if pick % 2 else row + ["0"],
    "abc": lambda row, d, pick: _set(row, pick % d, "abc"),
    "inf": lambda row, d, pick: _set(row, pick % d, ("inf", " -inf")[pick % 2]),
    "nan": lambda row, d, pick: _set(row, pick % d, "nan"),
    "big": lambda row, d, pick: _set(row, pick % d, ("2e150", " -1e150 ", "1e151", "-1e150")[pick]),
    "label": lambda row, d, pick: _set(row, d, ("2", "1.0")[pick % 2]),
    "tag": lambda row, d, pick: _set(row, d + 1, ("P0", "P01", "P", "P4")[pick % 4])
    if len(row) > d + 1 else row,
    # float() reads these, np.loadtxt refuses them
    "underscore": lambda row, d, pick: _set(row, pick % d, ("1_0", "0_5", "1e1_0", "\u0661")[pick]),
    # a quoted field or a NUL byte sends the whole file to the csv-module reader
    "quote": lambda row, d, pick: _wrap(row, pick % (d + 2), '"{}"'),
    "nul": lambda row, d, pick: _wrap(row, pick % (d + 2), "{}\0"),
}


def _set(row, j, value):
    return row[:j] + [value] + row[j + 1:]


def _wrap(row, j, fmt):
    """row with its field j, if it has one, replaced by fmt.format(field)."""
    return _set(row, j, fmt.format(row[j])) if j < len(row) else row


@st.composite
def faulty_csv_text(draw):
    """A labeled CSV with \\n, \\r\\n and \\r line ends, blank and whitespace-only lines,
    padded fields and injected faults."""
    d = draw(st.integers(1, 3))
    origin = draw(st.sampled_from([None, "PQ", "numbered"]))
    tags = {None: [], "PQ": ["P", "Q", " Q ", "P ", "\tQ"],
            "numbered": ["P1", "P2", "Q", " P2 ", "P1\t"]}[origin]
    # padded labels send a file to the csv-module reader, so half the files have none
    labels = draw(st.sampled_from([["0", "1"], ["0", "1", " 1 ", "\t0"]]))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(_COORD) for _ in range(d)] + [draw(st.sampled_from(labels))]
        rows.append(row + ([draw(st.sampled_from(tags))] if origin else []))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3, 5])) if rows else 0):
        fault = _FAULTS[draw(st.sampled_from(sorted(_FAULTS)))]
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = fault(rows[i], d, draw(st.integers(0, 3)))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "", "", "", " ", "\t", " \t "])))
    header = [f"x{j}" for j in range(d)] + ["y"] + (["origin"] if origin else [])
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
                   for line in [",".join(header)] + lines)


@pytest.mark.parametrize("c_pass", ["c-pass-where-it-reads", "c-pass-declines"])
@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=faulty_csv_text())
def test_column_readers_match_the_per_row_oracle(tmp_path_factory, c_pass, text):
    # the same arrays bit for bit, or the same error message: the earliest
    # faulty row, and within it field count, coordinates, label, tag; with the C pass
    # made to decline, the exact reader reads every file, plain ones too
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text.encode())
    with (mock.patch.object(io_cli, "_c_rows", return_value=None)
          if c_pass == "c-pass-declines" else contextlib.nullcontext()):
        assert read_outcome(read_labeled_csv, path) == read_outcome(oracle_read_labeled_csv, path)
        assert read_outcome(read_points_csv, path) == read_outcome(oracle_read_points_csv, path)


# Characters that str.isspace counts as whitespace and that end no csv row; float()
# strips each of them around a number except \x1c-\x1f.
_PAD = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1f\x85\xa0\u1680\u2000\u2028\u3000"),
               max_size=2)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}e{}".format, st.floats(-10, 10).map(repr), st.integers(-340, 340)),
    st.builds("{}.{}".format, st.integers(-10**6, 10**6), st.integers(0, 10**30)),
    st.sampled_from(["1e-320", "2.2250738585072011e-308", "9007199254740993", "-0.0", "+.5",
                     "5.", "1E5", "1e400", "-1e400", "inf", "-Infinity", "nan"]),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(number=_NUMBER, pad=st.tuples(_PAD, _PAD), insert=st.tuples(
    st.integers(0, 30),
    st.sampled_from(["", "", "", "", "_", "\u0661", "\uff15", "\u0e53", "\u00b2"])))
def test_the_c_pass_reads_a_coordinate_as_float_does_or_declines(tmp_path_factory, number,
                                                                   pad, insert):
    # each number is padded, and may get an underscore or a non-ASCII digit spliced in:
    # np.loadtxt gives float()'s double bit for bit, or the C pass leaves the file to the
    # csv-module reader
    i, extra = insert
    field = pad[0] + number[:i] + extra + number[i:] + pad[1]
    try:
        expected = np.float64(float(field)).tobytes()
    except ValueError:
        expected = None
    path = tmp_path_factory.mktemp("float") / "one.csv"
    for text, labeled in ((f"x0\n{field}\n", False), (f"x0,y\r\n{field},1\r\n", True)):
        path.write_bytes(text.encode())
        rows = io_cli._c_rows(str(path), labeled)
        if rows is not None:
            assert (rows[0] if labeled else rows).tobytes() == expected, field


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


def test_result_csvs_write_numpy_scalars_as_plain_floats(tmp_path):
    records = run_accuracy_experiment(
        "fig4a", methods=("qonly",), p_max_values=np.array([0.55]), n_p_values=(10,),
        n_q=20, reps=2, seed=5, gamma=np.float64(0.3))
    write_records_csv(tmp_path / "records.csv", records)
    write_aggregate_csv(tmp_path / "agg.csv", summarize_accuracy(records))
    for name in ("records.csv", "agg.csv"):
        text = (tmp_path / name).read_text()
        assert "np." not in text, name
        with open(tmp_path / name) as fh:
            row = next(csv.DictReader(fh))
        assert (row["p_max"], row["gamma"]) == ("0.55", "0.3"), name


def test_result_csv_columns_are_the_record_fields(tmp_path):
    records = run_accuracy_experiment(
        "fig4a", methods=("qonly",), p_max_values=(0.55,), n_p_values=(10,),
        n_q=20, reps=2, seed=5)
    write_records_csv(tmp_path / "records.csv", records)
    write_aggregate_csv(tmp_path / "agg.csv", summarize_accuracy(records))
    record_cols = [f.name for f in dataclasses.fields(ExperimentRecord) if f.name != "wall_time"]
    aggregate_cols = [f.name for f in dataclasses.fields(AggregateRow)]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for name, cols in (("records.csv", record_cols), ("agg.csv", aggregate_cols)):
        with open(tmp_path / name, newline="") as fh:
            assert next(csv.reader(fh)) == cols, name
        assert f"`{','.join(cols)}`" in readme, name


def test_result_csvs_write_int_floats_as_floats(tmp_path):
    # every float and float | None field prints as a float, every int field as an int
    rec = ExperimentRecord("fig4a", "qonly", seed=0, replication=0, p_max=1, gamma=1, d=2,
                           n_p=10, n_q=20, accuracy=1, excess_risk=None, wall_time=0.5)
    write_records_csv(tmp_path / "records.csv", [rec, rec])
    write_aggregate_csv(tmp_path / "agg.csv", summarize_accuracy([rec, rec]))
    assert (tmp_path / "records.csv").read_bytes().splitlines()[1] == \
        b"fig4a,qonly,0,0,1.0,1.0,2,10,20,1.0,"
    assert (tmp_path / "agg.csv").read_bytes().splitlines()[1] == \
        b"fig4a,qonly,0,1.0,1.0,2,10,20,2,1.0,0.0"
    # the library passes int grid values through to the records
    records = run_accuracy_experiment(
        "fig4a", methods=("qonly",), p_max_values=(1,), n_p_values=(10,),
        n_q=20, reps=2, seed=5, gamma=1)
    write_records_csv(tmp_path / "records.csv", records)
    with open(tmp_path / "records.csv") as fh:
        row = next(csv.DictReader(fh))
    assert (row["p_max"], row["gamma"], row["d"]) == ("1.0", "1.0", "2")


def _crlf(*rows):
    return "".join(line + "\r\n" for line in rows).encode()


def test_data_csvs_keep_their_format(tmp_path):
    # reference bytes in the .17g format, header first, csv's \r\n line ends
    p = make_set([[math.pi, -0.1], [1e-17, 1.0 / 3.0]], [1, 0])
    q = make_set([[6.02214076e23, 0.5]], [1])
    p_rows = ["3.1415926535897931,-0.10000000000000001,1",
              "1.0000000000000001e-17,0.33333333333333331,0"]
    q_row = "6.0221407599999999e+23,0.5,1"
    cases = {
        "plain": (q, _crlf("x0,x1,y", q_row)),
        "one": (TransferDataset((p,), q),
                _crlf("x0,x1,y,origin", *(r + ",P" for r in p_rows), q_row + ",Q")),
        "multi": (TransferDataset((p, q), q),
                  _crlf("x0,x1,y,origin", *(r + ",P1" for r in p_rows), q_row + ",P2",
                        q_row + ",Q")),
    }
    for name, (data, expected) in cases.items():
        write_labeled_csv(tmp_path / f"{name}.csv", data)
        assert (tmp_path / f"{name}.csv").read_bytes() == expected, name
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.1, 0.1], [0.9, 0.9]])
    out = tmp_path / "pred.csv"
    assert run_cli(["predict", "--method", "knn", "--k", "1", "--train", str(train),
                    "--test", str(test), "--out", str(out)]) == 0
    assert out.read_bytes() == _crlf("x0,x1,y_pred", "0.10000000000000001,0.10000000000000001,0",
                                     "0.90000000000000002,0.90000000000000002,1")


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


def test_cli_writes_a_manifest_for_each_successful_command_with_out(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    predict = ["predict", "--train", str(train), "--test", str(test)]
    rate = ["rate-check", "--sizes", "20,40,80,200", "--reps", "2", "--nmc", "1000",
            "--pmax", "0.7", "--seed", "2"]
    evaluate = ["eval", "--method", "qonly", "--train", str(train), "--pmax", "0.55",
                "--n-test", "20", "--nmc", "500"]
    # no --out, exit 2 and exit 1: no manifest
    assert run_cli(rate) == 0 and run_cli(evaluate) == 0
    assert run_cli(predict + ["--method", "weighted", "--out", "p2.csv"]) == 2
    assert run_cli(["simulate", "fig5a", "--reps", "0", "--out", "s2.csv"]) == 2
    assert run_cli(["predict", "--method", "knn", "--train", "no.csv", "--test", str(test),
                    "--out", "p1.csv"]) == 1
    assert not list(tmp_path.glob("*.manifest.jsonl"))
    # every command with --out: the argv and every parsed argument, after the command ran
    runs = [
        (["simulate", "fig5a", "--np", "30", "--nq", "25", "--pmax", "0.55", "--reps", "2",
          "--out", "sim.csv"], dict(experiment="fig5a", n_p="30", n_q=25, reps=2, seed=0)),
        (["simulate", "fig4a", "--np", "30", "--nq", "25", "--pmax", "0.55", "--seed", "4",
          "--out", "sim4.csv"], dict(reps=None, gamma=0.3, seed=4)),
        (rate + ["--out", "rate.csv"], dict(sizes="20,40,80,200", sweep="q", nmc=1000, seed=2)),
        (predict + ["--method", "knn", "--pool", "--out", "pred.csv"],
         dict(method="knn", pool=True, k=None, gamma=None)),
        (evaluate + ["--out", "eval.csv"], dict(method="qonly", pmax=0.55, seed=0)),
    ]
    for argv, parsed in runs:
        out = argv[argv.index("--out") + 1]
        assert run_cli(argv) == 0, argv
        entry = json.loads((tmp_path / f"{out}.manifest.jsonl").read_text())
        config = entry["config"]
        assert (config["command"], config["argv"], config["out"]) == (argv[0], argv, out)
        assert {key: config[key] for key in parsed} == parsed, argv
        assert entry["seed"] == parsed.get("seed", 0)
        assert manifest_argv(tmp_path / f"{out}.manifest.jsonl") == argv
        # the config is the parsed arguments as given: predict and eval take d from
        # the training file and record none
        assert ("d" in config) == (argv[0] in ("simulate", "rate-check")), argv
    # a manifest that cannot be written is a runtime error, not a traceback
    (tmp_path / "blocked.csv.manifest.jsonl").mkdir()
    capsys.readouterr()
    assert run_cli(predict + ["--method", "knn", "--out", "blocked.csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
    for method in ("weighted", "combined"):
        for gamma in ("0.3", "0.3,0.5"):
            code = run_cli(["predict", "--method", method, "--train", str(train),
                            "--test", str(test), "--out", str(out), "--gamma", gamma])
            assert code == 0, (method, gamma)
    code = run_cli(["predict", "--method", "adaptive", "--train", str(train),
                    "--test", str(test), "--out", str(out)])
    assert code == 0


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
    plain = tmp_path / "plain.csv"
    write_labeled_csv(train, ds)
    write_labeled_csv(multi, mds)
    write_labeled_csv(plain, ds.q_data)
    write_points(test, queries.tolist())
    hp = HyperParams(beta=1.0, gamma=0.3, d=2)
    q, pooled, mpooled = ds.q_data, pooled_sample_set(ds), pooled_sample_set(mds)
    plan = minimax_plan(ds.source_sizes, ds.n_q, hp)
    mplan = minimax_plan(mds.source_sizes, mds.n_q, HyperParams(1.0, (0.3, 0.3), 2))
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
         lambda x: knn_predict(pooled, combined_budget_k(ds.source_sizes, ds.n_q, hp), x)),
        # on an untagged file every row is a target row, so combined is knn
        (plain, ["--method", "combined", "--gamma", "0.3"],
         lambda x: knn_predict(q, default_knn_k(len(q), hp), x)),
        (multi, ["--method", "weighted", "--gamma", "0.3"],
         lambda x: weighted_knn_predict(mds, mplan, x)),
        (multi, ["--method", "combined", "--gamma", "0.3"],
         lambda x: knn_predict(mpooled, combined_budget_k(mds.source_sizes, mds.n_q, hp), x)),
        (multi, ["--method", "adaptive"], lambda x: adaptive_predict(mds, x)[0]),
    ]
    for path, extra, library in cases:
        assert cli_labels(tmp_path, path, test, extra) == [library(x) for x in queries], extra
    # each one-set spelling is its registry fit, knn with --k or default_knn_k of its set
    for path, data in ((train, ds), (multi, mds)):
        n_q, n_pooled = data.n_q, data.n_q + data.n_p
        spellings = [
            (["knn"], "qonly", default_knn_k(n_q, hp)),
            (["knn", "--k", "7"], "qonly", 7),
            (["knn", "--pool"], "combined", default_knn_k(n_pooled, hp)),
            (["knn", "--pool", "--k", "9"], "combined", 9),
            (["lepski"], "lepski-q", None),
            (["lepski", "--pool"], "lepski-combined", None),
            (["lepski", "--pool", "--lepski-width", "lemma5"], "lepski-combined", None),
        ]
        for extra, name, k in spellings:
            width = "lemma5" if "lemma5" in extra else "algorithm3"
            fitted = fit_method(name, data, hp, width, k=k)
            assert cli_labels(tmp_path, path, test, ["--method", *extra]) == \
                fitted.predict_batch(queries).tolist(), (path.name, extra)


def test_cli_predict_combined_takes_the_m_source_budget(tmp_path):
    gen = np.random.default_rng(29)
    sets = [make_set(gen.random((n, 2)), gen.integers(0, 2, n)) for n in (200, 300, 100)]
    mds = TransferDataset(sets[:2], sets[2])
    train, test = tmp_path / "multi.csv", tmp_path / "q.csv"
    write_labeled_csv(train, mds)
    queries = gen.random((40, 2))
    write_points(test, queries.tolist())
    pooled = pooled_sample_set(mds)
    for gamma, hp_gamma in (("0.3", 0.3), ("0.3,0.5", (0.3, 0.5))):
        hp = HyperParams(beta=1.0, gamma=hp_gamma, d=2)
        k = combined_budget_k(mds.source_sizes, mds.n_q, hp)
        assert k < default_knn_k(len(pooled), hp)
        labels = cli_labels(tmp_path, train, test, ["--method", "combined", "--gamma", gamma])
        assert labels == [knn_predict(pooled, k, x) for x in queries], gamma
        assert labels != cli_labels(tmp_path, train, test, ["--method", "knn", "--pool"])


def test_cli_predict_switches_apply_to_their_methods(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    base = ["predict", "--train", str(train), "--test", str(test),
            "--out", str(tmp_path / "pred.csv")]
    for extra, message in (
            (["--method", "combined"], "combined needs --gamma"),
            (["--method", "combined", "--gamma", "0.3", "--k", "3"], "--k applies only to knn"),
            (["--method", "lepski", "--k", "3"], "--k applies only to knn"),
            (["--method", "weighted", "--gamma", "0.3", "--pool"], "--pool applies only"),
            (["--method", "adaptive", "--pool"], "--pool applies only"),
            (["--method", "combined", "--gamma", "0.3", "--pool"], "--pool applies only"),
            (["--method", "lepski", "--gamma", "-5"], "gamma must be > 0"),
            (["--method", "adaptive", "--gamma", "-5"], "gamma must be > 0"),
            (["--method", "knn", "--k", "3", "--gamma", "-5"], "gamma must be > 0")):
        assert run_cli(base + extra) == 2, extra
        assert message in capsys.readouterr().err, extra
    # a valid --gamma is accepted where it goes unused
    for method in ("knn", "lepski", "adaptive"):
        assert run_cli(base + ["--method", method, "--gamma", "0.3"]) == 0, method


def test_cli_predict_usage_errors(tmp_path):
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    out = tmp_path / "pred.csv"
    base = ["predict", "--train", str(train), "--test", str(test), "--out", str(out)]
    # weighted needs a gamma for the plan
    assert run_cli(base + ["--method", "weighted"]) == 2
    # k out of range for the 4 target rows
    assert run_cli(base + ["--method", "knn", "--k", "9"]) == 2
    # gamma must parse as numbers
    assert run_cli(base + ["--method", "weighted", "--gamma", "abc"]) == 2


def test_cli_predict_bad_gamma_is_a_usage_error(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    multi = tmp_path / "multi.csv"
    s = make_set([[0.1, 0.1], [0.9, 0.9]], [0, 1])
    write_labeled_csv(multi, TransferDataset((s, s), s))
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    # an empty list is HyperParams' own refusal; a wrong count is fit_method's
    def expected(count, m):
        return "gamma vector must be nonempty" if count == 0 else \
            f"gamma vector has {count} entries, need {m}"

    cases = [(train, method, gamma, expected(count, 1))
             for method in ("knn", "combined", "weighted", "lepski", "knn --k 2", "adaptive")
             for gamma, count in (("", 0), (",", 0), ("0.3,0.5", 2))]
    cases += [(multi, method, gamma, expected(count, 2))
              for method in ("weighted", "combined")
              for gamma, count in (("", 0), ("0.3,0.5,0.7", 3))]
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


def test_cli_predict_oversize_field_is_a_format_error(tmp_path, capsys):
    train = transfer_csv(tmp_path)
    huge = write_text(tmp_path / "huge.csv", train.read_text() + f"0.{HUGE},0.5,1,Q\n")
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    for train_path, test_path in ((huge, test), (train, huge)):
        assert run_cli(["predict", "--method", "knn", "--train", str(train_path),
                        "--test", str(test_path), "--out", str(tmp_path / "pred.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {huge}: line 10: field larger than field limit (131072)\n"


def test_cli_predict_plain_csv_needs_tags_for_adaptive(tmp_path):
    plain = tmp_path / "plain.csv"
    write_labeled_csv(plain, make_set([[0.1, 0.1], [0.9, 0.9]], [0, 1]))
    test = tmp_path / "test.csv"
    write_points(test, [[0.5, 0.5]])
    out = tmp_path / "pred.csv"
    assert run_cli(["predict", "--method", "adaptive", "--train", str(plain),
                    "--test", str(test), "--out", str(out)]) == 2
    assert run_cli(["predict", "--method", "weighted", "--train", str(plain),
                    "--test", str(test), "--out", str(out), "--gamma", "0.3"]) == 2
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


# SHA-256 of the aggregate CSVs at --seed 7, written when every method still
# ordered its own sample (merged, pooled and target orders computed apart).
PRESET_CSV_SHA256 = {
    "fig4a": "c6babce0013562f019a2eee43c88d20dba24e37b3f712574999405a0ff432aab",
    "fig5a": "fc7918d033027f06ae8c625fac9b4c27a432f4a5ba01ee3794f94c0c7c653bf8",
    "fig4b": "3d46a3001a7081eef3f42da96a5cc2c118dae1acc3a8c3f9f521129f316c54d9",
    "fig5b": "6396135827f4f2b18077f6a94f037c1addbd7501c28438783270fb35cab967fb",
}


@pytest.mark.parametrize("preset", sorted(PRESET_CSV_SHA256))
def test_cli_simulate_presets_are_frozen(tmp_path, preset):
    out = tmp_path / "agg.csv"
    flags = ["--reps", "3", "--pmax", "0.53,0.55"] if preset.endswith("a") else ["--reps", "2"]
    assert run_cli(["simulate", preset, "--seed", "7", "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PRESET_CSV_SHA256[preset]


# SHA-256 of rate-check --seed 7 --reps 4 --nmc 25000 --sweep <q|p> --out rate.csv;
# stdout holds the CI. The q pair was written when the bootstrap drew and fitted one
# resample at a time. Its stdout was re-pinned when the target slope took the cone's
# margin exponent 1: its target line reads -0.5000 and alpha=1 (was -0.2500 and
# alpha=0); the CSV and every other stdout line are unchanged. The p pair was written
# while each engine still ran its own replication loop.
RATE_CHECK_SHA256 = {
    "q": {"stdout": "cab663235450a9467a200bd14022e63327171871d672764be91ac957f934d185",
          "csv": "d89614a03cf314ef8a54b65af45ac028b22931957bc3c646c725166b09296996"},
    "p": {"stdout": "7ffbd7889a9963454723b6bc23815e52eeb1e613242f08a52f64c4b6abbddd4e",
          "csv": "9d60ca84aedcc2e8cacb7fc75efd890e55e91630d4ee49d60f489ec55cf83300"},
}


@pytest.mark.parametrize("sweep", sorted(RATE_CHECK_SHA256))
def test_cli_rate_check_is_frozen(tmp_path, monkeypatch, capsys, sweep):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["rate-check", "--seed", "7", "--reps", "4", "--nmc", "25000",
                    "--sweep", sweep, "--out", "rate.csv"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == RATE_CHECK_SHA256[sweep]["stdout"]
    csv_bytes = (tmp_path / "rate.csv").read_bytes()
    assert hashlib.sha256(csv_bytes).hexdigest() == RATE_CHECK_SHA256[sweep]["csv"]


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
    # about 0.517 of the 100000 default draws are expected in the d = 6 signal ball
    assert run_cli(["rate-check", "--d", "6"]) == 2


def test_module_form_exits_like_the_console_script():
    src = str(Path(driftknn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "driftknn.io_cli", "rate-check", "--d", "6"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "too few draws" in proc.stderr


# Runs the commands given as a JSON list of argv lists and prints, as JSON, whether
# scipy.spatial is loaded after the import and after each command.
SCIPY_PROBE = """
import json, sys
from driftknn.io_cli import run_cli
seen = ["scipy.spatial" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert run_cli(argv) == 0, argv
    seen.append("scipy.spatial" in sys.modules)
print(json.dumps(seen))
"""


def test_only_the_batch_knn_path_loads_scipy(tmp_path):
    # the scans and simulate order one query at a time and never build a
    # k-d tree; a fresh interpreter shows that they do not import scipy
    train = transfer_csv(tmp_path)
    test = tmp_path / "test.csv"
    write_points(test, [[0.11, 0.11], [0.89, 0.89], [0.5, 0.5]])
    files = ["--train", str(train), "--test", str(test)]
    weighted = ["predict", "--method", "weighted", "--gamma", "0.3", *files]
    commands = [
        ["simulate", "fig5a", "--reps", "2", "--np", "30", "--nq", "25",
         "--out", str(tmp_path / "sim.csv")],
        ["predict", "--method", "adaptive", *files, "--out", str(tmp_path / "a.csv")],
        ["predict", "--method", "lepski", "--pool", *files, "--out", str(tmp_path / "l.csv")],
        ["eval", "--method", "adaptive", "--pmax", "0.55", "--n-test", "20", "--nmc", "2000",
         "--train", str(train)],
        weighted + ["--out", str(tmp_path / "fresh.csv")],
    ]
    src = str(Path(driftknn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # the import and the first four commands leave it unloaded; weighted loads it
    assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 5 + [True]
    assert run_cli(weighted + ["--out", str(tmp_path / "here.csv")]) == 0
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


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
        header = next(csv.reader(fh))
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert header == ["method", "p_max", "gamma_sim", "gamma", "beta", "d", "n_p", "n_q",
                      "n_test", "accuracy", "excess_risk", "excess_risk_se", "n_mc", "seed"]
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
    model = DriftModel(0.55, 0.3, 2)
    mds = sample_multisource_dataset(model, (60, 80), 100, RandomSource(5))
    train, out = tmp_path / "multi.csv", tmp_path / "eval.csv"
    write_labeled_csv(train, mds)
    base = ["eval", "--train", str(train), "--pmax", "0.55", "--n-test", "50",
            "--nmc", "2000", "--seed", "1", "--out", str(out)]
    rs = RandomSource(1).substream(_EXPERIMENT_STREAM_IDS["eval"])
    test = model.sample_test_points(50, rs.substream(0))
    # one value stays a scalar gamma, written as before; two give the vector
    for gamma, extra, cell, hp_gamma in (("0.30", [], "0.3", 0.3),
                                         ("0.3,0.5", ["--gamma-sim", "0.3"], "0.3,0.5",
                                          (0.3, 0.5))):
        assert run_cli(base + ["--method", "weighted", "--gamma", gamma] + extra) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        fitted = fit_method("weighted", read_labeled_csv(train),
                            HyperParams(beta=1.0, gamma=hp_gamma, d=2))
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
    # the pooled baseline takes its budget from the same m-source plan
    assert run_cli(base + ["--method", "combined", "--gamma", "0.3,0.5",
                           "--gamma-sim", "0.3"]) == 0
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    fitted = fit_method("combined", mds, HyperParams(beta=1.0, gamma=(0.3, 0.5), d=2))
    assert float(row["accuracy"]) == classification_accuracy(fitted.predict_batch, model, test)


def test_cli_argparse_failures():
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2


def test_cli_reuses_one_parser_with_the_outputs_of_fresh_runs(tmp_path, monkeypatch, capsys):
    # one process runs several commands, with refused argvs in between, on the
    # parser built once; each must give what it gives on a parser built for it
    monkeypatch.chdir(tmp_path)
    train = transfer_csv(tmp_path)
    write_points(tmp_path / "test.csv", [[0.11, 0.11], [0.89, 0.89], [0.5, 0.5]])
    pred = ["predict", "--train", str(train), "--test", "test.csv"]
    argvs = [
        [*pred, "--method", "knn", "--pool", "--k", "3", "--out", "a.csv"],
        ["simulate", "fig6", "--out", "x.csv"],
        ["simulate", "fig5a", "--np", "30", "--nq", "25", "--pmax", "0.55", "--reps", "2",
         "--out", "b.csv"],
        [*pred, "--method", "lepski", "--k", "3", "--out", "x.csv"],
        ["rate-check", "--sizes", "20,40,80,200", "--reps", "2", "--nmc", "1000",
         "--pmax", "0.7", "--out", "c.csv"],
        [*pred, "--method", "weighted", "--out", "x.csv"],
        [*pred, "--method", "adaptive", "--out", "d.csv"],
        ["eval", "--method", "qonly", "--train", str(train), "--pmax", "0.55",
         "--n-test", "20", "--nmc", "500", "--out", "e.csv"],
        [*pred, "--method", "knn", "--out", "f.csv"],
    ]

    def outcome(argv):
        code = run_cli(argv)
        out = tmp_path / argv[argv.index("--out") + 1]
        files = (out.read_bytes(), json.loads(Path(f"{out}.manifest.jsonl").read_text())["config"]
                 ) if code == 0 else None
        return code, capsys.readouterr(), files

    fresh = []
    for argv in argvs:
        io_cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, *_ in fresh] == [0, 2, 0, 2, 0, 2, 0, 0, 0]
    (tmp_path / "x.csv").unlink(missing_ok=True)
    parser = io_cli._build_parser()
    assert [outcome(argv) for argv in argvs] == fresh
    assert io_cli._build_parser() is parser
    assert not (tmp_path / "x.csv").exists()


def test_cli_exit_codes_follow_one_rule(tmp_path, monkeypatch, capsys):
    # A setting the library or the parser refuses exits 2 with that refusal's
    # message; a faulty data file, an OS error or a runtime failure exits 1.
    # No case writes its output file or a manifest.
    monkeypatch.chdir(tmp_path)
    train = transfer_csv(tmp_path)
    write_points(tmp_path / "test.csv", [[0.5, 0.5]])
    write_text(tmp_path / "ponly.csv", "x0,x1,y,origin\n0.25,0.5,1,P\n")
    write_text(tmp_path / "header.csv", "x0,x1,y,origin\n")
    write_text(tmp_path / "tag.csv", "x0,x1,y,origin\n0.25,0.5,1,P\n0.5,0.5,0,R\n")
    (tmp_path / "latin.csv").write_bytes(train.read_bytes() + b"0.5,0.5,1,Q\xe9\n")
    d6 = sample_multisource_dataset(DriftModel(0.6, 0.3, 6), (20,), 30, RandomSource(0))
    write_labeled_csv(tmp_path / "d6.csv", d6)
    sim = ["--out", "out.csv", "--reps", "1", "--np", "30", "--nq", "25", "--pmax", "0.55"]
    rate = ["rate-check", "--out", "out.csv", "--sizes", "20,50,100,200", "--reps", "2",
            "--nmc", "2000", "--pmax", "0.7"]
    pred = ["predict", "--out", "out.csv", "--train", str(train), "--test", "test.csv"]
    ev = ["eval", "--out", "out.csv", "--method", "qonly", "--train", str(train),
          "--n-test", "20", "--nmc", "500"]
    cases = [
        (["simulate", "fig4a", *sim, "--reps", "0"], 2, "reps must be >= 1, got 0"),
        (["simulate", "fig4a", *sim, "--np", "30,-1"], 2,
         "source 1 size must be >= 0, got -1"),
        (["simulate", "fig4a", *sim, "--nq", "-1"], 2,
         "n_q must be >= 0, got -1"),
        (["simulate", "fig4a", *sim, "--np", "x"], 2,
         "expected a comma-separated list of integers, got 'x'"),
        (["simulate", "fig4a", *sim, "--pmax", "0.55,0.4"], 2,
         "p_max must be in (0.5, 1], got 0.4"),
        (["simulate", "fig4a", *sim, "--gamma", "0"], 2, "gamma must be > 0, got 0.0"),
        (["simulate", "fig4a", *sim, "--beta", "2"], 2, "beta must be in (0, 1], got 2.0"),
        # every command checks --beta, also where the chosen methods never read it
        (["simulate", "fig5a", *sim, "--beta", "2"], 2, "beta must be in (0, 1], got 2.0"),
        ([*pred, "--method", "adaptive", "--beta", "2"], 2, "beta must be in (0, 1], got 2.0"),
        ([*pred, "--method", "adaptive", "--gamma", "-5"], 2, "gamma must be > 0, got -5.0"),
        ([*ev, "--pmax", "0.55", "--method", "adaptive", "--beta", "2"], 2,
         "beta must be in (0, 1], got 2.0"),
        (["simulate", "fig5a", *sim, "--nq", "0"], 2,
         "method 'lepski-q' has no samples to fit on"),
        (["simulate", "fig4a", *sim, "--np", "0", "--nq", "0"], 2,
         "method 'weighted' has no samples to fit on"),
        (["simulate", "fig6", *sim], 2, "invalid choice: 'fig6'"),
        ([*rate, "--sizes", "10,20,30"], 2, "degenerate grid: need >= 4 sizes, got 3"),
        ([*rate, "--reps", "1"], 2, "reps must be >= 2, got 1"),
        # a replication's stream index must be below 2**20 - 1: refused before any replication
        (["simulate", "fig5a", *sim, "--reps", "1048576", "--np", "1", "--nq", "1"], 2,
         "substream index out of range: 1048575"),
        ([*rate, "--reps", "1048576"], 2, "substream index out of range: 1048575"),
        ([*rate, "--pmax", "0.3"], 2, "p_max must be in (0.5, 1], got 0.3"),
        ([*rate, "--nmc", "1"], 2, "n_mc must be >= 2, got 1"),
        # the margin exponent is the cone's, and the accuracy target is the oracle label
        ([*rate, "--alpha", "1"], 2, "unrecognized arguments: --alpha 1"),
        (["simulate", "fig4a", *sim, "--accuracy-target", "noisy"], 2,
         "unrecognized arguments: --accuracy-target noisy"),
        # about 0.517 of the 100000 default draws are expected in the d = 6 signal ball
        (["rate-check", "--d", "6"], 2, "too few draws (d = 6, p_max = 0.6"),
        # pi^(d/2) and gamma(d/2 + 1) of the ball volume overflow a float here
        (["rate-check", "--d", "2000"], 2, "too few draws (d = 2000,"),
        ([*pred, "--method", "combined"], 2, "combined needs --gamma"),
        ([*pred, "--method", "lepski", "--k", "3"], 2, "--k applies only to knn"),
        ([*pred, "--method", "knn", "--k", "9"], 2, "k must be in [1, 4], got 9"),
        # the dimension comes from the file, and the margin exponent from the model
        ([*pred, "--method", "knn", "--d", "3"], 2, "unrecognized arguments: --d 3"),
        ([*pred, "--method", "knn", "--alpha", "1"], 2, "unrecognized arguments: --alpha 1"),
        (["simulate", "fig4a", *sim, "--alpha", "1"], 2, "unrecognized arguments: --alpha 1"),
        ([*ev, "--pmax", "0.55", "--alpha", "1"], 2, "unrecognized arguments: --alpha 1"),
        ([*pred, "--method", "weighted", "--gamma", "abc"], 2,
         "expected a comma-separated list of numbers, got 'abc'"),
        ([*pred, "--method", "lepski", "--train", "ponly.csv"], 2,
         "method 'lepski-q' has no samples to fit on"),
        ([*pred, "--method", "knn", "--k", "1", "--train", "ponly.csv"], 2,
         "method 'qonly' has no samples to fit on"),
        # the fit refuses an empty dataset before the query file is read
        ([*pred, "--method", "adaptive", "--train", "header.csv", "--test", "no.csv"], 2,
         "method 'adaptive' has no samples to fit on"),
        (ev, 2, "the following arguments are required: --pmax"),
        ([*ev, "--pmax", "0.4"], 2, "p_max must be in (0.5, 1], got 0.4"),
        ([*ev, "--pmax", "0.55", "--radius", "0"], 2, "radius must be finite and > 0, got 0.0"),
        ([*ev, "--pmax", "0.55", "--radius", "inf"], 2, "radius must be finite and > 0, got inf"),
        # about 0.005 of the 1000 draws are expected in the d = 6 signal ball B(c, 0.1)
        ([*ev, "--pmax", "0.6", "--nmc", "1000", "--train", "d6.csv"], 2,
         "too few draws (d = 6, p_max = 0.6, n_mc = 1000: about 0.00517 Monte Carlo draws"),
        ([*ev, "--pmax", "0.55", "--gamma-sim", "-1"], 2, "gamma_sim must be > 0, got -1.0"),
        ([*ev, "--pmax", "0.55", "--n-test", "0"], 2, "n must be >= 1, got 0"),
        ([*ev, "--pmax", "0.55", "--n-test", "-1"], 2, "n must be >= 1, got -1"),
        # the test points are drawn before the fit, so --n-test is checked first
        ([*ev, "--pmax", "0.55", "--n-test", "0", "--train", "ponly.csv"], 2,
         "n must be >= 1, got 0"),
        ([*ev, "--pmax", "0.55", "--nmc", "1"], 2, "n_mc must be >= 2, got 1"),
        ([*ev, "--pmax", "0.55", "--gamma", "0.3,0.5"], 2, "gamma vector has 2 entries, need 1"),
        ([*pred, "--method", "knn", "--train", "tag.csv"], 1,
         "error: tag.csv: line 3: unknown origin tag 'R'"),
        ([*pred, "--method", "knn", "--train", "no.csv"], 1, "No such file or directory"),
        ([*pred, "--method", "knn", "--train", "latin.csv"], 1,
         "error: latin.csv: not UTF-8 text ("),
        ([*ev, "--pmax", "0.55", "--train", "latin.csv"], 1, "error: latin.csv: not UTF-8 text ("),
        ([*rate, "--pmax", "0.51", "--nmc", "4000", "--seed", "0"], 1,
         "error: mean excess risk is zero at size 20"),
    ]
    capsys.readouterr()
    for argv, code, message in cases:
        assert run_cli(argv) == code, argv
        err = capsys.readouterr().err
        assert message in err, (argv, err)
        assert not list(tmp_path.glob("out.csv*")), argv
