"""CSV dataset exchange, tidy result output, and the command-line surface.

Data files carry a header ``x0..x{d-1}, y`` plus an optional ``origin``
column: ``P``/``Q`` rows form a one-source dataset, ``P1..Pm`` (with an
optional ``Q``) an m-source one, both read as a ``TransferDataset``, and no
origin column a plain sample set. Floats are printed with 17 significant
digits so a write/read cycle reproduces every double bit-exactly.

Both readers first parse a file in one C pass of ``np.loadtxt``; where that pass
cannot be sure of the same answer (a quote, a row or value it refuses, ...), the exact
reader checks the file row by row with the csv module and names its first faulty line.
Text is UTF-8, with one leading byte-order mark dropped.

Every CSV the package writes goes through one writer, ``_write_csv``; the
result tables take their columns from the fields of their record types.

Every command run with an output file writes a JSON-lines manifest next
to it capturing the exact argv, every parsed argument, the seed, package
version, and timestamps; the argv alone reproduces the output file byte for
byte. Exit codes: 0 success; 2 for an argparse error or any other ValueError,
which is how the library refuses a setting; 1 for a CsvFormatError (a faulty
data file), an OSError or a RuntimeError.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import re
import sys
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .core import BAD_COORD, MAX_COORD, HyperParams, RandomSource, SampleSet, TransferDataset
from .classifiers import LEPSKI_WIDTHS, default_knn_k
from .simulation import (
    _EXPERIMENT_STREAM_IDS,
    EXPERIMENT_PRESETS,
    TEST_BALL_RADIUS,
    AggregateRow,
    DriftModel,
    ExperimentRecord,
    classification_accuracy,
    excess_risk_mc,
    fit_method,
    rate_exponent_check,
    run_preset,
    summarize_accuracy,
    METHODS as SIM_METHODS,
)

__all__ = [
    "CsvFormatError",
    "read_labeled_csv",
    "write_labeled_csv",
    "read_points_csv",
    "write_records_csv",
    "write_aggregate_csv",
    "write_manifest",
    "manifest_argv",
    "run_cli",
    "main",
]

_FLOAT_FMT = ".17g"


class CsvFormatError(ValueError):
    """A data file violates the CSV format; the message cites the line."""


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _feature_header(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


def _write_csv(path, header: list[str], rows) -> None:
    """Write header, then each row of rows: every CSV the package writes goes through here."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _parse_header(header: list[str], path: str) -> tuple[int, bool]:
    """Validate the header row; returns (d, has_origin)."""
    cols = [c.strip() for c in header]
    has_origin = bool(cols) and cols[-1] == "origin"
    if has_origin:
        cols = cols[:-1]
    if not cols or cols[-1] != "y":
        raise CsvFormatError(f"{path}: line 1: header must end with 'y' (then optional 'origin')")
    feats = cols[:-1]
    if not feats or feats != _feature_header(len(feats)):
        raise CsvFormatError(f"{path}: line 1: feature columns must be x0..x{{d-1}}, got {feats}")
    return len(feats), has_origin


def _points_header(header: list[str], path: str) -> int:
    """Validate a query file's header row; returns d, its count of leading x0..x{d-1}."""
    cols = [c.strip() for c in header]
    d = next((i for i, c in enumerate(cols) if c != f"x{i}"), len(cols))
    if d == 0:
        raise CsvFormatError(
            f"{path}: line 1: expected feature columns x0..x{{d-1}}, got {cols}")
    return d


def write_labeled_csv(path, data) -> None:
    """Write a SampleSet (no origin column) or a TransferDataset.

    A dataset gets an origin column: one source writes P rows then Q rows,
    m >= 2 sources write P1..Pm then Q. Floats carry 17 significant digits
    for exact round-trips; an empty source of m >= 2, which no row could tag, is refused.
    """
    columns = ["y"]
    if isinstance(data, SampleSet):
        parts = [([], data)]
    elif not hasattr(data, "sources"):
        raise TypeError(f"not a dataset type: {type(data).__name__}")
    else:
        if data.m > 1 and 0 in data.source_sizes:
            raise ValueError(f"source P{data.source_sizes.index(0) + 1} is empty; no row can tag it")
        columns.append("origin")
        tags = ["P"] if data.m == 1 else [f"P{i}" for i in range(1, data.m + 1)]
        parts = [([t], s) for t, s in zip([*tags, "Q"], [*data.sources, data.q_data])]
    rows = ([_fmt(v) for v in x] + [str(int(y))] + tag
            for tag, s in parts for x, y in zip(s.points, s.labels))
    _write_csv(path, _feature_header(data.d) + columns, rows)


def _data_rows(fh, path: str):
    """The header of an open CSV, then (line number, fields) of each non-blank row;
    a row that csv cannot parse (a field over its size limit) or bytes that are not
    UTF-8 raise CsvFormatError."""
    reader = csv.reader(fh)

    def numbered():
        try:
            yield from enumerate(reader, start=1)
        except csv.Error as e:
            raise CsvFormatError(f"{path}: line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:  # decoded a block at a time: no exact line
            raise CsvFormatError(f"{path}: not UTF-8 text ({e.reason})") from None

    rows = numbered()
    _, header = next(rows, (1, None))
    if header is None:
        raise CsvFormatError(f"{path}: line 1: empty file, expected a header row")
    return header, filter(itemgetter(1), rows)


# P, Q, or P followed by a source number of at most 18 ASCII digits without a
# leading zero, so that every source number fits an int64 code.
_ORIGIN_TAG = re.compile(r"[PQ]|P[1-9][0-9]{0,17}")


def _tag_code(tag: str) -> int:
    """0 for Q, the source number for P1..Pm and 1 for P, -1 for an unknown tag."""
    return -1 if not _ORIGIN_TAG.fullmatch(tag) else 0 if tag == "Q" else int(tag[1:] or 1)


def _c_rows(path: str, labeled: bool):
    """A data file in one C pass of np.loadtxt: a labeled file's (points, labels, origin
    codes, stripped tags; the last two None without origin) or a query file's points. None
    leaves the file to the exact reader: on a quote or a NUL (csv's own), \\x1c-\\x1f (which
    loadtxt strips around a number and float() does not), a line over csv's field limit, no
    data row (loadtxt warns), text that is not UTF-8, or a header, row or value that either
    reader refuses or that may have been cut to its field's width."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        head, body = re.fullmatch(rb"([^\r\n]*)(.*)", raw, re.S).groups()
        if (any(c in raw for c in b'"\0\x1c\x1d\x1e\x1f') or not body.strip(b"\r\n")
                or not _lines_within(raw, csv.field_size_limit())):
            return None
        header = head.decode("utf-8-sig").split(",")
        d, has_origin = _parse_header(header, path) if labeled else (
            _points_header(header, path), False)
        fields = [("x", "f8", (d,))] + [("y", "S2")] * labeled + [("tag", "S20")] * has_origin
        rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline=None),
                          fields, delimiter=",", comments=None, quotechar=None, ndmin=1,
                          usecols=None if labeled else range(d))
    except (OSError, ValueError):  # CsvFormatError and UnicodeDecodeError among them
        return None
    pts = np.ascontiguousarray(rows["x"])
    if not (np.abs(pts) <= MAX_COORD).all():
        return None
    if not labeled:
        return pts
    labs = (rows["y"] == b"1").astype(np.int64)
    if labs.sum() + (rows["y"] == b"0").sum() != len(labs):
        return None
    if not has_origin:
        return pts, labs, None, None
    col = rows["tag"]  # a code per run of equal tags, which loadtxt holds as latin-1 bytes
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    tags = {v: v.decode("latin-1").strip() for v in set(col[starts].tolist())}
    of = {v: _tag_code(tag) if len(v) < 20 else -1 for v, tag in tags.items()}
    if min(of.values()) < 0:
        return None
    codes = np.repeat([of[v] for v in col[starts].tolist()], np.diff(starts, append=len(col)))
    return pts, labs, codes, set(tags.values())


def _lines_within(raw: bytes, limit: int) -> bool:
    """Whether no line of raw is longer than limit bytes. Such a line holds one of the
    offsets limit // 2 apart, so only the lines through those are measured."""
    for c in range(0, len(raw), max(limit // 2, 1)):
        start = max(raw.rfind(b"\n", 0, c), raw.rfind(b"\r", 0, c))
        end = min(i if i >= 0 else len(raw) for i in (raw.find(b"\n", c), raw.find(b"\r", c)))
        if end - start - 1 > limit:
            return False
    return True


def _exact_rows(path: str, labeled: bool):
    """What _c_rows returns, read by the csv module and checked row by row in file order:
    the field count, then the coordinates (float(), then core's rule), the label and the
    origin tag. The first faulty row, by its line, or a query file with no data row raises
    CsvFormatError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, rows = _data_rows(fh, path)
        d, has_origin = _parse_header(header, path) if labeled else (
            _points_header(header, path), False)
        ncols = d + labeled + has_origin
        coords, labels, codes, code_of = [], [], [], {}  # code_of: tag field -> code
        fault = lambda message: CsvFormatError(f"{path}: line {lineno}: {message}")
        for lineno, row in rows:
            if len(row) != ncols and (labeled or len(row) < ncols):
                raise fault(f"expected {ncols} fields, got {len(row)}" if labeled
                            else f"expected >= {ncols} fields")
            try:
                x = list(map(float, row[:d]))
            except ValueError:
                raise fault("non-numeric coordinate") from None
            if not all(map(MAX_COORD.__ge__, map(abs, x))):  # NaN fails too
                raise fault(BAD_COORD)
            coords += x
            if labeled:
                label = row[d].strip()
                if label not in ("0", "1"):
                    raise fault(f"label must be 0 or 1, got {label!r}")
                labels.append(label == "1")
            if has_origin:
                tag = row[d + 1]
                code = code_of.get(tag)
                if code is None:
                    code = code_of[tag] = _tag_code(tag.strip())
                if code < 0:
                    raise fault(f"unknown origin tag {tag.strip()!r}")
                codes.append(code)
    pts, labs = np.array(coords, dtype=np.float64).reshape(-1, d), np.array(labels, np.int64)
    if not labeled:
        if not len(pts):
            raise CsvFormatError(f"{path}: no data rows")
        return pts
    if not has_origin:
        return pts, labs, None, None
    return pts, labs, np.array(codes, np.int64), {tag.strip() for tag in code_of}


def read_labeled_csv(path):
    """Read a labeled-data CSV; the origin column decides the return type.

    No origin column gives a SampleSet. Tagged rows give a TransferDataset:
    {P, Q} tags one source, contiguous P1..Pm tags (plus optional Q) m
    sources, so a P1-only file is the same dataset as a P/Q file. Format
    violations raise CsvFormatError citing the 1-based line number of the
    first faulty row: rows are checked in file order, and within a row the
    checks keep the order field count, coordinates, label, origin tag.
    """
    path = str(path)
    pts, labs, tag_of, tags = _c_rows(path, labeled=True) or _exact_rows(path, labeled=True)
    if tag_of is None:
        return SampleSet(pts, labs)
    rows_tagged = lambda code: SampleSet(pts[tag_of == code], labs[tag_of == code])
    numbered = tags - {"P", "Q"}
    if not numbered:
        return TransferDataset((rows_tagged(1),), rows_tagged(0))
    if "P" in tags:
        raise CsvFormatError(f"{path}: cannot mix origin 'P' with numbered sources")
    ids = sorted(int(t[1:]) for t in numbered)
    if ids != list(range(1, len(ids) + 1)):
        raise CsvFormatError(
            f"{path}: source tags must be contiguous P1..Pm, got {sorted(numbered)}")
    return TransferDataset(tuple(rows_tagged(i) for i in ids), rows_tagged(0))


def read_points_csv(path) -> np.ndarray:
    """Read query points: header x0..x{d-1} with optional extra columns ignored."""
    path = str(path)
    pts = _c_rows(path, labeled=False)
    return _exact_rows(path, labeled=False) if pts is None else pts


def _repr(v) -> str:
    """A float field as the shortest repr that round-trips, also for numpy scalars."""
    return "" if v is None else repr(float(v))


def _write_rows(path, rows, row_type, skip=()) -> None:
    """One row per dataclass instance; the columns are row_type's fields less skip, in
    order. A field annotated float or float | None is written with _repr, any other as is."""
    cols = [f.name for f in dataclasses.fields(row_type) if f.name not in skip]
    hints = get_type_hints(row_type)
    floats = [hints[c] in (float, float | None) for c in cols]
    get = attrgetter(*cols)
    _write_csv(path, cols, ([_repr(v) if f else v for f, v in zip(floats, get(r))] for r in rows))


def write_records_csv(path, records) -> None:
    """One row per replication record (wall time excluded: output is rerun-stable)."""
    _write_rows(path, records, ExperimentRecord, skip=("wall_time",))


def write_aggregate_csv(path, rows) -> None:
    """One row per method x grid point with mean accuracy and standard error."""
    _write_rows(path, rows, AggregateRow)


def write_manifest(out_path, argv: list[str], seed: int, started: str, config: dict) -> Path:
    """Write the JSON-lines run manifest next to the output file."""
    manifest = Path(str(out_path) + ".manifest.jsonl")
    entry = {"config": dict(config, argv=list(argv)), "seed": seed, "version": __version__,
             "started": started, "finished": _now()}
    with open(manifest, "w") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return manifest


def manifest_argv(manifest_path) -> list[str]:
    """Recover the exact argv stored in a run manifest."""
    with open(manifest_path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{manifest_path}: empty manifest")
    return list(json.loads(lines[-1])["config"]["argv"])


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_list(text: str, kind: type = float) -> list:
    """The nonblank entries of a comma list, each converted by kind (float or int)."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"expected a comma-separated list of {noun}, got {text!r}") from None


@functools.cache  # one parser per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftknn",
        description="Transfer k-NN classification under posterior drift: "
                    "canned experiments, rate checks, prediction, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a canned accuracy experiment")
    sim.add_argument("experiment", choices=sorted(EXPERIMENT_PRESETS))
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--reps", type=int, default=None, help="replications per grid point")
    sim.add_argument("--np", dest="n_p", default=None, help="source size(s), comma list")
    sim.add_argument("--nq", dest="n_q", type=int, default=None, help="target size")
    sim.add_argument("--pmax", default=None, help="signal level(s), comma list")
    sim.add_argument("--gamma", type=float, default=0.3)
    sim.add_argument("--beta", type=float, default=1.0)
    sim.add_argument("--d", type=int, default=2)
    sim.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")

    rate = sub.add_parser("rate-check", help="fit the excess-risk convergence slope")
    rate.add_argument("--out", default=None, help="optional per-replication CSV path")
    rate.add_argument("--seed", type=int, default=0)
    rate.add_argument("--sizes", default="500,1000,2000,4000,8000,16000")
    rate.add_argument("--reps", type=int, default=24)
    rate.add_argument("--nmc", type=int, default=100_000)
    rate.add_argument("--sweep", choices=["q", "p"], default="q")
    rate.add_argument("--pmax", type=float, default=0.60,
                      help="model signal level (0.60 keeps the slope identifiable)")
    rate.add_argument("--gamma", type=float, default=0.3)
    rate.add_argument("--beta", type=float, default=1.0)
    rate.add_argument("--d", type=int, default=2)

    pred = sub.add_parser("predict", help="label query points from a training CSV")
    pred.add_argument("--method", required=True,
                      choices=["knn", "weighted", "adaptive", "lepski", "combined"])
    pred.add_argument("--train", required=True)
    pred.add_argument("--test", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--gamma", default=None, help="relative signal exponent(s), comma list")
    pred.add_argument("--beta", type=float, default=1.0)
    pred.add_argument("--k", type=int, default=None, help="neighbor count for knn")
    pred.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")
    pred.add_argument("--pool", action="store_true",
                      help="run knn/lepski on the pooled sample instead of the target rows")

    ev = sub.add_parser("eval", help="score a method against an analytic model")
    ev.add_argument("--method", required=True, choices=sorted(SIM_METHODS))
    ev.add_argument("--train", required=True)
    ev.add_argument("--pmax", type=float, required=True,
                    help="analytic model signal level")
    ev.add_argument("--gamma-sim", type=float, default=None,
                    help="model drift exponent (defaults to --gamma)")
    ev.add_argument("--gamma", default="0.3", help="relative signal exponent(s), comma list")
    ev.add_argument("--beta", type=float, default=1.0)
    ev.add_argument("--n-test", type=int, default=1000)
    ev.add_argument("--radius", type=float, default=TEST_BALL_RADIUS)
    ev.add_argument("--nmc", type=int, default=100_000)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=None)
    ev.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")
    return parser


def _cmd_simulate(args) -> None:
    overrides: dict = {}
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.n_p is not None:
        overrides["n_p_values"] = tuple(_parse_list(args.n_p, int))
    if args.n_q is not None:
        overrides["n_q"] = args.n_q
    if args.pmax is not None:
        overrides["p_max_values"] = tuple(_parse_list(args.pmax))
    overrides.update(gamma=args.gamma, beta=args.beta, d=args.d,
                     lepski_width=args.lepski_width)
    records = run_preset(args.experiment, seed=args.seed, **overrides)
    rows = summarize_accuracy(records)
    write_aggregate_csv(args.out, rows)
    for r in rows:
        print(f"{r.experiment} {r.method:16s} p_max={r.p_max:<6g} n_p={r.n_p:<6d} "
              f"accuracy={r.accuracy_mean:.4f} (se {r.accuracy_se:.4f}, reps {r.reps})")
    print(f"wrote {args.out}")


def _cmd_rate_check(args) -> None:
    sizes = _parse_list(args.sizes, int)
    hp = HyperParams(beta=args.beta, gamma=args.gamma, d=args.d)
    result = rate_exponent_check(hp, sizes, args.reps, RandomSource(args.seed),
                                 sweep=args.sweep, p_max=args.pmax, n_mc=args.nmc)
    for n, risk in zip(result.sizes, result.mean_risks):
        print(f"n={n:<7d} mean excess risk = {risk:.6e}")
    print(f"fitted slope     = {result.slope:+.4f}")
    print(f"bootstrap 95% CI = [{result.ci_low:+.4f}, {result.ci_high:+.4f}]")
    print(f"target slope     = {result.target_slope:+.4f}  (sweep {result.sweep}, "
          f"beta={hp.beta:g}, alpha={DriftModel.MARGIN_EXPONENT:g}, "
          f"gamma={hp.scalar_gamma():g}, d={hp.d})")
    if args.out:
        write_records_csv(args.out, result.records)
        print(f"wrote {args.out}")


def _read_train(path) -> tuple[TransferDataset, bool]:
    """A training file as a dataset, and whether it carried origin tags.

    Untagged rows are the target, next to one empty source.
    """
    data = read_labeled_csv(path)
    if isinstance(data, SampleSet):
        return TransferDataset((SampleSet.empty(data.d),), data), False
    return data, True


def _gammas(args) -> float | tuple[float, ...]:
    """--gamma as a HyperParams gamma, one value or a tuple: parsed, not checked."""
    gammas = _parse_list(args.gamma)
    return gammas[0] if len(gammas) == 1 else tuple(gammas)


# predict's one-set spellings (--method, --pool) as registry names
_SPELLINGS = {("knn", False): "qonly", ("knn", True): "combined",
              ("lepski", False): "lepski-q", ("lepski", True): "lepski-combined"}


def _fit_for(args, train: TransferDataset, tagged: bool):
    """Check the predict method and its switches, then fit it by its registry name;
    knn takes --k, or else default_knn_k of the one set it reads (Q, or pooled)."""
    method = args.method
    if args.k is not None and method != "knn":
        raise ValueError("--k applies only to knn")
    if args.pool and method not in ("knn", "lepski"):
        raise ValueError("--pool applies only to knn and lepski")
    gamma = None if args.gamma is None else _gammas(args)
    hp = HyperParams(beta=args.beta, gamma=1.0 if gamma is None else gamma, d=train.d)
    if method in ("weighted", "adaptive") and not tagged:
        raise ValueError(f"{method} needs origin tags (P/Q or P1..Pm) in the training CSV")
    if method in ("weighted", "combined") and gamma is None:
        raise ValueError(f"{method} needs --gamma (one value, or one per source)")
    k = args.k
    if method == "knn" and k is None:
        k = default_knn_k(train.n_q + (train.n_p if args.pool else 0), hp)
    return fit_method(_SPELLINGS.get((method, args.pool), method), train, hp,
                      args.lepski_width, k=k)


def _cmd_predict(args) -> None:
    train, tagged = _read_train(args.train)
    fitted = _fit_for(args, train, tagged)
    pts = read_points_csv(args.test)
    if pts.shape[1] != train.d:
        raise CsvFormatError(
            f"{args.test}: test dimension {pts.shape[1]} != training dimension {train.d}")
    labels = fitted.predict_batch(pts)
    _write_csv(args.out, _feature_header(train.d) + ["y_pred"],
               ([_fmt(v) for v in x] + [str(y)] for x, y in zip(pts, labels)))
    print(f"wrote {args.out} ({len(labels)} predictions)")


def _cmd_eval(args) -> None:
    train, _ = _read_train(args.train)
    gamma = _gammas(args)
    hp = HyperParams(beta=args.beta, gamma=gamma, d=train.d)
    hp.gamma_vector(train.m)  # the count, before the test points are drawn
    if isinstance(gamma, tuple) and args.gamma_sim is None:
        raise ValueError("a per-source --gamma needs --gamma-sim (the model has one exponent)")
    gamma_sim = args.gamma_sim if args.gamma_sim is not None else gamma
    model = DriftModel(args.pmax, gamma_sim, train.d, args.radius)
    rs = RandomSource(args.seed).substream(_EXPERIMENT_STREAM_IDS["eval"])
    test = model.sample_test_points(args.n_test, rs.substream(0))
    fitted = fit_method(args.method, train, hp, args.lepski_width)
    acc = classification_accuracy(fitted.predict_batch, model, test)
    est = excess_risk_mc(fitted.predict_batch, model, args.nmc, rs.substream(1))
    print(f"method={args.method} n_p={train.n_p} n_q={train.n_q} d={train.d}")
    print(f"accuracy (vs oracle, {args.n_test} ball test points) = {acc:.4f}")
    print(f"excess risk (MC, n={args.nmc}) = {est.value:.6e} +- {est.std_error:.2e}")
    if args.out:
        _write_csv(args.out, ["method", "p_max", "gamma_sim", "gamma", "beta", "d",
                              "n_p", "n_q", "n_test", "accuracy", "excess_risk",
                              "excess_risk_se", "n_mc", "seed"],
                   [[args.method, repr(args.pmax), repr(float(gamma_sim)),
                     ",".join(map(repr, gamma)) if isinstance(gamma, tuple) else repr(gamma),
                     repr(args.beta), train.d,
                     train.n_p, train.n_q, args.n_test, repr(acc), repr(est.value),
                     repr(est.std_error), args.nmc, args.seed]])
        print(f"wrote {args.out}")


_COMMANDS = {
    "simulate": _cmd_simulate,
    "rate-check": _cmd_rate_check,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
}


def run_cli(argv: list[str] | None = None) -> int:
    """Parse and run one command; returns the process exit code. A command that
    succeeds with an --out file gets a manifest of its argv and parsed arguments."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    started = _now()
    try:
        _COMMANDS[args.command](args)
        if args.out:
            write_manifest(args.out, argv, getattr(args, "seed", 0), started, vars(args))
        return 0
    except (CsvFormatError, OSError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
