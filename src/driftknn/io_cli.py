"""CSV dataset exchange, tidy result output, and the command-line surface.

Data files carry a header ``x0..x{d-1}, y`` plus an optional ``origin``
column: ``P``/``Q`` rows form a one-source dataset, ``P1..Pm`` (with an
optional ``Q``) an m-source one, both read as a ``TransferDataset``, and no
origin column a plain sample set. Floats are printed with 17 significant
digits so a write/read cycle reproduces every double bit-exactly.

Every command writes a JSON-lines manifest next to its output capturing
the exact argv, seed, package version, and timestamps; the argv alone
reproduces the output file byte for byte. Exit codes: 0 success, 1
runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import HyperParams, RandomSource, SampleSet, TransferDataset, pooled_sample_set
from .classifiers import LEPSKI_WIDTHS, combined_budget_k, default_knn_k
from .simulation import (
    _EXPERIMENT_STREAM_IDS,
    EXPERIMENT_PRESETS,
    _fit_adaptive,
    _fit_knn,
    _fit_lepski,
    _fit_weighted,
    classification_accuracy,
    excess_risk_mc,
    fit_method,
    make_drift_model,
    rate_exponent_check,
    run_preset,
    sample_test_points,
    summarize_accuracy,
    METHODS as SIM_METHODS,
)

__all__ = [
    "CsvFormatError",
    "UsageError",
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


class UsageError(Exception):
    """Bad command-line configuration; maps to exit code 2."""


def _fmt(v: float) -> str:
    return format(float(v), _FLOAT_FMT)


def _feature_header(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)]


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


def write_labeled_csv(path, data) -> None:
    """Write a SampleSet (no origin column) or a TransferDataset.

    A dataset gets an origin column: one source writes P rows then Q rows,
    m >= 2 sources write P1..Pm then Q. Floats carry 17 significant digits
    for exact round-trips.
    """
    columns = ["y"]
    if isinstance(data, SampleSet):
        parts = [(None, data)]
    elif not hasattr(data, "sources"):
        raise TypeError(f"not a dataset type: {type(data).__name__}")
    else:
        columns.append("origin")
        tags = ["P"] if data.m == 1 else [f"P{i}" for i in range(1, data.m + 1)]
        parts = [*zip(tags, data.sources), ("Q", data.q_data)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_feature_header(data.d) + columns)
        for tag, s in parts:
            for i in range(len(s)):
                row = [_fmt(v) for v in s.points[i]] + [str(int(s.labels[i]))]
                if tag is not None:
                    row.append(tag)
                w.writerow(row)


def _data_rows(fh, path: str):
    """The header of an open CSV, then (line number, fields) of each non-blank row."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(f"{path}: line 1: empty file, expected a header row")
    return header, ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)


def _coords(path: str, lineno: int, row: list[str], d: int) -> list[float]:
    """The first d fields of a data row as finite floats."""
    try:
        x = [float(v) for v in row[:d]]
    except ValueError:
        raise CsvFormatError(f"{path}: line {lineno}: non-numeric coordinate")
    if not all(map(math.isfinite, x)):
        raise CsvFormatError(f"{path}: line {lineno}: non-finite coordinate")
    return x


# P, Q, or P followed by a source number in ASCII digits without a leading zero.
_ORIGIN_TAG = re.compile(r"[PQ]|P[1-9][0-9]*")


def read_labeled_csv(path):
    """Read a labeled-data CSV; the origin column decides the return type.

    No origin column gives a SampleSet. Tagged rows give a TransferDataset:
    {P, Q} tags one source, contiguous P1..Pm tags (plus optional Q) m
    sources, so a P1-only file is the same dataset as a P/Q file. Format
    violations raise CsvFormatError citing the 1-based line number of the
    first faulty row.
    """
    path = str(path)
    coords: list[float] = []
    labels: list[bool] = []
    tags: list[str] = []
    with open(path, newline="") as fh:
        header, rows = _data_rows(fh, path)
        d, has_origin = _parse_header(header, path)
        ncols = d + 1 + (1 if has_origin else 0)
        for lineno, row in rows:
            if len(row) != ncols:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {ncols} fields, got {len(row)}")
            coords += _coords(path, lineno, row, d)
            ystr = row[d].strip()
            if ystr not in ("0", "1"):
                raise CsvFormatError(f"{path}: line {lineno}: label must be 0 or 1, got {ystr!r}")
            labels.append(ystr == "1")
            if has_origin:
                tag = row[d + 1].strip()
                if not _ORIGIN_TAG.fullmatch(tag):
                    raise CsvFormatError(f"{path}: line {lineno}: unknown origin tag {tag!r}")
                tags.append(tag)

    pts = np.array(coords, dtype=np.float64).reshape(-1, d)
    labs = np.array(labels, dtype=np.int64)
    if not has_origin:
        return SampleSet(pts, labs)
    tag_of = np.array(tags, dtype=str)

    def rows_tagged(tag: str) -> SampleSet:
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


def read_points_csv(path) -> np.ndarray:
    """Read query points: header x0..x{d-1} with optional extra columns ignored."""
    path = str(path)
    coords: list[float] = []
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
            coords += _coords(path, lineno, row, d)
    if not coords:
        raise CsvFormatError(f"{path}: no data rows")
    return np.array(coords, dtype=np.float64).reshape(-1, d)


_RECORD_COLS = ["experiment", "method", "seed", "replication", "p_max", "gamma",
                "d", "n_p", "n_q", "accuracy", "excess_risk"]
_AGGREGATE_COLS = ["experiment", "method", "seed", "p_max", "gamma", "d", "n_p",
                   "n_q", "reps", "accuracy_mean", "accuracy_se"]


def write_records_csv(path, records) -> None:
    """One row per replication record (wall time excluded: output is rerun-stable)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RECORD_COLS)
        for r in records:
            w.writerow([
                r.experiment, r.method, r.seed, r.replication, repr(r.p_max),
                repr(r.gamma), r.d, r.n_p, r.n_q,
                "" if r.accuracy is None else repr(r.accuracy),
                "" if r.excess_risk is None else repr(r.excess_risk),
            ])


def write_aggregate_csv(path, rows) -> None:
    """One row per method x grid point with mean accuracy and standard error."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_AGGREGATE_COLS)
        for r in rows:
            w.writerow([
                r.experiment, r.method, r.seed, repr(r.p_max), repr(r.gamma), r.d,
                r.n_p, r.n_q, r.reps, repr(r.accuracy_mean), repr(r.accuracy_se),
            ])


def write_manifest(out_path, argv: list[str], seed: int, started: str, config: dict) -> Path:
    """Write the JSON-lines run manifest next to the output file."""
    manifest = Path(str(out_path) + ".manifest.jsonl")
    entry = {
        "config": dict(config, argv=list(argv)),
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
    }
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


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated list of numbers, got {text!r}")


def _parse_ints(text: str) -> list[int]:
    out = []
    for v in text.split(","):
        v = v.strip()
        if not v:
            continue
        if not v.lstrip("-").isdigit():
            raise UsageError(f"expected a comma-separated list of integers, got {text!r}")
        out.append(int(v))
    return out


def _hyperparams(args, gamma) -> HyperParams:
    try:
        return HyperParams(alpha=args.alpha, beta=args.beta, gamma=gamma, d=args.d)
    except ValueError as e:
        raise UsageError(str(e))


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
    sim.add_argument("--alpha", type=float, default=0.0)
    sim.add_argument("--d", type=int, default=2)
    sim.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")
    sim.add_argument("--accuracy-target", choices=["bayes", "noisy"], default="bayes")

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
    rate.add_argument("--alpha", type=float, default=0.0)
    rate.add_argument("--d", type=int, default=2)

    pred = sub.add_parser("predict", help="label query points from a training CSV")
    pred.add_argument("--method", required=True,
                      choices=["knn", "weighted", "adaptive", "multisource", "lepski", "combined"])
    pred.add_argument("--train", required=True)
    pred.add_argument("--test", required=True)
    pred.add_argument("--out", required=True)
    pred.add_argument("--gamma", default=None, help="relative signal exponent(s), comma list")
    pred.add_argument("--beta", type=float, default=1.0)
    pred.add_argument("--alpha", type=float, default=0.0)
    pred.add_argument("--d", type=int, default=None, help="expected dimension (validated)")
    pred.add_argument("--k", type=int, default=None, help="neighbor count for knn/combined")
    pred.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")
    pred.add_argument("--pool", action="store_true",
                      help="run knn/lepski on the pooled sample instead of the target rows")

    ev = sub.add_parser("eval", help="score a method against an analytic model")
    ev.add_argument("--method", required=True, choices=sorted(SIM_METHODS))
    ev.add_argument("--train", required=True)
    ev.add_argument("--pmax", type=float, default=None,
                    help="analytic model signal level (required)")
    ev.add_argument("--gamma-sim", type=float, default=None,
                    help="model drift exponent (defaults to --gamma)")
    ev.add_argument("--gamma", default="0.3", help="relative signal exponent(s), comma list")
    ev.add_argument("--beta", type=float, default=1.0)
    ev.add_argument("--alpha", type=float, default=0.0)
    ev.add_argument("--n-test", type=int, default=1000)
    ev.add_argument("--radius", type=float, default=0.05)
    ev.add_argument("--nmc", type=int, default=100_000)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", default=None)
    ev.add_argument("--lepski-width", choices=sorted(LEPSKI_WIDTHS), default="algorithm3")
    return parser


def _cmd_simulate(args, argv) -> int:
    started = _now()
    preset = EXPERIMENT_PRESETS[args.experiment]
    overrides: dict = {}
    if args.reps is not None:
        if args.reps < 1:
            raise UsageError("--reps must be >= 1")
        overrides["reps"] = args.reps
    if args.n_p is not None:
        vals = _parse_ints(args.n_p)
        if not vals or any(v < 0 for v in vals):
            raise UsageError("--np must list nonnegative integers")
        overrides["n_p_values"] = tuple(vals)
    if args.n_q is not None:
        if args.n_q < 0:
            raise UsageError("--nq must be >= 0")
        overrides["n_q"] = args.n_q
    if args.pmax is not None:
        vals = _parse_floats(args.pmax)
        if not vals or any(not (0.5 < v <= 1.0) for v in vals):
            raise UsageError("--pmax values must lie in (0.5, 1]")
        overrides["p_max_values"] = tuple(vals)
    _hyperparams(args, args.gamma)  # validate ranges up front
    overrides.update(gamma=args.gamma, beta=args.beta, alpha=args.alpha, d=args.d,
                     lepski_width=args.lepski_width, accuracy_target=args.accuracy_target)
    records = run_preset(args.experiment, seed=args.seed, **overrides)
    rows = summarize_accuracy(records)
    write_aggregate_csv(args.out, rows)
    config = dict(command="simulate", experiment=args.experiment, seed=args.seed,
                  out=str(args.out), **{k: (list(v) if isinstance(v, tuple) else v)
                                         for k, v in overrides.items()})
    config.setdefault("reps", preset["reps"])
    write_manifest(args.out, argv, args.seed, started, config)
    for r in rows:
        print(f"{r.experiment} {r.method:16s} p_max={r.p_max:<6g} n_p={r.n_p:<6d} "
              f"accuracy={r.accuracy_mean:.4f} (se {r.accuracy_se:.4f}, reps {r.reps})")
    print(f"wrote {args.out}")
    return 0


def _cmd_rate_check(args, argv) -> int:
    started = _now()
    sizes = _parse_ints(args.sizes)
    hp = _hyperparams(args, args.gamma)
    if not (0.5 < args.pmax <= 1.0):
        raise UsageError("--pmax must lie in (0.5, 1]")
    if args.reps < 2:
        raise UsageError("--reps must be >= 2")
    if args.nmc < 2:
        raise UsageError("--nmc must be >= 2")
    try:
        result = rate_exponent_check(hp, sizes, args.reps, RandomSource(args.seed),
                                     sweep=args.sweep, p_max=args.pmax, n_mc=args.nmc)
    except ValueError as e:
        raise UsageError(str(e))
    for n, risk in zip(result.sizes, result.mean_risks):
        print(f"n={n:<7d} mean excess risk = {risk:.6e}")
    print(f"fitted slope     = {result.slope:+.4f}")
    print(f"bootstrap 95% CI = [{result.ci_low:+.4f}, {result.ci_high:+.4f}]")
    print(f"target slope     = {result.target_slope:+.4f}  (sweep {result.sweep}, "
          f"beta={hp.beta:g}, alpha={hp.alpha:g}, gamma={hp.scalar_gamma():g}, d={hp.d})")
    if args.out:
        write_records_csv(args.out, result.records)
        config = dict(command="rate-check", sizes=list(result.sizes), reps=args.reps,
                      nmc=args.nmc, sweep=args.sweep, pmax=args.pmax, gamma=args.gamma,
                      beta=args.beta, alpha=args.alpha, d=args.d, seed=args.seed,
                      out=str(args.out))
        write_manifest(args.out, argv, args.seed, started, config)
        print(f"wrote {args.out}")
    return 0


def _read_train(path) -> tuple[TransferDataset, bool]:
    """A training file as a dataset, and whether it carried origin tags.

    Untagged rows are the target, next to one empty source.
    """
    data = read_labeled_csv(path)
    if isinstance(data, SampleSet):
        return TransferDataset((SampleSet.empty(data.d),), data), False
    return data, True


def _gammas(args, m: int) -> float | tuple[float, ...]:
    """--gamma as a HyperParams gamma: a single value for every source, or m values."""
    gammas = _parse_floats(args.gamma)
    if len(gammas) == 1:
        return gammas[0]
    if len(gammas) != m:
        raise UsageError(f"gamma vector has {len(gammas)} entries, need {m}")
    return tuple(gammas)


def _fit_for(args, train: TransferDataset, tagged: bool):
    """Translate the predict method, --pool, --k and --gamma into a fit."""
    method = args.method
    # --gamma is checked for every method, also where it goes unused.
    gamma = None if args.gamma is None else _gammas(args, train.m)
    if method in ("weighted", "multisource", "adaptive") and not tagged:
        raise UsageError(f"{method} needs origin tags (P/Q or P1..Pm) in the training CSV")
    if method in ("weighted", "multisource"):
        if gamma is None:
            raise UsageError(f"{method} needs --gamma (one value, or one per source)")
        return _fit_weighted(train, _hyperparams(args, gamma))
    if method == "adaptive":
        return _fit_adaptive(train)
    # knn, lepski and combined run on one sample set: the target rows, or
    # everything pooled (source rows, then Q rows) for combined and --pool.
    # combined takes the plan budget only on a one-source file with --gamma.
    budget = method == "combined" and gamma is not None and tagged and train.m == 1
    s = pooled_sample_set(train) if (method == "combined" or args.pool) else train.q_data
    if len(s) == 0:
        raise UsageError(f"{method} has no training rows to use")
    if method == "lepski":
        return _fit_lepski(method, s, args.lepski_width)
    if args.k is not None:
        if not (1 <= args.k <= len(s)):
            raise UsageError(f"--k must be in [1, {len(s)}]")
        return _fit_knn(method, s, args.k)
    hp = _hyperparams(args, 1.0 if gamma is None else gamma)
    k = combined_budget_k(train.n_p, train.n_q, hp) if budget else default_knn_k(len(s), hp)
    return _fit_knn(method, s, k)


def _cmd_predict(args, argv) -> int:
    started = _now()
    train, tagged = _read_train(args.train)
    if args.d is not None and train.d != args.d:
        raise UsageError(f"--d {args.d} but training data has d={train.d}")
    args.d = train.d
    fitted = _fit_for(args, train, tagged)
    pts = read_points_csv(args.test)
    if pts.shape[1] != train.d:
        raise CsvFormatError(
            f"{args.test}: test dimension {pts.shape[1]} != training dimension {train.d}")
    labels = fitted.predict_batch(pts)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_feature_header(train.d) + ["y_pred"])
        for x, y in zip(pts, labels):
            w.writerow([_fmt(v) for v in x] + [str(y)])
    config = dict(command="predict", method=args.method, train=str(args.train),
                  test=str(args.test), out=str(args.out), gamma=args.gamma,
                  beta=args.beta, alpha=args.alpha, k=args.k, pool=args.pool,
                  lepski_width=args.lepski_width)
    write_manifest(args.out, argv, 0, started, config)
    print(f"wrote {args.out} ({len(labels)} predictions)")
    return 0


def _cmd_eval(args, argv) -> int:
    started = _now()
    if args.pmax is None:
        raise UsageError("eval needs --pmax to define the analytic model")
    if not (0.5 < args.pmax <= 1.0):
        raise UsageError("--pmax must lie in (0.5, 1]")
    if args.n_test < 1:
        raise UsageError("--n-test must be >= 1")
    if args.nmc < 2:
        raise UsageError("--nmc must be >= 2")
    train, _ = _read_train(args.train)
    args.d = train.d
    gamma = _gammas(args, train.m)
    if isinstance(gamma, tuple) and args.gamma_sim is None:
        raise UsageError("a per-source --gamma needs --gamma-sim (the model has one exponent)")
    hp = _hyperparams(args, gamma)
    gamma_sim = args.gamma_sim if args.gamma_sim is not None else gamma
    model = make_drift_model(args.pmax, gamma_sim, train.d)
    fitted = fit_method(args.method, train, hp, args.lepski_width)
    rs = RandomSource(args.seed).substream(_EXPERIMENT_STREAM_IDS["eval"])
    test = sample_test_points(model.x_c, args.radius, args.n_test, rs.substream(0))
    acc = classification_accuracy(fitted.predict_batch, model, test)
    est = excess_risk_mc(fitted.predict_batch, model, args.nmc, rs.substream(1))
    print(f"method={args.method} n_p={train.n_p} n_q={train.n_q} d={train.d}")
    print(f"accuracy (vs oracle, {args.n_test} ball test points) = {acc:.4f}")
    print(f"excess risk (MC, n={args.nmc}) = {est.value:.6e} +- {est.std_error:.2e}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "p_max", "gamma_sim", "gamma", "beta", "alpha", "d",
                        "n_p", "n_q", "n_test", "accuracy", "excess_risk",
                        "excess_risk_se", "n_mc", "seed"])
            w.writerow([args.method, repr(args.pmax), repr(float(gamma_sim)),
                        ",".join(map(repr, gamma)) if isinstance(gamma, tuple) else repr(gamma),
                        repr(args.beta), repr(args.alpha), train.d,
                        train.n_p, train.n_q, args.n_test, repr(acc), repr(est.value),
                        repr(est.std_error), args.nmc, args.seed])
        config = dict(command="eval", method=args.method, train=str(args.train),
                      pmax=args.pmax, gamma_sim=gamma_sim, gamma=gamma,
                      beta=args.beta, alpha=args.alpha, n_test=args.n_test,
                      radius=args.radius, nmc=args.nmc, seed=args.seed, out=str(args.out))
        write_manifest(args.out, argv, args.seed, started, config)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "rate-check": _cmd_rate_check,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
}


def run_cli(argv: list[str] | None = None) -> int:
    """Parse and run one command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args, argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CsvFormatError, OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
