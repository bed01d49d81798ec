"""The three benchmark workloads: their inputs, their ops and their output checks.

An op is one ``driftknn`` CLI invocation. A workload run is a fixed,
seed-determined sequence of cycles of ops; ``cycle(i)`` gives cycle i.
Each workload puts its main cost on a different layer:

* ``sim-fig5a``: fit-heavy. Every replication draws a fresh dataset and
  classifies one point with adaptive and both Lepski baselines; the signal
  is weak, so the adaptive scan runs its full length. Ordering
  (``merged_order``, ``NeighborIndex.sorted_order``) dominates; no kd-tree,
  no Monte Carlo, almost no CSV I/O.
* ``rate-check``: the batch path. ``NeighborIndex.query_batch`` (cKDTree)
  and the ``excess_risk_mc`` draws dominate; continuous data, so kd
  reroutes are rare; never calls the merged order or the scans.
* ``predict-lattice``: query-heavy. One 7000-row training CSV on a dyadic
  1/128 lattice with a strong signal, many queries. Distance ties are exact
  and common, the adaptive scan stops early, every op pays the CSV read.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import reference


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    argv: list[str]
    items: int
    out: Path
    expect: dict = field(default_factory=dict)


def op_seed(seed: int, i: int) -> int:
    """CLI seed of cycle i, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {text!r}")
    return v


class SimFig5a:
    name = "sim-fig5a"
    item_unit = "replication x method fits"

    PMAX = tuple(round(0.505 + 0.005 * i, 3) for i in range(10))
    METHODS = ("adaptive", "lepski-combined", "lepski-q")
    REPS = 20

    def prepare(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def cycle(self, i: int) -> list[Op]:
        p_max = self.PMAX[i % len(self.PMAX)]
        out = self.work / "sim.csv"
        argv = ["simulate", "fig5a", "--out", str(out), "--seed", str(op_seed(self.seed, i)),
                "--reps", str(self.REPS), "--pmax", repr(p_max)]
        return [Op(argv, self.REPS * len(self.METHODS), out, {"p_max": p_max})]

    def check(self, op: Op, stdout: str) -> None:
        rows = _read_rows(op.out)
        methods = [r["method"] for r in rows]
        if sorted(methods) != sorted(self.METHODS):
            raise ValueError(f"methods {methods}, expected {list(self.METHODS)}")
        for r in rows:
            if float(r["p_max"]) != op.expect["p_max"] or int(r["reps"]) != self.REPS:
                raise ValueError(f"row {r} does not match p_max/reps of the op")
            if (int(r["n_p"]), int(r["n_q"])) != (2000, 5000):
                raise ValueError(f"row {r} has unexpected sample sizes")
            acc, se = _finite(r["accuracy_mean"]), _finite(r["accuracy_se"])
            if not (0.0 <= acc <= 1.0) or se < 0:
                raise ValueError(f"accuracy {acc} (se {se}) out of range")


class RateCheck:
    name = "rate-check"
    item_unit = "Monte Carlo points"

    SIZES = (500, 1000, 2000, 4000, 8000, 16000)
    # About 3% of replications at n = 500 and 1000 classify the whole signal
    # ball correctly (zero risk). With 2 reps both can, and rate-check then
    # rightly refuses to fit a slope (about 1 op in 700); 4 reps make that
    # about 1 op in 10^6.
    REPS = 4
    NMC = 25_000
    _RISK = re.compile(r"^n=(\d+)\s+mean excess risk = (\S+)$", re.M)
    _SLOPE = re.compile(r"^fitted slope\s+= (\S+)$", re.M)

    def prepare(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def cycle(self, i: int) -> list[Op]:
        out = self.work / "rate.csv"
        argv = ["rate-check", "--seed", str(op_seed(self.seed, i)), "--reps", str(self.REPS),
                "--nmc", str(self.NMC), "--out", str(out)]
        return [Op(argv, self.NMC * self.REPS * len(self.SIZES), out)]

    def check(self, op: Op, stdout: str) -> None:
        risks = self._RISK.findall(stdout)
        if tuple(int(n) for n, _ in risks) != self.SIZES:
            raise ValueError(f"mean risks reported for sizes {[n for n, _ in risks]}")
        if any(_finite(v) <= 0 for _, v in risks):
            raise ValueError("a mean excess risk is not positive")
        slope = self._SLOPE.findall(stdout)
        if len(slope) != 1:
            raise ValueError("no fitted slope in the output")
        _finite(slope[0])
        rows = _read_rows(op.out)
        if len(rows) != self.REPS * len(self.SIZES):
            raise ValueError(f"{len(rows)} records, expected {self.REPS * len(self.SIZES)}")
        for r in rows:
            if r["experiment"] != "rate-q" or int(r["n_q"]) not in self.SIZES:
                raise ValueError(f"unexpected record {r}")
            if _finite(r["excess_risk"]) < 0:
                raise ValueError(f"negative excess risk in {r}")


class PredictLattice:
    name = "predict-lattice"
    item_unit = "predictions"

    GRID = 128
    N_P, N_Q, N_QUERY = 2000, 5000, 40
    P_MAX, GAMMA = 1.0, 0.3
    METHODS = {
        "adaptive": ["--method", "adaptive"],
        "weighted": ["--method", "weighted", "--gamma", repr(GAMMA)],
        "lepski": ["--method", "lepski", "--pool"],
    }

    def _lattice(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, self.GRID + 1, size=(n, 2)) / self.GRID

    def _labels(self, rng: np.random.Generator, pts: np.ndarray, source: bool) -> np.ndarray:
        # Cone model: eta_Q = max(p_max - |x - center|, 1/2), and the source
        # posterior 1/2 + (eta_Q - 1/2)^gamma.
        eta = np.maximum(self.P_MAX - np.sqrt(((pts - 0.5) ** 2).sum(axis=1)), 0.5)
        if source:
            eta = 0.5 + (eta - 0.5) ** self.GAMMA
        return (rng.random(len(pts)) < eta).astype(np.int64)

    def prepare(self, work: Path, seed: int) -> None:
        """Draw the training set and queries with the benchmark's own
        generator and write them as CSV; the CLI sees only these files."""
        self.work = work
        rng = np.random.default_rng(seed)
        self.p_pts = self._lattice(rng, self.N_P)
        self.p_lab = self._labels(rng, self.p_pts, source=True)
        self.q_pts = self._lattice(rng, self.N_Q)
        self.q_lab = self._labels(rng, self.q_pts, source=False)
        self.queries = self._lattice(rng, self.N_QUERY)
        self.train, self.test = work / "train.csv", work / "query.csv"
        with open(self.train, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1", "y", "origin"])
            for tag, pts, lab in (("P", self.p_pts, self.p_lab), ("Q", self.q_pts, self.q_lab)):
                w.writerows([repr(a), repr(b), y, tag]
                            for (a, b), y in zip(pts.tolist(), lab.tolist()))
        with open(self.test, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "x1"])
            w.writerows([repr(a), repr(b)] for a, b in self.queries.tolist())
        self.expected = None

    def build_reference(self) -> None:
        self.expected = reference.reference_labels(
            self.p_pts, self.p_lab, self.q_pts, self.q_lab, self.queries, self.GAMMA)

    def cycle(self, i: int) -> list[Op]:
        ops = []
        for method, flags in self.METHODS.items():
            out = self.work / f"pred_{method}.csv"
            argv = ["predict", *flags, "--train", str(self.train), "--test", str(self.test),
                    "--out", str(out)]
            ops.append(Op(argv, self.N_QUERY, out, {"method": method}))
        return ops

    def check(self, op: Op, stdout: str) -> None:
        if self.expected is None:
            self.build_reference()
        rows = _read_rows(op.out)
        if len(rows) != self.N_QUERY:
            raise ValueError(f"{len(rows)} predictions, expected {self.N_QUERY}")
        pts = np.array([[float(r["x0"]), float(r["x1"])] for r in rows])
        if not np.array_equal(pts, self.queries):
            raise ValueError("prediction rows do not echo the query points")
        got = np.array([int(r["y_pred"]) for r in rows])
        want = self.expected[op.expect["method"]]
        bad = np.flatnonzero(got != want)
        if bad.size:
            raise ValueError(f"{bad.size} labels differ from the reference, first at row "
                             f"{int(bad[0])}: got {int(got[bad[0]])}, want {int(want[bad[0]])}")


WORKLOADS = {w.name: w for w in (SimFig5a, RateCheck, PredictLattice)}
