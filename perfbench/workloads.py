"""Workloads of the sparsejl benchmark: inputs, timed steps and output checks.

Each workload is a closed loop with one client: a cycle runs its steps in
order, each step one call into the package's public API, and the next cycle
starts when the last step returns.  Every cycle does the same work on the
same inputs, so a cycle's outputs must repeat exactly.  The first result of
each step is verified in full; later results must match it byte for byte.
At the default seed and full shape, results must also equal the values
pinned in ``expected.json``: files by sha256, counts exactly, floats to a
relative 1e-9 (oracle values come from cancelling sums that are only that
accurate, so a change of summation order may move them at that level).

Why these workloads (BENCHMARK.json carries the short form):

- ``embed_readme``: the practitioner path at the README shape through
  ``cli.run``: ``build`` with a binary matrix, then ``transform`` of a
  seeded Gaussian batch.  The sampler at large s, ``apply_batch``, the
  binary codec and CSV I/O do the work; Monte Carlo and the exact oracles
  are idle.
- ``codec_readme``: binary and JSON write/read of the README matrix.  The
  JSON codec costs about three times the build-and-transform path, so it
  runs apart from ``embed_readme`` to keep that path visible end to end.
- ``certify_desk``: acceptance criterion 3: plan (eps, delta, p) =
  (0.08, 0.5, 1/30), then a Monte Carlo failure estimate at n=64.  Stream
  draws, ``sample_columns`` over thousands of one-column lanes and the
  Monte Carlo scatter dominate; the apply kernel, codecs and CSV are idle.
- ``oracle_suite``: the exact oracles at acceptance parameters.  Pure
  enumeration in ``oracle`` and ``concentration``; ``streams`` and
  ``transform`` are idle, so it is the control for sampler and kernel
  changes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betaincinv

from sparsejl import cli, oracle, planner, streams, transform

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")
PIN_RTOL, PIN_ATOL = 1e-9, 1e-15
PROJECTION_RTOL = 1e-12
# Column sampling keeps its (lanes, m) index table within this many entries.
SAMPLER_TABLE_ENTRIES = 1 << 24


class CheckFailed(Exception):
    """An output of a timed step is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_csv(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_csv(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([[float(tok) for tok in line.split(",")] for line in fh if line.strip()])


def same_values(observed, expected, where: str = "") -> None:
    """Floats agree to PIN_RTOL (PIN_ATOL near zero); all other values must be equal."""
    if isinstance(expected, dict):
        require(isinstance(observed, dict) and observed.keys() == expected.keys(), f"{where}: keys differ")
        for key in expected:
            same_values(observed[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        require(isinstance(observed, (list, tuple)) and len(observed) == len(expected), f"{where}: length differs")
        for i, (o, e) in enumerate(zip(observed, expected)):
            same_values(o, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        require(math.isclose(observed, expected, rel_tol=PIN_RTOL, abs_tol=PIN_ATOL),
                f"{where}: {observed!r} != pinned {expected!r}")
    else:
        require(observed == expected, f"{where}: {observed!r} != pinned {expected!r}")


def run_cli(*argv: str) -> str:
    """Run a CLI command in-process; returns its stdout, fails on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    if code != 0:
        raise CheckFailed(f"sparsejl {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class Workload:
    """Inputs, steps and checks of one workload at one seed.

    ``prepare`` writes the inputs (it runs in a fresh interpreter during
    set-up), ``load`` reads them in the workload process, ``steps`` lists
    the timed calls and ``verify`` checks a step's first result.
    """

    name = ""
    full: object
    tiny: object

    def __init__(self, work: Path, seed: int, tiny: bool = False):
        self.work, self.seed, self.is_tiny = work, seed, tiny
        self.shape = self.tiny if tiny else self.full
        self._verified: dict[str, object] = {}

    @property
    def pinned(self) -> dict | None:
        if self.is_tiny or self.seed != DEFAULT_SEED:
            return None
        return json.loads(EXPECTED_PATH.read_text())[self.name]

    def prepare(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def steps(self) -> list:
        raise NotImplementedError

    def fingerprint(self, step: str, result):
        """Value that must repeat exactly across cycles."""
        return result

    def observed(self, step: str, result) -> dict:
        """Values of a step's result that are pinned at the default seed."""
        return {}

    def verify(self, step: str, result) -> None:
        raise NotImplementedError

    def check(self, step: str, result) -> None:
        fp = self.fingerprint(step, result)
        if step in self._verified:
            require(fp == self._verified[step], f"{step}: output differs from the verified first cycle")
            return
        self.verify(step, result)
        if self.pinned is not None:
            same_values(self.observed(step, result), self.pinned[step], f"{self.name}.{step}")
        self._verified[step] = fp

    def summary(self, step_s: dict[str, float]) -> dict[str, float]:
        """Named figures of this workload, from median step times."""
        return {}

    def working_set(self) -> dict[str, int]:
        return {}


@dataclass(frozen=True)
class MatrixShape:
    n: int
    m: int
    s: int
    batch: int = 0


def _sampler_table_bytes(lanes: int, m: int) -> int:
    return min(lanes, max(1, SAMPLER_TABLE_ENTRIES // m)) * m * 4


class EmbedReadme(Workload):
    name = "embed_readme"
    full = MatrixShape(1000, 57842, 1928, batch=16)
    tiny = MatrixShape(12, 40, 5, batch=3)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        write_csv(self.work / "x.csv", rng.standard_normal((self.shape.batch, self.shape.n)))

    def load(self) -> None:
        self.x = read_csv(self.work / "x.csv")

    def steps(self) -> list:
        sh, w = self.shape, self.work
        return [
            ("build", lambda: run_cli("build", "--n", str(sh.n), "--m", str(sh.m), "--s", str(sh.s),
                                      "--seed", str(self.seed), "--out", str(w / "A.bin"))),
            ("transform", lambda: run_cli("transform", "--matrix", str(w / "A.bin"),
                                          "--in", str(w / "x.csv"), "--out", str(w / "y.csv"))),
        ]

    def _output(self, step: str) -> Path:
        return self.work / ("A.bin" if step == "build" else "y.csv")

    def fingerprint(self, step: str, result):
        return sha256_file(self._output(step))

    def observed(self, step: str, result) -> dict:
        key = "matrix_sha256" if step == "build" else "projected_sha256"
        return {key: sha256_file(self._output(step))}

    @functools.cached_property
    def reference(self) -> transform.SparseJLMatrix:
        """``build_matrix`` output, validated and spot-checked against the scalar sampler."""
        sh = self.shape
        ref = transform.build_matrix(sh.n, sh.m, sh.s, self.seed)
        ref.validate()
        for c in sorted({0, sh.n // 2, sh.n - 1}):
            rows, signs = transform.sample_column_scalar(sh.m, sh.s, streams.substream(self.seed, c))
            require(ref.rows[c].tolist() == rows and ref.signs[c].tolist() == signs,
                    f"column {c} differs from the scalar sampler")
        return ref

    def verify(self, step: str, result) -> None:
        ref = self.reference
        if step == "build":
            built = transform.deserialize((self.work / "A.bin").read_bytes())
            built.validate()
            require(built == ref, "binary round trip of the built matrix differs from build_matrix")
            return
        y = read_csv(self.work / "y.csv")
        require(y.shape == (self.shape.batch, self.shape.m), f"projected batch has shape {y.shape}")
        expect, magnitude = dense_product(ref, self.x)
        err = np.abs(y - expect)
        require(bool((err <= PROJECTION_RTOL * magnitude).all()),
                f"projection differs from the dense reference by up to {float(err.max()):.3e}")

    def summary(self, step_s: dict[str, float]) -> dict[str, float]:
        return {"build_s": step_s["build"], "transform_s": step_s["transform"]}

    def working_set(self) -> dict[str, int]:
        sh = self.shape
        return {"matrix_entry_bytes": sh.n * sh.s * 5, "sampler_table_bytes": _sampler_table_bytes(sh.n, sh.m)}


def dense_product(matrix: transform.SparseJLMatrix, x: np.ndarray, block: int = 16):
    """A x for each row of x through dense column blocks, plus |A| |x|.

    The second array bounds the rounding error of any summation order.
    """
    n, m, s = matrix.n, matrix.m, matrix.s
    out = np.zeros((x.shape[0], m))
    magnitude = np.zeros((x.shape[0], m))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        dense = np.zeros((m, hi - lo))
        dense[matrix.rows[lo:hi].ravel(), np.repeat(np.arange(hi - lo), s)] = matrix.signs[lo:hi].ravel()
        dense *= matrix.scale
        out += x[:, lo:hi] @ dense.T
        magnitude += np.abs(x[:, lo:hi]) @ np.abs(dense).T
    return out, magnitude


class CodecReadme(Workload):
    name = "codec_readme"
    full = MatrixShape(1000, 57842, 1928)
    tiny = MatrixShape(12, 40, 5)

    def prepare(self) -> None:
        sh = self.shape
        transform.write_matrix(self.work / "input.bin", transform.build_matrix(sh.n, sh.m, sh.s, self.seed))

    def load(self) -> None:
        self.matrix = transform.read_matrix(self.work / "input.bin")

    formats = {"binary_roundtrip": "binary", "json_roundtrip": "json"}

    def steps(self) -> list:
        return [(step, functools.partial(self._roundtrip, step)) for step in self.formats]

    def _path(self, step: str) -> Path:
        return self.work / f"roundtrip.{self.formats[step]}"

    def _roundtrip(self, step: str) -> transform.SparseJLMatrix:
        transform.write_matrix(self._path(step), self.matrix, fmt=self.formats[step])
        return transform.read_matrix(self._path(step))

    def fingerprint(self, step: str, result):
        require(result == self.matrix, f"{step}: read-back matrix differs from the written one")
        return sha256_file(self._path(step))

    def observed(self, step: str, result) -> dict:
        return {"file_sha256": sha256_file(self._path(step))}

    @functools.cached_property
    def built(self) -> transform.SparseJLMatrix:
        sh = self.shape
        return transform.build_matrix(sh.n, sh.m, sh.s, self.seed)

    def verify(self, step: str, result) -> None:
        require(self.matrix == self.built, "input matrix differs from build_matrix")
        result.validate()
        require(result == self.built, f"{step}: read-back matrix differs from build_matrix")

    def summary(self, step_s: dict[str, float]) -> dict[str, float]:
        return {"json_roundtrip_s": step_s["json_roundtrip"], "binary_roundtrip_s": step_s["binary_roundtrip"]}

    def working_set(self) -> dict[str, int]:
        return {"matrix_entry_bytes": self.shape.n * self.shape.s * 5}


@dataclass(frozen=True)
class CertifyShape:
    eps: float
    delta: float
    p: float
    n: int
    trials: int


class CertifyDesk(Workload):
    name = "certify_desk"
    full = CertifyShape(0.08, 0.5, 1.0 / 30.0, n=64, trials=256)
    tiny = CertifyShape(0.08, 0.5, 1.0 / 30.0, n=8, trials=16)
    confidence = 0.99

    def prepare(self) -> None:
        n = self.shape.n
        write_csv(self.work / "x.csv", [np.full(n, 1.0 / math.sqrt(n))])

    def load(self) -> None:
        self.x = read_csv(self.work / "x.csv")[0]

    def steps(self) -> list:
        return [("certify", self._certify)]

    def _certify(self):
        sh = self.shape
        plan = planner.min_dimension(planner.PlanRequest(sh.eps, sh.delta, sh.p))
        report = oracle.estimate_failure_prob(sh.n, plan.m_min, plan.s_implied, self.x, sh.eps, sh.trials, self.seed)
        return plan, report

    def observed(self, step: str, result) -> dict:
        _, report = result
        return {"failures": report.failures, "ci_low": report.ci_low, "ci_high": report.ci_high}

    def verify(self, step: str, result) -> None:
        sh = self.shape
        plan, rep = result
        require((plan.m_min, plan.s_implied) == (8176, 273),
                f"plan gave m={plan.m_min}, s={plan.s_implied}; criterion 3 fixes 8176, 273")
        m, s, trials = plan.m_min, plan.s_implied, sh.trials
        require((rep.n, rep.m, rep.s, rep.trials, rep.seed) == (sh.n, m, s, trials, self.seed),
                "report parameters differ from the request")
        samples = oracle.squared_norm_samples(sh.n, m, s, self.x, trials, self.seed)
        for t in sorted({0, trials // 2, trials - 1}):
            y = transform.apply(transform.build_matrix(sh.n, m, s, streams.substream(self.seed, t)), self.x)
            require(float((y * y).sum()) == float(samples[t]), f"trial {t} differs from |A_t x|^2")
        failures = int(np.count_nonzero(np.abs(samples - 1.0) > sh.eps))
        require(rep.failures == failures, f"{rep.failures} failures reported, samples give {failures}")
        require(rep.p_hat == failures / trials, "p_hat is not failures / trials")
        alpha = 1.0 - self.confidence
        low = 0.0 if failures == 0 else float(betaincinv(failures, trials - failures + 1, alpha / 2))
        high = 1.0 if failures == trials else float(betaincinv(failures + 1, trials - failures, 1 - alpha / 2))
        require(math.isclose(rep.ci_low, low, rel_tol=1e-9, abs_tol=1e-15)
                and math.isclose(rep.ci_high, high, rel_tol=1e-9),
                f"interval ({rep.ci_low}, {rep.ci_high}) is not Clopper-Pearson ({low}, {high})")

    def summary(self, step_s: dict[str, float]) -> dict[str, float]:
        return {"mc_trials_per_s": self.shape.trials / step_s["certify"]}

    def working_set(self) -> dict[str, int]:
        m, n = 8176, self.shape.n
        trial_block = max(1, SAMPLER_TABLE_ENTRIES // (m * n))
        return {"sampler_table_bytes": _sampler_table_bytes(min(self.shape.trials, trial_block) * n, m),
                "scatter_bytes": min(self.shape.trials, trial_block) * m * 8}


@dataclass(frozen=True)
class SuiteShape:
    moment_dims: tuple[int, ...]
    moment_vectors: int
    moment_orders: tuple[int, ...]
    majorization_dims: tuple[int, ...]
    majorization_rows: tuple[int, ...]
    qmax: int
    grid_points: int


class OracleSuite(Workload):
    name = "oracle_suite"
    full = SuiteShape(tuple(range(2, 9)), 8, tuple(range(2, 7)), (1, 2, 3), (1, 2, 3, 4), 12, 10_000)
    tiny = SuiteShape((2, 3), 1, (2, 3), (1, 2), (1, 2), 6, 100)
    rates = (1.0 / 30.0, 0.1)
    envelope_rates = (1.0 / 100.0, 1.0 / 30.0)

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)

        def unit(n):
            x = rng.standard_normal(n)
            return (x / math.sqrt(float(x @ x))).tolist()

        sh = self.shape
        doc = {
            "moments": [unit(n) for n in sh.moment_dims for _ in range(sh.moment_vectors)],
            "majorization": [unit(n) for n in sh.majorization_dims],
        }
        (self.work / "vectors.json").write_text(json.dumps(doc))

    def load(self) -> None:
        doc = json.loads((self.work / "vectors.json").read_text())
        self.moment_x = [tuple(x) for x in doc["moments"]]
        self.majorization_x = [tuple(x) for x in doc["majorization"]]

    def steps(self) -> list:
        sh = self.shape
        return [
            ("moments", lambda: [oracle.exact_moment_Z(oracle.MomentSpec(x, p, q))
                                 for x in self.moment_x for p in self.rates for q in sh.moment_orders]),
            ("majorization", lambda: [list(oracle.check_majorization(oracle.MajorizationSpec(len(x), m, s, q, x)))
                                      for x in self.majorization_x for m in sh.majorization_rows
                                      for s in range(1, m + 1) for q in (2, 4)]),
            ("multinomial", lambda: oracle.check_multinomial_inequality(sh.qmax)),
            ("psi_envelope", lambda: [oracle.check_psi_envelope(p, grid_points=sh.grid_points)
                                      for p in self.envelope_rates]),
            ("chernoff", lambda: list(oracle.chernoff_residual_grid())),
        ]

    def observed(self, step: str, result) -> dict:
        if step == "multinomial":
            return {"total_checked": result.total_checked, "violations": len(result.violations)}
        if step == "psi_envelope":
            return {"reports": [[r.max_violation, r.worst_t, r.violation_count] for r in result]}
        return {"values": result}

    def verify(self, step: str, result) -> None:
        sh = self.shape
        if step == "moments":
            cases = [(x, p, q) for x in self.moment_x for p in self.rates for q in sh.moment_orders]
            require(len(result) == len(cases), "moment count")
            for (x, p, q), value in zip(cases, result):
                bound = 2**q * math.fsum(p**r * r**q for r in range(2, q + 1))
                require(math.isfinite(value) and value <= bound * (1.0 + 1e-12), f"E[Z^{q}] = {value} > {bound}")
                if q == 2:
                    # E[Z^2] = 2 p^2 sum_{i != j} x_i^2 x_j^2, summed without cancellation.
                    closed = 2.0 * p * p * math.fsum(a * a * b * b for i, a in enumerate(x)
                                                     for j, b in enumerate(x) if i != j)
                    require(math.isclose(value, closed, rel_tol=PIN_RTOL, abs_tol=1e-12 * p * p),
                            f"E[Z^2] = {value}, closed form {closed}")
        elif step == "majorization":
            for lhs, rhs in result:
                require(-1e-12 <= lhs <= rhs + 1e-12, f"majorization violated: {lhs} > {rhs}")
        elif step == "multinomial":
            require(result.ok, "multinomial inequality reported a violation")
            require(result.total_checked == 2**sh.qmax - 1, f"{result.total_checked} compositions checked")
        elif step == "psi_envelope":
            for rep in result:
                require(rep.ok and rep.grid_points == sh.grid_points, f"psi envelope at p={rep.p} not ok")
        else:
            points, residual = result
            require(points == 100 and residual <= 1e-12, f"Chernoff residual {residual} over {points} points")

    def summary(self, step_s: dict[str, float]) -> dict[str, float]:
        return {"check_s": sum(step_s.values())}

    def working_set(self) -> dict[str, int]:
        width = max(self.shape.majorization_dims) * max(self.shape.majorization_rows)
        return {"sign_table_bytes": (1 << width) * width * 8}


WORKLOADS = {cls.name: cls for cls in (EmbedReadme, CodecReadme, CertifyDesk, OracleSuite)}
