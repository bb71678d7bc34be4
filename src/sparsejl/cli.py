"""Command-line front end: plan, build, transform, verify, bounds, check."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import oracle, planner, transform
from ._csvtext import csv_text
from .errors import BudgetError, DomainError, SparseJLError, check_int

_VALIDATION_EXIT = 1
_RUNTIME_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad flags as validation errors (exit 1)."""

    def error(self, message):
        raise _UsageError(message)


def read_vectors(path) -> list[np.ndarray]:
    """Read one comma-separated vector per line; blank lines are skipped.

    Lines with a non-ASCII character or a digit separator are rejected, not
    coerced: ``float()`` reads Arabic-Indic digits as digits, a no-break
    space as a space and "1_0" as 10.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                text = line.strip()
                if not text and line.isascii():
                    continue
                try:
                    if "_" in text or not line.isascii():
                        raise ValueError
                    vec = np.array([float(tok) for tok in text.split(",")])
                except ValueError:
                    raise DomainError(f"{path}:{lineno}: not a comma-separated list of numbers") from None
                if not np.isfinite(vec).all():
                    raise DomainError(f"{path}:{lineno}: vector entries must be finite")
                out.append(vec)
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return out


def write_vectors(path, vectors) -> None:
    """Write one comma-separated vector per line.

    Each value is written as ``repr`` of it as a float64, the shortest text
    that reads back to the same double, so the file is byte-stable.  The
    text is computed in blocks (see ``_csvtext``) and is byte for byte the
    per-value ``repr`` join.  Vectors may differ in length; each must be a
    non-empty 1-D sequence of real numbers, else ``DomainError`` names its
    index.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(csv_text(vectors))


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        keys = list(obj)
        print(",".join(keys))
        print(",".join(repr(obj[k]) if isinstance(obj[k], float) else str(obj[k]) for k in keys))


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "little")
    print(f"seed: {seed}")
    return seed


def _cmd_plan(args) -> int:
    result = planner.min_dimension(planner.PlanRequest(args.eps, args.delta, args.p))
    _emit(asdict(result), args.format)
    return 0


def _cmd_build(args) -> int:
    seed = _resolve_seed(args.seed)
    matrix = transform.build_matrix(args.n, args.m, args.s, seed)
    transform.write_matrix(args.out, matrix, fmt=args.format)
    print(f"wrote {args.out}: {matrix.m}x{matrix.n} matrix, s={matrix.s}")
    return 0


def _cmd_transform(args) -> int:
    matrix = transform.read_matrix(args.matrix)
    vectors = read_vectors(args.infile)
    write_vectors(args.out, transform.apply_batch(matrix, vectors))
    print(f"wrote {args.out}: {len(vectors)} vectors of dimension {matrix.m}")
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.x_file is not None:
        vectors = read_vectors(args.x_file)
        if len(vectors) != 1:
            raise _UsageError(f"--x-file: expected exactly one vector, got {len(vectors)}")
        x = vectors[0]
    else:
        n = check_int("n", args.n, 1)
        x = np.full(n, 1.0 / math.sqrt(n))
    report = oracle.estimate_failure_prob(args.n, args.m, args.s, x, args.eps, args.trials, seed)
    _emit(asdict(report), args.format)
    return 0


def _cmd_bounds(args) -> int:
    rows = planner.bounds_table(args.eps, args.delta, args.p, args.B, constant=args.constant)
    if args.format == "csv":
        sys.stdout.write(planner.bounds_to_csv(rows))
    else:
        # A non-finite value (an invalid row) is null: NaN and Infinity are not JSON.
        rows = [dict(asdict(r), value=r.value if math.isfinite(r.value) else None) for r in rows]
        print(json.dumps(rows, sort_keys=True))
    return 0


def _check_line(ok: bool, label: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def _cmd_check(args) -> int:
    # Checked before the first oracle prints its line.  A sweep without
    # q >= 2 checks nothing.
    qmax = check_int("--qmax", args.qmax, 1)
    grid_points = check_int("--grid-points", args.grid_points, 1)
    moment_qmax = check_int("--moment-qmax", args.moment_qmax, 2, oracle.MAX_MOMENT_ORDER)
    results = []

    rep = oracle.check_multinomial_inequality(qmax)
    results.append(_check_line(
        rep.ok, "multinomial inequality",
        f"{rep.total_checked} compositions up to q_max={rep.q_max}, "
        f"{len(rep.violations)} violations, central binomials "
        f"{'ok' if rep.central_binomial_ok else 'violated'}",
    ))

    for p in (1.0 / 100.0, 1.0 / 30.0):
        env = oracle.check_psi_envelope(p, grid_points=grid_points)
        results.append(_check_line(
            env.ok, f"psi envelope p={p:.6g} K={env.scale:g}",
            f"max violation {env.max_violation:.3e} over {env.grid_points} points",
        ))

    points, residual = oracle.chernoff_residual_grid()
    results.append(_check_line(
        residual <= 1e-12, "Chernoff optimizer identity",
        f"max residual {residual:.3e} over {points} points",
    ))

    rng = np.random.default_rng(20240817)
    worst_gap = -math.inf
    checked = 0
    for n in range(2, 6):
        for _ in range(3):
            x = rng.standard_normal(n)
            x /= math.sqrt(float(np.dot(x, x)))
            for p in (1.0 / 30.0, 0.1):
                for q in range(2, moment_qmax + 1):
                    exact = oracle.exact_moment_Z(oracle.MomentSpec(tuple(x), p, q))
                    bound = oracle.moment_bound_rhs(p, q)
                    worst_gap = max(worst_gap, exact - bound * (1.0 + 1e-12))
                    checked += 1
    results.append(_check_line(
        worst_gap <= 0.0, "moment bound domination",
        f"{checked} exact moments, worst excess {worst_gap:.3e}",
    ))

    passed = sum(results)
    print(f"SUMMARY: {passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else _VALIDATION_EXIT


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsejl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="minimal certified embedding dimension")
    plan.add_argument("--eps", type=float, required=True, help="distortion in (0,1)")
    plan.add_argument("--delta", type=float, required=True, help="failure probability in (0,1)")
    plan.add_argument("--p", type=float, required=True, help="sparsity fraction in (0,1/30]")
    plan.add_argument("--format", choices=("json", "csv"), default="json")
    plan.set_defaults(func=_cmd_plan)

    build = sub.add_parser("build", help="construct and write a projection matrix")
    build.add_argument("--n", type=int, required=True, help="data dimension")
    build.add_argument("--m", type=int, required=True, help="embedding dimension")
    build.add_argument("--s", type=int, required=True, help="nonzeros per column")
    build.add_argument("--seed", type=int, default=None, help="64-bit seed (generated and printed if omitted)")
    build.add_argument("--out", required=True, help="output matrix file")
    build.add_argument("--format", choices=("binary", "json"), default="binary")
    build.set_defaults(func=_cmd_build)

    tr = sub.add_parser("transform", help="apply a stored matrix to a vector file")
    tr.add_argument("--matrix", required=True, help="matrix file (binary or JSON)")
    tr.add_argument("--in", dest="infile", required=True, help="input vectors, one comma-separated vector per line")
    tr.add_argument("--out", required=True, help="output vector file")
    tr.set_defaults(func=_cmd_transform)

    verify = sub.add_parser("verify", help="Monte Carlo failure-probability estimate")
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--s", type=int, required=True)
    verify.add_argument("--eps", type=float, required=True)
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, default=None, help="64-bit seed (generated and printed if omitted)")
    verify.add_argument("--x-file", default=None, help="unit vector to project (default: uniform unit vector)")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.set_defaults(func=_cmd_verify)

    bounds = sub.add_parser("bounds", help="tabulate published dimension bounds")
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--delta", type=float, required=True)
    bounds.add_argument("--p", type=float, required=True)
    bounds.add_argument("--B", type=float, default=math.e, help="tradeoff parameter for the matrix-Chernoff row (> 2)")
    bounds.add_argument("--constant", type=float, default=1.0, help="multiplier for rows with unspecified constants")
    bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    bounds.set_defaults(func=_cmd_bounds)

    check = sub.add_parser("check", help="run the verification oracle suite")
    check.add_argument("--qmax", type=int, default=8, help="multinomial inequality exhaustion order")
    check.add_argument("--grid-points", type=int, default=10_000, help="psi envelope grid resolution")
    check.add_argument("--moment-qmax", type=int, default=5, help="highest moment order in the sweep")
    check.set_defaults(func=_cmd_check)
    return parser


def run(argv) -> int:
    """Parse and dispatch; returns the exit code, 1 for a rejected input and 2 for a runtime failure."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (BudgetError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return _RUNTIME_EXIT
    except (_UsageError, SparseJLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
