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
from .concentration import DEFAULT_ENVELOPE_SCALE
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
    space as a space and "1_0" as 10.  A file that starts with a UTF-8
    byte-order mark, as spreadsheet "CSV UTF-8" exports do, is rejected
    with ``path:1: starts with a UTF-8 byte-order mark``.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if lineno == 1 and line.startswith("\ufeff"):
                    raise DomainError(f"{path}:1: starts with a UTF-8 byte-order mark")
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
    text is computed in blocks (see ``_csvtext``) and written as bytes in
    binary mode, so the file is byte for byte the per-value ``repr`` join,
    with ``"\\n"`` line ends on every platform.  Vectors may differ in
    length; each must be a non-empty 1-D sequence of real numbers, else
    ``DomainError`` names its index before the file is opened, so an
    existing file is left as it was.  ``vectors`` that cannot be iterated
    raise ``DomainError`` the same way.
    """
    text = csv_text(vectors)
    with open(path, "wb") as fh:
        fh.writelines(text)


def _emit(records: dict | list[dict], fmt: str) -> None:
    """Print a record, or a list of records with the same keys, as JSON (a non-finite float is
    null: NaN and Infinity are not JSON) or as CSV: a header line of the keys, then a line a
    record, ``repr`` of a float and ``str`` of anything else."""
    one = isinstance(records, dict)
    rows = [records] if one else records
    if fmt == "json":
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
                for row in rows]
        print(json.dumps(rows[0] if one else rows, sort_keys=True))
    else:
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()))


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
    _emit([asdict(row) for row in planner.bounds_table(args.eps, args.delta, args.p)], args.format)
    return 0


def _multinomial(args) -> tuple[bool, str]:
    rep = oracle.check_multinomial_inequality(args.qmax)
    return rep.ok, (f"{rep.total_checked} compositions up to q_max={rep.q_max}, {len(rep.violations)} violations, "
                    f"central binomials {'ok' if rep.central_binomial_ok else 'violated'}")


def _psi_envelope(p: float):
    """The table entry that checks the psi envelope at ``p`` on ``--grid-points`` points."""
    def check(args) -> tuple[bool, str]:
        env = oracle.check_psi_envelope(p, DEFAULT_ENVELOPE_SCALE, grid_points=args.grid_points)
        return env.ok, f"max violation {env.max_violation:.3e} over {env.grid_points} points"
    return f"psi envelope p={p:.6g} K={DEFAULT_ENVELOPE_SCALE:g}", check


def _chernoff(args) -> tuple[bool, str]:
    points, residual = oracle.chernoff_residual_grid()
    return residual <= 1e-12, f"max residual {residual:.3e} over {points} points"


def _moment_domination(args) -> tuple[bool, str]:
    """Exact E[Z^q] against ``moment_bound_rhs(p, q)`` for q = 2..``--moment-qmax`` and p in
    {1/30, 0.1}, at three unit vectors for each n = 2..5 drawn from seed 20240817."""
    rng = np.random.default_rng(20240817)
    worst_gap = -math.inf
    checked = 0
    for n in range(2, 6):
        for _ in range(3):
            x = rng.standard_normal(n)
            x /= math.sqrt(float(np.dot(x, x)))
            for p in (1.0 / 30.0, 0.1):
                for q in range(2, args.moment_qmax + 1):
                    exact = oracle.exact_moment_Z(oracle.MomentSpec(tuple(x), p, q))
                    worst_gap = max(worst_gap, exact - oracle.moment_bound_rhs(p, q) * (1.0 + 1e-12))
                    checked += 1
    return worst_gap <= 0.0, f"{checked} exact moments, worst excess {worst_gap:.3e}"


# The `check` suite in print order: (label, function of the parsed flags
# returning (ok, detail)).  A new check is one more entry.  The functions look
# up each oracle when they run, so a patched or wrapped oracle is the one called.
_CHECKS = [
    ("multinomial inequality", _multinomial),
    _psi_envelope(1.0 / 100.0),
    _psi_envelope(1.0 / 30.0),
    ("Chernoff optimizer identity", _chernoff),
    ("moment bound domination", _moment_domination),
]


def _cmd_check(args) -> int:
    # Checked before the first line prints.  A sweep without q >= 2 checks nothing.
    check_int("--qmax", args.qmax, 1)
    oracle._check_grid_points("--grid-points", args.grid_points)
    check_int("--moment-qmax", args.moment_qmax, 2, oracle.MAX_MOMENT_ORDER)
    passed = 0
    for label, check in _CHECKS:
        ok, detail = check(args)
        print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
        passed += bool(ok)
    print(f"SUMMARY: {passed}/{len(_CHECKS)} checks passed")
    return 0 if passed == len(_CHECKS) else _VALIDATION_EXIT


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

    bounds = sub.add_parser("bounds", help="certified dimension beside the Gaussian reference and a published bound")
    bounds.add_argument("--eps", type=float, required=True, help="distortion in (0,1)")
    bounds.add_argument("--delta", type=float, required=True, help="failure probability in (0,1)")
    bounds.add_argument("--p", type=float, required=True, help="sparsity fraction in (0,1]")
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
