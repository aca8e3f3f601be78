"""Batch front-end: parse a portfolio config, run a command, emit a report.

Config files are sectioned key-value text::

    [factors]
    kind = brownian, mu = 0.0, sigma = 1.0
    kind = gamma, a = 2.0, b = 3.0, mu = 0.0

    [matrix]
    1.0 0.5
    0.0 1.0

    [premiums]
    0.1
    0.2

    [run]
    T = 1.0
    beta = 0.05

    # optional, tabulated weight density (default is uniform)
    [weight]
    0.0 0.5
    1.0 1.5

Exit codes: 0 success, 2 parse/validation error in the config, 3 solver
non-attainment, 4 quadrature budget exceeded, 5 validation-suite failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, TextIO

import numpy as np

from .allocation import FactorPortfolio, allocate
from .cevar import CevarQuery, WeightFunction, cevar
from .errors import ConfigError, NoStationaryPointError, QuadratureBudgetError
from .evar import EvarQuery, evar
from .factors import factor_from_dict
from .montecarlo import SimulationConfig, validation_report

__all__ = ["parse_config", "serialize_portfolio", "run", "main"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STATIONARY = 3
EXIT_QUAD_BUDGET = 4
EXIT_VALIDATION = 5

COMMANDS = ("evar", "cevar", "allocate", "validate", "curve")
FORMATS = ("json", "csv", "table")


def parse_config(text: str):
    """Parse config text into (FactorPortfolio, run-options dict).

    Errors carry the offending line number.
    """
    sections = {"factors": [], "matrix": [], "premiums": [], "run": [], "weight": []}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = name
            continue
        if current is None:
            raise ConfigError("content before any [section] header", line=lineno)
        sections[current].append((lineno, line))

    factors = []
    for lineno, line in sections["factors"]:
        spec = {}
        for part in line.split(","):
            if "=" not in part:
                raise ConfigError(
                    f"expected key = value pairs in factor line, got {part.strip()!r}",
                    line=lineno,
                )
            key, value = part.split("=", 1)
            spec[key.strip()] = value.strip()
        try:
            factors.append(factor_from_dict(spec))
        except ValueError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
    if not factors:
        raise ConfigError("[factors] section is empty or missing")

    rows = []
    for lineno, line in sections["matrix"]:
        try:
            rows.append([float(v) for v in line.split()])
        except ValueError as exc:
            raise ConfigError(f"bad matrix entry: {exc}", line=lineno) from exc
        if len(rows[-1]) != len(factors):
            raise ConfigError(
                f"matrix row has {len(rows[-1])} entries but there are "
                f"{len(factors)} factors",
                line=lineno,
            )
    if not rows:
        raise ConfigError("[matrix] section is empty or missing")

    premiums = []
    for lineno, line in sections["premiums"]:
        try:
            premiums.extend(float(v) for v in line.split())
        except ValueError as exc:
            raise ConfigError(f"bad premium entry: {exc}", line=lineno) from exc
    if len(premiums) != len(rows):
        raise ConfigError(
            f"{len(premiums)} premiums given for {len(rows)} matrix rows"
        )

    run: dict = {}
    for lineno, line in sections["run"]:
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, value = (p.strip() for p in line.split("=", 1))
        run[key] = (lineno, value)

    def take(key, convert, default=None):
        if key not in run:
            if default is None:
                raise ConfigError(f"[run] section must set {key}")
            return default
        lineno, value = run.pop(key)
        try:
            return convert(value)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ConfigError(f"{key} must be {kind}, got {value!r}", line=lineno) from None

    T = take("T", float)
    beta = take("beta", float)
    seed = take("seed", int, 0)
    n_paths = take("n_paths", int, 100_000)
    if run:
        raise ConfigError(f"unknown [run] key(s): {sorted(run)}")

    weight = WeightFunction()
    if sections["weight"]:
        knots = []
        for lineno, line in sections["weight"]:
            parts = line.split()
            if len(parts) != 2:
                raise ConfigError(
                    f"weight knots are 't w' pairs, got {line!r}", line=lineno
                )
            try:
                knots.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ConfigError(f"bad weight knot: {exc}", line=lineno) from exc
        try:
            weight = WeightFunction.table(knots).normalized(T)
        except ValueError as exc:
            raise ConfigError(str(exc), line=sections["weight"][0][0]) from exc

    try:
        portfolio = FactorPortfolio(rows, factors, premiums, T, beta, weight=weight)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return portfolio, {"seed": seed, "n_paths": n_paths}


def serialize_portfolio(portfolio: FactorPortfolio, seed: int = 0,
                        n_paths: int = 100_000) -> str:
    """Render a portfolio back to config text (parse round-trips exactly)."""
    lines = ["[factors]"]
    for factor in portfolio.factors:
        params = factor.params()
        parts = [f"kind = {factor.kind}"] + [
            f"{k} = {v!r}" for k, v in params.items()
        ]
        lines.append(", ".join(parts))
    lines.append("")
    lines.append("[matrix]")
    for row in portfolio.A:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("")
    lines.append("[premiums]")
    for c in portfolio.premiums:
        lines.append(repr(float(c)))
    lines.append("")
    lines.append("[run]")
    lines.append(f"T = {portfolio.T!r}")
    lines.append(f"beta = {portfolio.beta!r}")
    lines.append(f"seed = {seed}")
    lines.append(f"n_paths = {n_paths}")
    if portfolio.weight.kind == "table":
        lines.append("")
        lines.append("[weight]")
        for t, w in portfolio.weight.knots:
            lines.append(f"{t!r} {w!r}")
    return "\n".join(lines) + "\n"


def _write(out: Optional[str], payload: str) -> None:
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table(header, rows) -> str:
    cols = [header] + [[("" if v is None else f"{v}") for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    lines = []
    for r in cols:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _format_evar(result, fmt):
    fields = ["value", "s_star", "attained", "iterations", "residual"]
    values = [result.value, result.s_star, result.attained, result.iterations,
              result.residual]
    if fmt == "json":
        payload = {"schema_version": SCHEMA_VERSION}
        payload.update(dict(zip(fields, values)))
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(fields, [["" if v is None else v for v in values]])
    return _table(fields, [values])


def _format_curve(report, fmt):
    n = report.K_curve.shape[1]
    header = ["t", "s_star"] + [f"K_{i}" for i in range(1, n + 1)]
    rows = [
        [t, "" if s is None else s] + list(k)
        for (t, s), k in zip(report.s_star_curve, report.K_curve)
    ]
    if fmt == "json":
        return json.dumps(
            {"schema_version": SCHEMA_VERSION, "columns": header,
             "rows": [[None if v == "" else v for v in r] for r in rows]},
            indent=2,
        ) + "\n"
    if fmt == "csv":
        return _csv_text(header, rows)
    return _table(header, [[v if v != "" else None for v in r] for r in rows])


def _format_allocation(report, fmt):
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        return _format_curve(report, "csv")
    header = ["department", "L"]
    rows = [[i + 1, L] for i, L in enumerate(report.L)]
    rows.append(["total", float(np.sum(report.L))])
    rows.append(["cevar+premium", report.total_cevar])
    rows.append(["gap", report.full_allocation_gap])
    return _table(header, rows)


def run(args) -> int:
    """Execute a parsed command line; returns the process exit code."""
    try:
        with open(args.config) as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        return EXIT_CONFIG

    try:
        portfolio, run_opts = parse_config(text)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG

    overrides = {}
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.T is not None:
        overrides["T"] = args.T
    if overrides:
        try:
            portfolio = FactorPortfolio(
                portfolio.A, portfolio.factors, portfolio.premiums,
                overrides.get("T", portfolio.T),
                overrides.get("beta", portfolio.beta),
                weight=portfolio.weight,
            )
        except ValueError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_CONFIG
    seed = args.seed if args.seed is not None else run_opts["seed"]

    try:
        if args.command == "evar":
            query = EvarQuery(portfolio.combination(None), portfolio.T, portfolio.beta)
            result = evar(query, tol=args.tol_stationarity)
            _write(args.out, _format_evar(result, args.format))
        elif args.command == "cevar":
            query = CevarQuery(
                portfolio.combination(None), portfolio.T, portfolio.beta,
                weight=portfolio.weight, quad_tol=args.tol_quad,
            )
            value = cevar(query)
            if args.format == "json":
                payload = {"schema_version": SCHEMA_VERSION, "value": value,
                           "time_moment": portfolio.weight.time_moment(portfolio.T)}
                _write(args.out, json.dumps(payload, indent=2) + "\n")
            elif args.format == "csv":
                _write(args.out, _csv_text(["value"], [[value]]))
            else:
                _write(args.out, _table(["value"], [[value]]))
        elif args.command in ("allocate", "curve"):
            report = allocate(portfolio, quad_tol=args.tol_quad)
            if args.command == "allocate":
                _write(args.out, _format_allocation(report, args.format))
            else:
                _write(args.out, _format_curve(report, args.format))
        elif args.command == "validate":
            config = SimulationConfig(seed=seed, n_paths=run_opts["n_paths"])
            checks = validation_report(config, beta=portfolio.beta)
            payload = {"schema_version": SCHEMA_VERSION, "seed": seed,
                       "checks": checks,
                       "pass": all(c["pass"] for c in checks)}
            _write(args.out, json.dumps(payload, indent=2) + "\n")
            if not payload["pass"]:
                return EXIT_VALIDATION
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(args.command)
    except NoStationaryPointError as exc:
        sys.stderr.write(f"error: no stationary point: {exc}\n")
        return EXIT_NO_STATIONARY
    except QuadratureBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_QUAD_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyrisk",
        description="EVaR/CEVaR risk engine for Levy insurance portfolios",
    )
    parser.add_argument("--config", required=True, help="portfolio config file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--beta", type=float, default=None,
                        help="override the config's beta")
    parser.add_argument("--T", type=float, default=None,
                        help="override the config's horizon")
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's simulation seed")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--tol-stationarity", type=float, default=None,
                        dest="tol_stationarity")
    parser.add_argument("--tol-quad", type=float, default=None, dest="tol_quad")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
