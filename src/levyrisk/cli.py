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

The config is the one source of a run's inputs.  A ``[weight]`` table that
does not span [0, T] exits 2 for every command: ``FactorPortfolio`` checks it.

Exit codes: 0 success, 2 error in the config, an option or the --out path,
3 solver non-attainment, 4 quadrature budget exceeded, 5 validation failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from .allocation import FactorPortfolio, allocate
from .cevar import CevarQuery, WeightFunction, cevar
from .errors import ConfigError, LevyRiskError, NoStationaryPointError, QuadratureBudgetError
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
            key, value = (p.strip() for p in part.split("=", 1))
            if key in spec:
                raise ConfigError(f"factor key {key!r} set twice", line=lineno)
            spec[key] = value
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
        if not all(0.0 <= v < math.inf for v in rows[-1]):
            raise ConfigError("exposures a_ij must be finite and nonnegative", line=lineno)
    if not rows:
        raise ConfigError("[matrix] section is empty or missing")

    premiums = []
    for lineno, line in sections["premiums"]:
        try:
            premiums.extend(float(v) for v in line.split())
        except ValueError as exc:
            raise ConfigError(f"bad premium entry: {exc}", line=lineno) from exc
        if not all(0.0 <= c < math.inf for c in premiums):
            raise ConfigError("premium rates must be finite and nonnegative", line=lineno)
    if len(premiums) != len(rows):
        raise ConfigError(
            f"{len(premiums)} premiums given for {len(rows)} matrix rows",
            line=sections["premiums"][-1][0] if sections["premiums"] else None,
        )

    run: dict = {}
    for lineno, line in sections["run"]:
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", line=lineno)
        key, value = (p.strip() for p in line.split("=", 1))
        if key in run:
            raise ConfigError(
                f"[run] key {key!r} set twice (first on line {run[key][0]})", line=lineno
            )
        run[key] = (lineno, value)

    def take(key, convert, rule, valid, default=None):
        if key not in run:
            if default is None:
                raise ConfigError(f"[run] section must set {key}")
            return default
        lineno, text = run.pop(key)
        try:
            value = convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ConfigError(f"{key} must be {kind}, got {text!r}", line=lineno) from None
        if not valid(value):
            raise ConfigError(f"{key} must {rule}, got {value}", line=lineno)
        return value

    # The ranges FactorPortfolio and SimulationConfig accept, checked here so
    # that an error names its line.
    T = take("T", float, "be a positive finite real", lambda v: 0.0 < v < math.inf)
    beta = take("beta", float, "lie in (0, 1)", lambda v: 0.0 < v < 1.0)
    seed = take("seed", int, "be at least 0", lambda v: v >= 0, default=0)
    n_paths = take("n_paths", int, "be at least 2", lambda v: v >= 2, default=100_000)
    if run:
        raise ConfigError(f"unknown [run] key(s): {sorted(run)}",
                          line=min(lineno for lineno, _ in run.values()))

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


def _render(fmt: str, payload: dict, header, rows) -> str:
    """The report text: ``payload`` under the schema version in JSON, otherwise
    ``rows`` under ``header`` (CSV, or a right-aligned table)."""
    if fmt == "json":
        # The library raises on a non-finite result; one here is a defect, not JSON.
        return json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2,
                          allow_nan=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    cols = [header] + [[("" if v is None else f"{v}") for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    return "".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) + "\n" for r in cols)


def run(args) -> int:
    """Execute a parsed command line; returns the process exit code."""
    fmt, code = args.format, EXIT_OK
    try:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        portfolio, run_opts = parse_config(text)

        if args.command == "evar":
            query = EvarQuery(portfolio.combination(None), portfolio.T, portfolio.beta)
            payload = dataclasses.asdict(evar(query))
            header, rows = list(payload), [list(payload.values())]
        elif args.command == "cevar":
            query = CevarQuery(portfolio.combination(None), portfolio.T, portfolio.beta,
                               weight=portfolio.weight)
            value = cevar(query)
            payload = {"value": value, "time_moment": portfolio.weight.time_moment(portfolio.T)}
            header, rows = ["value"], [[value]]
        elif args.command in ("allocate", "curve"):
            report = allocate(portfolio)
            header = ["t", "s_star"] + [f"K_{i}" for i in range(1, portfolio.n + 1)]
            rows = [[t, s] + list(k) for (t, s), k in zip(report.s_star_curve, report.K_curve)]
            if args.command == "curve":
                payload = {"columns": header, "rows": rows}
            else:
                payload = {
                    "L": report.L.tolist(),
                    "total_cevar": report.total_cevar,
                    "full_allocation_gap": report.full_allocation_gap,
                    "grid": report.grid.tolist(),
                    "K_curve": report.K_curve.tolist(),
                    "s_star_curve": [[t, s] for t, s in report.s_star_curve],
                }
                if fmt != "csv":  # the allocation's CSV is the K-curve, as for curve
                    header = ["department", "L"]
                    rows = [[i + 1, L] for i, L in enumerate(report.L)]
                    rows.append(["total", float(report.L.sum())])
                    rows.append(["cevar+premium", report.total_cevar])
                    rows.append(["gap", report.full_allocation_gap])
        elif args.command == "validate":
            config = SimulationConfig(**run_opts)
            checks = validation_report(config, beta=portfolio.beta)
            payload = {"seed": config.seed, "checks": checks,
                       "pass": all(c["pass"] for c in checks)}
            fmt, header, rows = "json", None, None  # the report is JSON only
            if not payload["pass"]:
                code = EXIT_VALIDATION
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(args.command)
        rendered = _render(fmt, payload, header, rows)
        if args.out:
            try:
                with open(args.out, "w", newline="") as handle:
                    handle.write(rendered)
            except OSError as exc:
                raise ConfigError(f"cannot write report: {exc}") from exc
        else:
            sys.stdout.write(rendered)
        return code
    except NoStationaryPointError as exc:
        code, message = EXIT_NO_STATIONARY, f"no stationary point: {exc}"
    except QuadratureBudgetError as exc:
        code, message = EXIT_QUAD_BUDGET, str(exc)
    except LevyRiskError as exc:  # ConfigError, or a DomainError: the values leave the domain
        code, message = EXIT_CONFIG, str(exc)
    sys.stderr.write(f"error: {message}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyrisk",
        description="EVaR/CEVaR risk engine for Levy insurance portfolios",
    )
    parser.add_argument("--config", required=True, help="portfolio config file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--format", choices=FORMATS, default="table")
    parser.add_argument("--out", default=None, help="write the report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
