import contextlib
import glob
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levyrisk import WeightFunction, brownian_allocation, evar_closed_form_brownian
from levyrisk.cli import main, parse_config, serialize_portfolio
from levyrisk.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

MINIMAL = """\
[factors]
kind = brownian, mu = 0.0, sigma = 1.0

[matrix]
1.0

[premiums]
0.0

[run]
T = 1.0
beta = 0.05
"""

MIXED = """\
[factors]
kind = brownian, mu = 0.1, sigma = 1.2
kind = gamma, a = 2.0, b = 3.0, mu = 0.0

[matrix]
1.0 0.5
0.0 1.0

[premiums]
0.1 0.2

[run]
T = 2.0
beta = 0.05
seed = 3

[weight]
0.0 0.5
2.0 1.5
"""


def write(tmp_path, text, name="p.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config():
    portfolio, opts = parse_config(MINIMAL)
    assert portfolio.n == 1 and portfolio.A.shape[1] == 1
    assert portfolio.T == 1.0 and portfolio.beta == 0.05
    assert portfolio.premiums[0] == 0.0
    assert opts == {"seed": 0, "n_paths": 100_000}


def test_parse_mixed_config_with_weight():
    portfolio, opts = parse_config(MIXED)
    assert portfolio.n == 2 and portfolio.A.shape[1] == 2
    assert portfolio.weight != WeightFunction.uniform(2.0)
    assert portfolio.weight.mass() == pytest.approx(1.0)
    assert opts["seed"] == 3


def test_dimension_mismatch_names_both_counts():
    bad = MINIMAL.replace("1.0\n\n[premiums]\n0.0", "1.0\n\n[premiums]\n0.0\n0.1")
    with pytest.raises(ConfigError, match=r"2 premiums .* 1 matrix rows"):
        parse_config(bad)


def test_matrix_row_width_mismatch_is_line_anchored():
    bad = MINIMAL.replace("[matrix]\n1.0", "[matrix]\n1.0 2.0")
    with pytest.raises(ConfigError, match=r"line 5.*1 factors"):
        parse_config(bad)


def test_unknown_kind_and_section_errors():
    with pytest.raises(ConfigError, match="unknown factor kind"):
        parse_config(MINIMAL.replace("kind = brownian", "kind = cauchy"))
    with pytest.raises(ConfigError, match=r"unknown section"):
        parse_config("[portfolio]\n")
    with pytest.raises(ConfigError, match="before any"):
        parse_config("kind = brownian\n")
    with pytest.raises(ConfigError, match="must set T"):
        parse_config(MINIMAL.replace("T = 1.0\n", ""))


def test_negative_exposure_rejected():
    bad = MINIMAL.replace("[matrix]\n1.0", "[matrix]\n-1.0")
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(bad)


def test_round_trip_serialization():
    portfolio, opts = parse_config(MIXED)
    text = serialize_portfolio(portfolio, seed=opts["seed"], n_paths=opts["n_paths"])
    again, opts2 = parse_config(text)
    assert opts2 == opts
    np.testing.assert_array_equal(again.A, portfolio.A)
    np.testing.assert_array_equal(again.premiums, portfolio.premiums)
    assert again.factors == portfolio.factors
    assert again.T == portfolio.T and again.beta == portfolio.beta
    assert again.weight == portfolio.weight


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_evar_command_json(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    code = main(["--config", cfg, "--command", "evar", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == "1"
    assert payload["value"] == pytest.approx(
        evar_closed_form_brownian(0.0, 1.0, 1.0, 0.05), rel=1e-10
    )
    assert payload["attained"] == "interior"


def test_cevar_command_reports_time_moment(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    code = main(["--config", cfg, "--command", "cevar", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    expected = (2.0 / 3.0) * math.sqrt(-2.0 * math.log(0.05))
    assert payload["value"] == pytest.approx(expected, rel=1e-8)
    assert payload["time_moment"] == pytest.approx(0.5)


def test_allocate_json_full_allocation(tmp_path, capsys):
    cfg = write(tmp_path, MIXED)
    code = main(["--config", cfg, "--command", "allocate", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    total = sum(payload["L"])
    assert abs(total - payload["total_cevar"]) <= 1e-7 * (1 + abs(total))
    assert abs(payload["full_allocation_gap"]) <= 1e-7 * (1 + abs(total))


def test_curve_csv_header(tmp_path):
    cfg = write(tmp_path, MIXED)
    out = str(tmp_path / "curve.csv")
    code = main(["--config", cfg, "--command", "curve", "--format", "csv",
                 "--out", out])
    assert code == 0
    with open(out) as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "t,s_star,K_1,K_2"
    assert len(lines) == 1 + 65
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == ""  # no stationary point at t=0


def test_curve_json_and_table_leave_s_star_blank_at_zero(tmp_path, capsys):
    cfg = write(tmp_path, MIXED)
    assert main(["--config", cfg, "--command", "curve", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == ["t", "s_star", "K_1", "K_2"]
    assert len(payload["rows"]) == 65 and all(len(row) == 4 for row in payload["rows"])
    assert payload["rows"][0][:2] == [0.0, None]
    assert payload["rows"][1][1] > 0.0
    assert main(["--config", cfg, "--command", "curve", "--format", "table"]) == 0
    header, first, second = capsys.readouterr().out.splitlines()[:3]
    # Columns are right-aligned, so the s_star column ends where its header does.
    left, right = len(header.split("s_star")[0].rstrip()), header.index("s_star") + len("s_star")
    assert first[left:right].strip() == ""
    assert first.split() == ["0.0", "0.0", "0.0"]
    assert float(second[left:right]) == payload["rows"][1][1]


@pytest.mark.parametrize("command", ["evar", "cevar", "allocate", "curve", "validate"])
def test_json_reports_lead_with_the_schema_version(command, tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL.replace("beta = 0.05", "beta = 0.05\nn_paths = 20000"))
    assert main(["--config", cfg, "--command", command, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{\n  "schema_version": "1",\n'), out[:80]
    if command == "allocate":
        assert list(json.loads(out)) == ["schema_version", "L", "total_cevar",
                                          "full_allocation_gap", "grid", "K_curve",
                                          "s_star_curve"]


def test_horizon_beyond_the_weight_table(tmp_path, capsys):
    # The table weight spans [0, 1] and T = 2.0.  The span belongs to no single
    # line, so the portfolio rejects it and every command exits 2, evar too.
    cfg = write(tmp_path, MINIMAL.replace("T = 1.0", "T = 2.0") + "\n[weight]\n0.0 1.0\n1.0 1.0\n")
    for command in ("evar", "cevar", "allocate", "curve", "validate"):
        assert main(["--config", cfg, "--command", command]) == 2, command
        assert "horizon is [0, 2.0]" in capsys.readouterr().err, command


def test_table_format_smoke(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    assert main(["--config", cfg, "--command", "evar"]) == 0
    out = capsys.readouterr().out
    assert "value" in out and "interior" in out


def test_validate_command_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL.replace("beta = 0.05", "beta = 0.05\nn_paths = 20000\nseed = 4"))
    outputs = []
    for _ in range(2):
        code = main(["--config", cfg, "--command", "validate"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["pass"] is True
    assert payload["seed"] == 4
    assert all(set(c) == {"check_name", "analytic", "estimate", "ci", "pass"}
               for c in payload["checks"])


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_missing_file(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "--command", "evar"]) == 2


def test_exit_code_parse_error(tmp_path):
    bad = [
        "garbage\n",
        MINIMAL + "seed = abc\n",
        MINIMAL + "n_paths = 1e5\n",
        MINIMAL.replace("T = 1.0", "T = x"),
        MINIMAL + "\n[weight]\n0.0 x\n1.0 1.0\n",
        MINIMAL + "\n[weight]\n0.0 1.0\n0.0 1.0\n",  # knot times not increasing
        MINIMAL + "\n[weight]\n0.0 0.0\n1.0 0.0\n",  # zero mass
        MINIMAL + "\n[weight]\n0.0 1e308\n2.0 1e308\n",  # mass 2e308 overflows to inf
        MINIMAL.replace("sigma = 1.0", "sigma = 1.0, sigma = 2.0"),  # repeated factor key
        MINIMAL + "beta = 0.5\n",  # repeated [run] key
        MINIMAL + "n_paths = 0\n",
        MINIMAL + "n_paths = 1\n",  # one path has no standard error
        MINIMAL + "seed = -1\n",
        MINIMAL.replace("T = 1.0", "T = -2.0"),  # out of range
        MINIMAL.replace("beta = 0.05", "beta = 10.05"),
        MINIMAL + "horizon = 2.0\n",  # unknown [run] key
        MINIMAL.replace("[premiums]\n0.0", "[premiums]\n0.0 0.1"),  # 2 premiums, 1 row
        MINIMAL.replace("[matrix]\n1.0", "[matrix]\n-1.0"),  # negative exposure
        MINIMAL.replace("[premiums]\n0.0", "[premiums]\n-0.1"),  # negative premium
    ]
    for text in bad:
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.line is not None, text
        cfg = write(tmp_path, text)
        assert main(["--config", cfg, "--command", "evar"]) == 2, text


def test_non_finite_exposure_or_premium_is_a_config_error(tmp_path):
    # NaN passes a "< 0" check, so these used to reach the solver.
    for value in ("nan", "inf"):
        for text, line in ((MINIMAL.replace("[matrix]\n1.0", f"[matrix]\n{value}"), 5),
                           (MINIMAL.replace("[premiums]\n0.0", f"[premiums]\n{value}"), 8)):
            with pytest.raises(ConfigError, match="finite") as exc_info:
                parse_config(text)
            assert exc_info.value.line == line
            cfg = write(tmp_path, text)
            for command in ("evar", "allocate"):
                assert main(["--config", cfg, "--command", command]) == 2, text


def test_exposures_that_sum_beyond_float_range_are_a_config_error(tmp_path, capsys):
    # An infinite factor weight used to reach the solver, which exited 3.
    text = MINIMAL.replace("[matrix]\n1.0\n\n[premiums]\n0.0",
                           "[matrix]\n1e308\n1e308\n\n[premiums]\n0.0\n0.0")
    cfg = write(tmp_path, text)
    for command in ("evar", "cevar", "allocate"):
        assert main(["--config", cfg, "--command", command]) == 2
        assert "sum beyond float range" in capsys.readouterr().err


def test_non_finite_weight_knot_is_a_config_error(tmp_path, capsys):
    text = MIXED.replace("[weight]\n0.0 0.5", "[weight]\n0.0 nan")
    with pytest.raises(ConfigError, match="must be finite") as exc_info:
        parse_config(text)
    assert exc_info.value.line == 18
    assert main(["--config", write(tmp_path, text), "--command", "cevar"]) == 2
    assert "line 18: table knot times and values must be finite" in capsys.readouterr().err


def test_infinite_factor_parameter_is_a_config_error(tmp_path):
    # These used to reach the solver: an infinite a or lambda exited 3 (no
    # stationary point), an infinite b or eta exited 0 with EVaR 0.
    for factor in ("kind = gamma, a = inf, b = 1.0, mu = 0.0",
                   "kind = gamma, a = 1.0, b = inf, mu = 0.0",
                   "kind = compound_poisson_exp, lambda = inf, eta = 1.0, mu = 0.0",
                   "kind = compound_poisson_exp, lambda = 1.0, eta = inf, mu = 0.0"):
        text = MINIMAL.replace("kind = brownian, mu = 0.0, sigma = 1.0", factor)
        with pytest.raises(ConfigError, match="finite") as exc_info:
            parse_config(text)
        assert exc_info.value.line == 2
        cfg = write(tmp_path, text)
        for command in ("evar", "cevar"):
            assert main(["--config", cfg, "--command", command]) == 2, text


def test_untyped_error_in_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    # Exit 2 is for the library's typed errors; a bare ValueError is a defect
    # and must surface, not read as a bad config.
    def broken(*args, **kwargs):
        raise ValueError("not a config problem")

    monkeypatch.setattr("levyrisk.cli.evar", broken)
    cfg = write(tmp_path, MINIMAL)
    with pytest.raises(ValueError, match="not a config problem"):
        main(["--config", cfg, "--command", "evar"])


def test_exit_code_unwritable_out(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "missing" / "r.json"
    assert main(["--config", cfg, "--command", "evar", "--out", str(out)]) == 2
    assert "error: cannot write report:" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_quadrature_budget(tmp_path, monkeypatch):
    # A stable CEVaR integrand is not a polynomial in u under t = u^2, so a
    # relative tolerance of 1e-30 runs the quadrature out of budget whatever
    # the round-off.
    monkeypatch.setattr(sys.modules["levyrisk._quad"], "DEFAULT_REL_TOL", 1e-30)
    cfg = write(tmp_path, MINIMAL.replace("kind = brownian, mu = 0.0, sigma = 1.0",
                                          "kind = stable, alpha = 0.7, mu = 0.0"))
    code = main(["--config", cfg, "--command", "cevar"])
    assert code == 4


# ---------------------------------------------------------------------------
# shipped sample config
# ---------------------------------------------------------------------------

def test_shipped_brownian_config_matches_closed_form(capsys):
    cfg = os.path.join(CONFIG_DIR, "brownian_common_sigma.cfg")
    code = main(["--config", cfg, "--command", "allocate", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    portfolio, _ = parse_config(open(cfg).read())
    sigmas = np.array([f.sigma for f in portfolio.factors])
    expected = brownian_allocation(portfolio.A, sigmas, portfolio.premiums,
                                   portfolio.T, portfolio.beta)
    np.testing.assert_allclose(payload["L"], expected, rtol=1e-8)


@pytest.mark.parametrize("cfg", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                         ids=os.path.basename)
def test_curve_and_allocate_print_the_same_csv(cfg, capsys):
    # The K-curve has one producer, allocate: both commands print its CSV.
    outputs = []
    for command in ("curve", "allocate"):
        assert main(["--config", cfg, "--command", command, "--format", "csv"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_shipped_config_at_a_horizon_beyond_float_range_is_a_domain_error(tmp_path, capsys):
    # s* at T = 1e-308 lies where sigma^2 s^2 overflows: no EVaR, exit 2.  (Below
    # T ~ 5.6e-309 the portfolio is refused first: 1/T overflows.)
    with open(os.path.join(CONFIG_DIR, "brownian_common_sigma.cfg")) as handle:
        text = handle.read()
    assert "T = 2.0" in text
    cfg = write(tmp_path, text.replace("T = 2.0", "T = 1e-308"))
    assert main(["--config", cfg, "--command", "evar"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


@pytest.mark.parametrize("weight", ["", "\n[weight]\n0.0 1.0\n1e-310 1.0\n"],
                         ids=["uniform", "table"])
@pytest.mark.parametrize("command", ["evar", "cevar", "allocate", "curve", "validate"])
def test_horizon_whose_inverse_overflows_exits_2(command, weight, tmp_path, capsys):
    # Below T ~ 5.6e-309 no weight on [0, T] has unit mass: the portfolio is refused.
    cfg = write(tmp_path, MINIMAL.replace("T = 1.0", "T = 1e-310") + weight)
    assert main(["--config", cfg, "--command", command, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


GAMMA_HUGE_DRIFT = (MINIMAL.replace("kind = brownian, mu = 0.0, sigma = 1.0",
                                    "kind = gamma, a = 2.0, b = 3.0, mu = 1e308")
                    .replace("T = 1.0", "T = 2.0"))  # K_T = -2e308 on the K-curve


@pytest.mark.parametrize("text,command", [
    (MINIMAL.replace("T = 1.0", "T = 1e-307"), "cevar"),  # s^2 phi'' overflows in the integral
    (MINIMAL.replace("kind = brownian, mu = 0.0, sigma = 1.0", "kind = stable, alpha = 0.6, mu = 1e308")
     .replace("T = 1.0", "T = 2.0"), "allocate"),  # K = -2e308 near T
    (MINIMAL.replace("mu = 0.0", "mu = -1e308").replace("T = 1.0", "T = 10.0"), "evar"),
    (GAMMA_HUGE_DRIFT, "allocate"),
    (GAMMA_HUGE_DRIFT, "curve"),
    (MINIMAL.replace("[premiums]\n0.0", "[premiums]\n1e308").replace("T = 1.0", "T = 4.0"),
     "allocate"),  # the premium term 1e308 * T/2 overflows
], ids=["tiny-T", "huge-drift", "brownian-drift-evar", "gamma-drift-allocate",
        "gamma-drift-curve", "huge-premium"])
def test_non_finite_result_is_a_domain_error(text, command, tmp_path, capsys):
    # The first two used to print NaN or -Infinity, which is not JSON, and exit
    # 0.  The library raises DomainError on each: the CLI has no guard of its own.
    assert main(["--config", write(tmp_path, text), "--command", command, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


# (T, [weight] knots, time moment, CEVaR) of a driftless unit Brownian factor,
# whose EVaR is sqrt(2 t ln 20) at beta = 0.05.
EXTREME_KNOTS = [
    (1e200, "0.0 1.0\n1e200 1.0\n", 5e199, (2.0 / 3.0) * math.sqrt(2e200 * math.log(20.0))),
    (1.0, "0.0 0.4\n1e-320 1.2\n1.0 0.6\n", 4.0 / 9.0, 28.0 / 45.0 * math.sqrt(2.0 * math.log(20.0))),
]


@pytest.mark.parametrize("T, knots, moment, value", EXTREME_KNOTS,
                         ids=["knots-beyond-1e102", "subnormal-segment"])
def test_table_weight_at_extreme_knots_has_its_exact_time_moment(T, knots, moment, value,
                                                                 tmp_path, capsys):
    # The moment used to be formed from t^3 and the segment's slope: at the far
    # knots t^3 raised OverflowError (a traceback, exit 1), and on [0, 1e-320]
    # the slope overflowed and the moment was NaN (exit 2).
    cfg = write(tmp_path, MINIMAL.replace("T = 1.0", f"T = {T!r}") + "\n[weight]\n" + knots)
    payloads = {}
    for command in ("cevar", "allocate", "curve"):
        assert main(["--config", cfg, "--command", command, "--format", "json"]) == 0, command
        payloads[command] = json.loads(capsys.readouterr().out)
    assert payloads["cevar"]["time_moment"] == pytest.approx(moment, rel=1e-14)
    assert payloads["cevar"]["value"] == pytest.approx(value, rel=1e-12)
    assert payloads["allocate"]["total_cevar"] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("seed", [2, 3])
def test_validate_at_two_paths_prints_json(seed, tmp_path, capsys):
    # Every compound-Poisson draw is 0 at these seeds, so a standard error is 0:
    # the worst-row pick used to divide by it and end in a ZeroDivisionError.
    with open(os.path.join(CONFIG_DIR, "brownian_common_sigma.cfg")) as handle:
        text = handle.read()
    assert "seed = 42" in text and "n_paths = 100000" in text
    cfg = write(tmp_path, text.replace("seed = 42", f"seed = {seed}")
                .replace("n_paths = 100000", "n_paths = 2"))
    assert main(["--config", cfg, "--command", "validate", "--format", "json"]) in (0, 5)
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == seed and len(payload["checks"]) > 0


# ---------------------------------------------------------------------------
# fuzzed configs
# ---------------------------------------------------------------------------

# Every shipped config, among them a four-kind position with a table weight.
FUZZ_BASES = []
for _name in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))):
    with open(_name) as _handle:
        FUZZ_BASES.append(_handle.read())
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")
BAD_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e400", "1e308", "1e-6", "1e6", "", "x")


@st.composite
def fuzzed_config(draw):
    """A base config with one to three of its numbers replaced by a bad value."""
    text = draw(st.sampled_from(FUZZ_BASES))
    spans = [m.span() for m in NUMBER.finditer(text)]
    chosen = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=3, unique=True))
    for start, end in sorted(chosen, reverse=True):
        text = text[:start] + draw(st.sampled_from(BAD_VALUES)) + text[end:]
    return text


@settings(max_examples=200, deadline=None)
@given(text=fuzzed_config(), command=st.sampled_from(["evar", "cevar", "allocate", "curve"]))
def test_fuzzed_configs_end_in_a_documented_exit_code(tmp_path_factory, text, command):
    # Every input ends in exit code 0, 2, 3, 4 or 5, never in a traceback (any
    # exception, RuntimeWarnings included, fails the test).  The bad values
    # replace T and beta in the config as well as the factors and exposures.
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--config", str(path), "--command", command, "--format", "json"])
    assert code in (0, 2, 3, 4, 5)
