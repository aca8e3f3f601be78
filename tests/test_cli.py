import json
import math
import os

import numpy as np
import pytest

from levyrisk import brownian_allocation, evar_closed_form_brownian
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
    assert portfolio.n == 1 and portfolio.m == 1
    assert portfolio.T == 1.0 and portfolio.beta == 0.05
    assert portfolio.premiums[0] == 0.0
    assert opts == {"seed": 0, "n_paths": 100_000}


def test_parse_mixed_config_with_weight():
    portfolio, opts = parse_config(MIXED)
    assert portfolio.n == 2 and portfolio.m == 2
    assert portfolio.weight.kind == "table"
    assert portfolio.weight.mass(2.0) == pytest.approx(1.0)
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


def test_beta_and_T_overrides(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    code = main(["--config", cfg, "--command", "evar", "--format", "json",
                 "--beta", "0.1", "--T", "4.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(
        evar_closed_form_brownian(0.0, 1.0, 4.0, 0.1), rel=1e-10
    )


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


def test_table_format_smoke(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL)
    assert main(["--config", cfg, "--command", "evar"]) == 0
    out = capsys.readouterr().out
    assert "value" in out and "interior" in out


def test_validate_command_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, MINIMAL.replace("beta = 0.05", "beta = 0.05\nn_paths = 20000"))
    outputs = []
    for _ in range(2):
        code = main(["--config", cfg, "--command", "validate", "--seed", "4"])
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
    ]
    for text in bad:
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        assert exc_info.value.line is not None, text
        cfg = write(tmp_path, text)
        assert main(["--config", cfg, "--command", "evar"]) == 2, text


def test_exit_code_quadrature_budget(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    code = main(["--config", cfg, "--command", "cevar", "--tol-quad", "1e-30"])
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
