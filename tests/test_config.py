import warnings
from pathlib import Path

import numpy as np
import pytest

from rdlab import config, kinetics
from rdlab.config import (ConfigError, ExpressionError, compile_expression,
                          parse_config, serialize_config)
from rdlab.network import NetworkError, build_network

MINIMAL_ODE = """
[scenario]
kind = ode
id = minimal_ode

[network]
alpha = 2 0 0
beta = 0 1 1

[initial]
species_1 = 2
species_2 = 1e-9
species_3 = 1e-9

[numerics]
t_end = 8.0
"""

MINIMAL_RD = """
[scenario]
kind = rd
id = minimal

[network]
alpha = 1 1 0 0
beta = 0 0 1 1

[initial]
species_1 = 1
species_2 = 1
species_3 = 1
species_4 = 1
"""


class TestExpressions:
    def test_profile_evaluates_on_grid(self):
        expr = compile_expression("1 + 0.3*cos(pi*x)")
        x = (np.arange(200) + 0.5) / 200.0
        values = expr(x)
        assert values.shape == (200,)
        assert np.allclose(values, 1.0 + 0.3 * np.cos(np.pi * x))
        assert expr.uses_x

    def test_caret_means_power(self):
        expr = compile_expression("2 + x^2")
        assert expr(np.array([3.0]))[0] == 11.0

    def test_constants_and_functions(self):
        expr = compile_expression("exp(1) - e + sin(0)")
        assert abs(expr(np.array([0.0]))[0]) <= 1e-15
        assert not expr.uses_x

    def test_constant_broadcasts(self):
        expr = compile_expression("0.25")
        assert np.array_equal(expr(np.zeros(5)), np.full(5, 0.25))

    @pytest.mark.parametrize("bad", [
        "foo(x)", "x + y", "__import__('os')", "x @ x", "lambda: 1",
        "sin(x, 2)", "'text'",
    ])
    def test_rejects_unknown_syntax(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad)


# One invalid reaction per network rule: alpha, beta, (l, k), then the
# error build_network raises (code, side, indices) and the issue paths
# parse_config reports for the same reaction.
NETWORK_RULES = {
    "catalyzer": ("1 1 0 0", "0 1 1 1", (1.0, 1.0),
                  "catalyzer-species", "products", (1,), ["network.beta[1]"]),
    "one_sided": ("1 1 1 1", "2 3 2 2", (1.0, 1.0),
                  "no-sign-change", "products", (), ["network.beta"]),
    "huge_coefficient": ("1e20 1 0 0", "0 0 1 1", (1.0, 1.0),
                         "bad-value", "reactants", (0,), ["network.alpha"]),
    "infinite_coefficient": ("1 1 0 0", "0 0 inf 1", (1.0, 1.0),
                             "bad-value", "products", (2,), ["network.beta"]),
    "fractional_coefficient": ("0.5 1 0 0", "0 0 1 1", (1.0, 1.0),
                               "bad-value", "reactants", (0,),
                               ["network.alpha"]),
    "length_mismatch": ("1 1 0 0", "0 0 1", (1.0, 1.0),
                        "bad-value", "products", (), ["network.beta"]),
    "zero_forward_rate": ("1 1 0 0", "0 0 1 1", (0.0, 1.0),
                          "bad-value", "rates", (0,), ["network.l"]),
    "negative_backward_rate": ("1 1 0 0", "0 0 1 1", (1.0, -2.0),
                               "bad-value", "rates", (1,), ["network.k"]),
}


class TestNetworkRules:
    @pytest.mark.parametrize("name", NETWORK_RULES)
    def test_build_network_and_parse_config_agree(self, name):
        alpha, beta, rates, code, side, indices, paths = NETWORK_RULES[name]
        with pytest.raises(NetworkError) as err:
            build_network([float(v) for v in alpha.split()],
                          [float(v) for v in beta.split()], *rates)
        assert (err.value.code, err.value.side, err.value.indices) \
            == (code, side, indices)
        text = MINIMAL_RD.replace("alpha = 1 1 0 0", f"alpha = {alpha}") \
            .replace("beta = 0 0 1 1",
                     f"beta = {beta}\nl = {rates[0]!r}\nk = {rates[1]!r}")
        with pytest.raises(ConfigError) as issues:
            parse_config(text)
        assert [(i.code, i.path) for i in issues.value.issues] \
            == [(code, path) for path in paths]

    def test_overflowing_rate_ratio_is_rejected_without_a_warning(self):
        # k / l overflows to inf, and the normalization divides inf by inf;
        # build_network's checks reject the result, so numpy stays quiet.
        text = MINIMAL_RD.replace("beta = 0 0 1 1",
                                  "beta = 0 0 1 1\nl = 1e-300\nk = 1e300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                parse_config(text)
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", "network.l"), ("bad-value", "network.k")]

    def test_ode_config_builds_its_network_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_network(*args)

        monkeypatch.setattr(config, "build_network", counted)
        assert parse_config(MINIMAL_ODE).kind == "ode"
        assert len(calls) == 1


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL_RD)
        assert cfg.kind == "rd"
        assert cfg.dt == 1e-3
        assert cfg.n_cells == 200
        assert cfg.tol == 1e-10
        assert cfg.domain_length == 1.0
        assert cfg.sample_every == 10
        assert cfg.reactants == (1, 1, 0, 0)
        assert cfg.products == (0, 0, 1, 1)
        assert cfg.rate_forward == 1.0

    def test_catalyzer_reported_with_code(self):
        text = MINIMAL_RD.replace("beta = 0 0 1 1", "beta = 0 1 1 1")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        codes = {issue.code for issue in err.value.issues}
        assert "catalyzer-species" in codes

    def test_sign_change_required(self):
        text = MINIMAL_RD.replace("alpha = 1 1 0 0", "alpha = 1 1 1 1") \
                         .replace("beta = 0 0 1 1", "beta = 2 3 2 2")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "no-sign-change" in {issue.code for issue in err.value.issues}

    def test_all_errors_collected(self):
        text = """
[scenario]
kind = rd

[network]
alpha = 1 1 0
beta = 0 1 1
l = -1

[initial]
species_1 = 1
species_2 = nope(
species_3 = 1

[mystery]
value = 2
"""
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        codes = [issue.code for issue in err.value.issues]
        assert "catalyzer-species" in codes
        assert "bad-value" in codes
        assert "bad-expression" in codes
        assert "unknown-key" in codes
        assert len(codes) >= 4

    def test_issue_paths_point_at_fields(self):
        text = MINIMAL_RD.replace("species_4 = 1", "species_4 = sin(")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        paths = [issue.path for issue in err.value.issues]
        assert "initial.species_4" in paths

    def test_missing_species_reported(self):
        text = MINIMAL_RD.replace("species_4 = 1\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(i.code == "missing-field" and "species_4" in i.path
                   for i in err.value.issues)

    def test_ode_requires_constant_initial(self):
        text = MINIMAL_RD.replace("kind = rd", "kind = ode") \
                         .replace("species_1 = 1", "species_1 = 1 + x")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "nonconstant-initial" in {i.code for i in err.value.issues}

    @pytest.mark.parametrize("key, profile, code", [
        ("initial.species_2", "9^9^9", "arithmetic-error"),
        ("initial.species_2", "1/(1 - 1)", "arithmetic-error"),
        ("initial.species_2", "1/(x - x)", "non-finite-profile"),
        ("initial.species_2", "exp(1000)", "non-finite-profile"),
        ("initial.species_2", "1 + exp(1000*x)", "non-finite-profile"),
        ("diffusion.psi", "9^9^9", "arithmetic-error"),
        ("diffusion.diffusivity", "1 + x*exp(800)", "non-finite-profile"),
    ])
    def test_unusable_profile_reported(self, key, profile, code):
        section, field = key.split(".")
        text = MINIMAL_RD + "\n[diffusion]\nn = 8\n"
        if section == "initial":
            text = text.replace(f"{field} = 1", f"{field} = {profile}")
        else:
            text += f"{field} = {profile}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [(i.code, i.path) for i in err.value.issues] == [(code, key)]

    @pytest.mark.parametrize("n", ["inf", "nan", "2000000"])
    def test_grid_size_must_be_a_bounded_integer(self, n):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD + f"\n[diffusion]\nn = {n}\n")
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", "diffusion.n")]

    @pytest.mark.parametrize("cells", [
        "50 1e9", "1 2", "2 50", "100 50", "50 50", "100", "50 inf",
        "50 nan", "50 100.5", "50 -100",
    ])
    def test_refinement_bounded_and_increasing(self, cells):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD + f"\n[diffusion]\nrefinement = {cells}\n")
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", "diffusion.refinement")]

    def test_refinement_accepts_increasing_grids(self):
        cfg = parse_config(MINIMAL_RD + "\n[diffusion]\nrefinement = 3 1000000\n")
        assert cfg.refinement_cells == (3, 10**6)

    @pytest.mark.parametrize("section, path", [
        ("n = 65\npsi = x", "diffusion.n"),
        ("n = 65\ndiffusivity = 1 + x", "diffusion.n"),
        ("n = 32\npsi = 0.5*x\nrefinement = 8 16 65", "diffusion.refinement"),
    ])
    def test_dense_grid_too_large(self, monkeypatch, section, path):
        monkeypatch.setattr(config, "DENSE_MAX_CELLS", 64)
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD + f"\n[diffusion]\n{section}\n"
                         + ("" if "refinement" in section
                            else "refinement = 8 16 32\n"))
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("grid-too-large", path)]

    def test_uniform_grid_not_bounded_by_dense_limit(self, monkeypatch):
        monkeypatch.setattr(config, "DENSE_MAX_CELLS", 64)
        text = MINIMAL_RD + ("\n[diffusion]\nn = 65\npsi = 2\ndiffusivity = 3"
                             "\nrefinement = 8 16 65\n")
        assert parse_config(text).n_cells == 65
        assert parse_config(text.replace("psi = 2", "psi = x")
                            .replace("n = 65", "n = 64")
                            .replace("8 16 65", "8 16 64")).n_cells == 64

    @pytest.mark.parametrize("line", [
        "alpha = 1 inf 0 0", "alpha = nan 1 0 0", "alpha = 1e20 1 0 0",
        "beta = 0 0 inf 1", "beta = 0 0 1 nan", "beta = 0 0 1 1e19",
    ])
    def test_stoichiometry_must_be_int64(self, line):
        key = line.split(" = ")[0]
        original = {"alpha": "alpha = 1 1 0 0", "beta": "beta = 0 0 1 1"}[key]
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD.replace(original, line))
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", f"network.{key}")]

    @pytest.mark.parametrize("values", ["0.25 inf", "nan 0.5", "0.5 -inf"])
    def test_sweep_values_must_be_finite(self, values):
        text = MINIMAL_RD.replace("kind = rd", "kind = sweep") \
            + f"\n[sweep]\nparameter = mass_scale\nvalues = {values}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", "sweep.values")]

    @pytest.mark.parametrize("section, line", [
        ("numerics", "dt = inf"), ("numerics", "dt = nan"),
        ("numerics", "t_end = inf"), ("numerics", "t_end = nan"),
        ("numerics", "t_end = -inf"), ("numerics", "tol = inf"),
        ("diffusion", "domain_length = inf"),
    ])
    def test_positive_numbers_must_be_finite(self, section, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD + f"\n[{section}]\n{line}\n")
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", f"{section}.{key}")]

    def test_rate_constants_must_be_finite(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD.replace("beta = 0 0 1 1",
                                            "beta = 0 0 1 1\nl = inf"))
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("bad-value", "network.l")]

    def test_step_budget_counts_species_cells_and_scales(self):
        # 4 species x 200 cells x 1e7 steps = 8e9 cell-steps: inside the
        # budget alone, above it as a sweep of two scales.
        numerics = "\n[numerics]\ndt = 1e-3\nt_end = 1e4\n"
        assert parse_config(MINIMAL_RD + numerics).t_end == 1e4
        sweep = (MINIMAL_RD.replace("kind = rd", "kind = sweep") + numerics
                 + "\n[sweep]\nparameter = mass_scale\nvalues = 0.5 2.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(sweep)
        assert [(i.code, i.path) for i in err.value.issues] \
            == [("too-many-steps", "numerics.t_end")]
        for t_end in ("1e9", "1e300"):
            with pytest.raises(ConfigError) as err:
                parse_config(MINIMAL_RD + numerics.replace("1e4", t_end))
            assert [i.code for i in err.value.issues] == ["too-many-steps"]

    def test_step_budget_covers_shipped_runs_100_times(self):
        configs = Path(__file__).resolve().parents[1] / "configs"
        largest = 0.0
        for path in configs.glob("*.cfg"):
            cfg = parse_config(path.read_text())
            if cfg.kind in ("rd", "sweep"):
                largest = max(largest, cfg.t_end / cfg.dt * len(cfg.reactants)
                              * cfg.n_cells * max(len(cfg.sweep_values), 1))
        assert largest == pytest.approx(1.6e7)    # two_by_two.cfg
        assert config.MAX_CELL_STEPS >= 100 * largest

    @pytest.mark.parametrize("network", [
        "",                                # self-ionization: the exact flow
        "alpha = 2 1 0\nbeta = 0 0 1\n",  # order 3: RK45
    ], ids=["exact_flow", "order_three"])
    def test_ode_step_budget(self, network):
        text = MINIMAL_ODE
        if network:
            text = text.replace("alpha = 2 0 0\nbeta = 0 1 1\n", network)
        assert parse_config(text).t_end == 8.0
        # The sharp rate sets the count, t_end x rate / 0.08: at rate 4
        # (self-ionization) t_end = 2000 is just past the budget of 1e5.
        for line in ("t_end = 2000", "t_end = 1e9", "t_end = 1e300"):
            with pytest.raises(ConfigError) as err:
                parse_config(text.replace("t_end = 8.0", line))
            assert [(i.code, i.path) for i in err.value.issues] \
                == [("too-many-steps", "numerics.t_end")]
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("[initial]", "l = 1e6\nk = 1e6\n\n[initial]"))
        assert [i.code for i in err.value.issues] == ["too-many-steps"]

    @pytest.mark.parametrize("species", [
        ("0", "1e-9", "1e-9"),          # the run rejects it
        ("1e-300", "1e300", "1e-9"),    # no steady-state bracket
    ], ids=["nonpositive", "unbracketed"])
    def test_ode_step_budget_leaves_unsolvable_data_to_the_run(self, species):
        text = MINIMAL_ODE
        for i, (old, new) in enumerate(zip(("2", "1e-9", "1e-9"), species), 1):
            text = text.replace(f"species_{i} = {old}", f"species_{i} = {new}")
        assert parse_config(text).initial == species

    def test_ode_step_budget_covers_shipped_runs_100_times(self):
        from rdlab.network import build_network, optimal_rate, steady_state

        configs = Path(__file__).resolve().parents[1] / "configs"
        largest = 0
        for path in configs.glob("*.cfg"):
            cfg = parse_config(path.read_text())
            if cfg.kind == "ode":
                network = build_network(cfg.reactants, cfg.products,
                                        cfg.rate_forward, cfg.rate_backward)
                v0 = [float(compile_expression(t)(0.0)) for t in cfg.initial]
                rate = optimal_rate(network, steady_state(network, v0))
                largest = max(largest, kinetics.step_count(rate, cfg.t_end) + 1)
        assert largest == 401                     # self_ionization_ode.cfg
        assert kinetics.MAX_STEPS >= 100 * largest

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RD.replace("kind = rd", "kind = magic"))
        assert any(i.path == "scenario.kind" for i in err.value.issues)

    def test_sweep_needs_parameter_and_values(self):
        text = MINIMAL_RD.replace("kind = rd", "kind = sweep") + """
[sweep]
parameter = mass_scale
values = 0.5 2.0
"""
        cfg = parse_config(text)
        assert cfg.sweep_parameter == "mass_scale"
        assert cfg.sweep_values == (0.5, 2.0)
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_RD.replace("kind = rd", "kind = sweep"))

    def test_round_trip(self):
        cfg = parse_config(MINIMAL_RD)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_with_all_sections(self):
        text = MINIMAL_RD + """
[diffusion]
n = 64
domain_length = 2.0
psi = 0.5*x
diffusivity = 1 + 0.1*sin(pi*x)

[numerics]
dt = 5e-4
t_end = 2.5
sample_every = 5
tol = 1e-9

[output]
directory = out/somewhere
series = false
snapshots = 0.0 1.25
"""
        cfg = parse_config(text)
        assert cfg.n_cells == 64
        assert cfg.write_series is False
        assert cfg.snapshot_times == (0.0, 1.25)
        assert parse_config(serialize_config(cfg)) == cfg
