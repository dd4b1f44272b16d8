"""Declarative scenario configuration: INI-style files with expressions.

A config has nested key/value sections ([scenario], [network], [diffusion],
[initial], [numerics], [output], [sweep]); spatial profiles are written as
expressions in ``x`` supporting +, -, *, /, ^, sin, cos, exp and the
constants pi and e.  Parsing validates everything and reports *all* problems
at once, each with a stable code and a field path.
"""

from __future__ import annotations

import ast
import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .diffusion import DENSE_MAX_CELLS
from .kinetics import pivot_reduction, step_count
from .network import NetworkError, build_network

__all__ = [
    "Expression",
    "ExpressionError",
    "ConfigIssue",
    "ConfigError",
    "ScenarioConfig",
    "compile_expression",
    "parse_config",
    "serialize_config",
]

KINDS = ("ode", "rd", "spectral_gap", "sweep")
# Most grid cells a config may ask for: a bound on the memory of sampling
# profiles while parsing.  A grid whose potential or diffusivity depends on
# x needs the dense eigenbasis, and may have at most DENSE_MAX_CELLS.
MAX_CELLS = 10**6
# Most cell-steps (steps x species x cells x members) an rd or sweep config
# may ask for: about 600 times the largest shipped run (two_by_two, 1.6e7),
# and some ten minutes of stepping at the measured 1.6e7 cell-steps/s.  A
# well-mixed (ode) config has its own budget, kinetics.MAX_STEPS.
MAX_CELL_STEPS = 10**10

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY_OPS = (ast.UAdd, ast.USub)


class ExpressionError(ValueError):
    pass


@dataclass(frozen=True)
class Expression:
    """A validated closed-form profile; call it with an array of positions."""

    text: str
    uses_x: bool
    _code: object = field(repr=False, compare=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        env = {"x": x, **_FUNCTIONS, **_CONSTANTS}
        result = eval(self._code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(result, dtype=float), x.shape).copy()


def _validate_node(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _validate_node(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINARY_OPS):
        _validate_node(node.left)
        _validate_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY_OPS):
        _validate_node(node.operand)
    elif isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _FUNCTIONS
                or len(node.args) != 1 or node.keywords):
            raise ExpressionError("only sin, cos and exp of one argument "
                                  "are allowed")
        _validate_node(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id != "x" and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name '{node.id}'")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric constants are allowed")
    else:
        raise ExpressionError(f"unsupported syntax: {type(node).__name__}")


def compile_expression(text: str) -> Expression:
    """Parse and validate a profile expression; '^' means power.

    Numeric constants are compiled as floats, so constant arithmetic such
    as ``9^9^9`` overflows at once instead of building a huge integer.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse '{text}': {exc.msg}") from exc
    _validate_node(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ExpressionError(f"constant too large in '{text}'") from exc
    uses_x = any(isinstance(n, ast.Name) and n.id == "x"
                 for n in ast.walk(tree))
    return Expression(text=text, uses_x=uses_x,
                      _code=compile(tree, "<profile>", "eval"))


@dataclass(frozen=True)
class ConfigIssue:
    code: str
    path: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.path}: {self.message}"


class ConfigError(ValueError):
    """Carries every validation problem found in a config."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("\n".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    scenario_id: str
    reactants: tuple[int, ...]
    products: tuple[int, ...]
    rate_forward: float
    rate_backward: float
    n_cells: int
    domain_length: float
    potential: str
    diffusivity: str
    initial: tuple[str, ...]
    dt: float
    t_end: float
    sample_every: int
    tol: float
    out_dir: str
    write_series: bool
    snapshot_times: tuple[float, ...]
    refinement_cells: tuple[int, ...]
    sweep_parameter: str
    sweep_values: tuple[float, ...]


_KNOWN_KEYS = {
    "scenario": {"kind", "id"},
    "network": {"alpha", "beta", "l", "k"},
    "diffusion": {"n", "domain_length", "psi", "diffusivity", "refinement"},
    "initial": None,   # species_1 .. species_q, checked against the network
    "numerics": {"dt", "t_end", "sample_every", "tol"},
    "output": {"directory", "series", "snapshots"},
    "sweep": {"parameter", "values"},
}

_DEFAULT_T_END = {"ode": 8.0, "rd": 5.0, "sweep": 5.0, "spectral_gap": 1.0}


def _sample_points(n_cells: int, domain_length: float) -> np.ndarray:
    """Cell centres and faces of the grid, bitwise as the generator builds them."""
    return np.arange(2 * n_cells + 1) * (0.5 * (domain_length / n_cells))


def _check_profile(reader, path: str, expr: Expression, points) -> None:
    """Report a profile that cannot be evaluated or is not finite on the grid."""
    try:
        with np.errstate(all="ignore"):
            values = expr(points)
    except (ArithmeticError, TypeError) as exc:
        # TypeError: a negative base to a fractional power gives a complex.
        reader.report("arithmetic-error", path,
                      f"cannot evaluate '{expr.text}': {exc}")
        return
    if not np.all(np.isfinite(values)):
        reader.report("non-finite-profile", path,
                      f"'{expr.text}' is not finite on the grid")


def _network_paths(exc: NetworkError) -> list[str]:
    """Config fields of the reaction rule that ``exc`` reports broken."""
    if exc.side == "rates":
        return [("network.l", "network.k")[i] for i in exc.indices]
    key = "network.alpha" if exc.side == "reactants" else "network.beta"
    if exc.code == "catalyzer-species":
        return [f"{key}[{i}]" for i in exc.indices]
    return [key]


class _Reader:
    """Typed section/key access that records issues instead of raising."""

    def __init__(self, parser: configparser.ConfigParser, issues: list):
        self.parser = parser
        self.issues = issues

    def report(self, code, path, message):
        self.issues.append(ConfigIssue(code, path, message))

    def raw(self, section, key, default=None, required=False):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        if required:
            self.report("missing-field", f"{section}.{key}", "required key is missing")
        return default

    def number(self, section, key, default=None, required=False, positive=False):
        text = self.raw(section, key, None, required)
        if text is None:
            return default
        try:
            value = float(text)
        except ValueError:
            self.report("bad-value", f"{section}.{key}", f"not a number: '{text}'")
            return default
        if positive and not (value > 0 and math.isfinite(value)):
            self.report("bad-value", f"{section}.{key}",
                        "must be positive and finite")
            return default
        return value

    def integer(self, section, key, default=None, required=False, minimum=None,
                maximum=None):
        value = self.number(section, key, None, required)
        if value is None:
            return default
        if not math.isfinite(value) or value != int(value):
            self.report("bad-value", f"{section}.{key}", "must be an integer")
            return default
        value = int(value)
        if minimum is not None and value < minimum:
            self.report("bad-value", f"{section}.{key}", f"must be >= {minimum}")
            return default
        if maximum is not None and value > maximum:
            self.report("bad-value", f"{section}.{key}", f"must be <= {maximum}")
            return default
        return value

    def flag(self, section, key, default):
        text = self.raw(section, key)
        if text is None:
            return default
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        self.report("bad-value", f"{section}.{key}", f"not a boolean: '{text}'")
        return default

    def numbers(self, section, key, default=()):
        text = self.raw(section, key)
        if text is None:
            return None if default is None else tuple(default)
        try:
            return tuple(float(tok) for tok in text.split())
        except ValueError:
            self.report("bad-value", f"{section}.{key}",
                        f"not a space-separated number list: '{text}'")
            return tuple(default)

    def grid_sizes(self, section, key, default):
        """A strictly increasing list of at least two cell counts."""
        values = self.numbers(section, key, None)
        if values is None:
            return tuple(default)
        if (len(values) < 2
                or any(not 3 <= v <= MAX_CELLS or v != int(v) for v in values)
                or any(b <= a for a, b in zip(values, values[1:]))):
            self.report("bad-value", f"{section}.{key}",
                        f"must be at least two strictly increasing integers "
                        f"in 3..{MAX_CELLS}")
            return tuple(default)
        return tuple(int(v) for v in values)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a config; raises ConfigError listing every issue."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    issues: list[ConfigIssue] = []
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([ConfigIssue("syntax", "<file>", str(exc))]) from exc

    reader = _Reader(parser, issues)

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            reader.report("unknown-key", section, "unknown section")
            continue
        known = _KNOWN_KEYS[section]
        if known is None:
            continue
        for key in parser.options(section):
            if key not in known:
                reader.report("unknown-key", f"{section}.{key}", "unknown key")

    kind = reader.raw("scenario", "kind", required=True) \
        if parser.has_section("scenario") else None
    if not parser.has_section("scenario"):
        reader.report("missing-field", "scenario.kind", "required key is missing")
    if kind is not None and kind not in KINDS:
        reader.report("bad-value", "scenario.kind",
                      f"must be one of {', '.join(KINDS)}")
        kind = None
    scenario_id = reader.raw("scenario", "id", default="scenario") or "scenario"

    needs_network = kind in ("ode", "rd", "sweep", None)
    needs_diffusion = kind in ("rd", "sweep", "spectral_gap", None)

    alpha: tuple[float, ...] = ()
    network = None
    rate_forward = rate_backward = 1.0
    if needs_network:
        if not parser.has_section("network"):
            reader.report("missing-field", "network", "section is required")
        else:
            before = len(issues)
            if not parser.has_option("network", "alpha"):
                reader.report("missing-field", "network.alpha", "required key is missing")
            if not parser.has_option("network", "beta"):
                reader.report("missing-field", "network.beta", "required key is missing")
            alpha = reader.numbers("network", "alpha", ())
            beta = reader.numbers("network", "beta", ())
            # A list that is missing or does not parse is reported above.
            listed = len(issues) == before
            rate_forward = reader.number("network", "l", default=1.0, positive=True)
            rate_backward = reader.number("network", "k", default=1.0, positive=True)
            if listed:
                try:
                    network = build_network(alpha, beta, rate_forward,
                                            rate_backward)
                except NetworkError as exc:
                    for path in _network_paths(exc):
                        reader.report(exc.code, path, str(exc))

    n_cells = 200
    domain_length = 1.0
    potential = "0"
    diffusivity = "1"
    refinement: tuple[int, ...] = (50, 100, 200, 400)
    if needs_diffusion and parser.has_section("diffusion"):
        n_cells = reader.integer("diffusion", "n", default=200, minimum=3,
                                 maximum=MAX_CELLS)
        domain_length = reader.number("diffusion", "domain_length",
                                      default=1.0, positive=True)
        potential = reader.raw("diffusion", "psi", default="0")
        diffusivity = reader.raw("diffusion", "diffusivity", default="1")
        refinement = reader.grid_sizes("diffusion", "refinement", refinement)
        points = _sample_points(n_cells, domain_length)
        varying = False
        for key, expr in (("psi", potential), ("diffusivity", diffusivity)):
            try:
                compiled = compile_expression(expr)
            except ExpressionError as exc:
                reader.report("bad-expression", f"diffusion.{key}", str(exc))
                continue
            _check_profile(reader, f"diffusion.{key}", compiled, points)
            varying = varying or compiled.uses_x
        if varying:
            for key, cells in (("n", (n_cells,)), ("refinement", refinement)):
                if max(cells) > DENSE_MAX_CELLS:
                    reader.report(
                        "grid-too-large", f"diffusion.{key}",
                        "a psi or diffusivity that depends on x needs the "
                        f"dense eigenbasis, which allows at most "
                        f"{DENSE_MAX_CELLS} cells")
    elif kind == "spectral_gap" and not parser.has_section("diffusion"):
        reader.report("missing-field", "diffusion", "section is required")

    initial: tuple[str, ...] = ()
    if needs_network and alpha:
        q = len(alpha)
        if not parser.has_section("initial"):
            reader.report("missing-field", "initial", "section is required")
        else:
            exprs = []
            points = _sample_points(n_cells, domain_length)
            for i in range(1, q + 1):
                key = f"species_{i}"
                text_i = reader.raw("initial", key, required=True)
                if text_i is None:
                    continue
                try:
                    expr = compile_expression(text_i)
                except ExpressionError as exc:
                    reader.report("bad-expression", f"initial.{key}", str(exc))
                    continue
                if kind == "ode" and expr.uses_x:
                    reader.report("nonconstant-initial", f"initial.{key}",
                                  "well-mixed scenarios need constant initial data")
                _check_profile(reader, f"initial.{key}", expr, points)
                exprs.append(text_i)
            for key in parser.options("initial"):
                if not key.startswith("species_"):
                    reader.report("unknown-key", f"initial.{key}", "unknown key")
                else:
                    try:
                        index = int(key.split("_", 1)[1])
                    except ValueError:
                        index = -1
                    if not 1 <= index <= q:
                        reader.report("unknown-key", f"initial.{key}",
                                      f"species index out of range 1..{q}")
            initial = tuple(exprs)

    dt = reader.number("numerics", "dt", default=1e-3, positive=True)
    t_end = reader.number("numerics", "t_end",
                          default=_DEFAULT_T_END.get(kind or "rd", 5.0),
                          positive=True)
    sample_every = reader.integer("numerics", "sample_every", default=10, minimum=1)
    tol = reader.number("numerics", "tol", default=1e-10, positive=True)

    out_dir = reader.raw("output", "directory", default="out")
    write_series = reader.flag("output", "series", default=True)
    snapshot_times = reader.numbers("output", "snapshots", ())

    sweep_parameter = ""
    sweep_values: tuple[float, ...] = ()
    if kind == "sweep":
        if not parser.has_section("sweep"):
            reader.report("missing-field", "sweep", "section is required")
        else:
            sweep_parameter = reader.raw("sweep", "parameter", required=True) or ""
            if sweep_parameter and sweep_parameter != "mass_scale":
                reader.report("bad-value", "sweep.parameter",
                              "only 'mass_scale' sweeps are supported")
            sweep_values = reader.numbers("sweep", "values", ())
            if not sweep_values:
                reader.report("missing-field", "sweep.values",
                              "need at least one value")
            elif any(not (math.isfinite(v) and v > 0) for v in sweep_values):
                reader.report("bad-value", "sweep.values",
                              "values must be positive and finite")

    if kind in ("rd", "sweep"):
        members = max(len(sweep_values), 1)
        cell_steps = t_end / dt * len(alpha) * n_cells * members
        if cell_steps > MAX_CELL_STEPS:
            reader.report("too-many-steps", "numerics.t_end",
                          f"t_end/dt x species x cells x members is "
                          f"{cell_steps:.3g}, above the budget of "
                          f"{MAX_CELL_STEPS:.3g}")

    if kind == "ode" and not issues:
        # A well-mixed run takes t_end x rate / kinetics.SAMPLE_SPACING
        # samples (or RK45 steps), with the run's own pivot_reduction rate.
        # Data without a steady state are left for the run to report.
        v0 = [float(compile_expression(text)(0.0)) for text in initial]
        try:
            with np.errstate(all="ignore"):
                rate = pivot_reduction(network, v0).rate
        except (ValueError, RuntimeError):
            rate = math.nan
        if not math.isnan(rate):
            try:
                step_count(rate, t_end)
            except ValueError as exc:
                reader.report("too-many-steps", "numerics.t_end", str(exc))

    if issues:
        raise ConfigError(issues)

    return ScenarioConfig(
        kind=kind, scenario_id=scenario_id,
        reactants=tuple(network.reactants.tolist()) if network else (),
        products=tuple(network.products.tolist()) if network else (),
        rate_forward=rate_forward, rate_backward=rate_backward,
        n_cells=n_cells, domain_length=domain_length,
        potential=potential, diffusivity=diffusivity,
        initial=initial,
        dt=dt, t_end=t_end, sample_every=sample_every, tol=tol,
        out_dir=out_dir, write_series=write_series,
        snapshot_times=snapshot_times,
        refinement_cells=refinement,
        sweep_parameter=sweep_parameter, sweep_values=sweep_values,
    )


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config back to file form; parsing the result round-trips."""
    lines = ["[scenario]", f"kind = {cfg.kind}", f"id = {cfg.scenario_id}", ""]
    if cfg.reactants:
        lines += [
            "[network]",
            "alpha = " + " ".join(str(v) for v in cfg.reactants),
            "beta = " + " ".join(str(v) for v in cfg.products),
            f"l = {cfg.rate_forward!r}",
            f"k = {cfg.rate_backward!r}",
            "",
        ]
    lines += [
        "[diffusion]",
        f"n = {cfg.n_cells}",
        f"domain_length = {cfg.domain_length!r}",
        f"psi = {cfg.potential}",
        f"diffusivity = {cfg.diffusivity}",
        "refinement = " + " ".join(str(v) for v in cfg.refinement_cells),
        "",
    ]
    if cfg.initial:
        lines.append("[initial]")
        lines += [f"species_{i + 1} = {expr}" for i, expr in enumerate(cfg.initial)]
        lines.append("")
    lines += [
        "[numerics]",
        f"dt = {cfg.dt!r}",
        f"t_end = {cfg.t_end!r}",
        f"sample_every = {cfg.sample_every}",
        f"tol = {cfg.tol!r}",
        "",
        "[output]",
        f"directory = {cfg.out_dir}",
        f"series = {'true' if cfg.write_series else 'false'}",
    ]
    if cfg.snapshot_times:
        lines.append("snapshots = " + " ".join(repr(t) for t in cfg.snapshot_times))
    if cfg.kind == "sweep":
        lines += ["", "[sweep]", f"parameter = {cfg.sweep_parameter}",
                  "values = " + " ".join(repr(v) for v in cfg.sweep_values)]
    return "\n".join(lines) + "\n"
