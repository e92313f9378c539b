"""Plain key = value configuration files.

The format is INI-style text; sections are allowed for organization
but ignored (all keys share one namespace), and a file without section
headers is accepted as-is.  Unknown keys and out-of-range values are
rejected with the offending key named, so a run is fully determined by
an auditable flat dictionary; :func:`parse_config` echoes every
resolved value (defaults applied) for the run manifest.

Drift overrides may be given as expression strings in the variables
``x`` and ``y`` over the scalar vocabulary sin, cos, sqrt, abs,
+, -, *, /, parentheses, ``pi`` and numeric constants, with operators
nested at most ``MAX_DRIFT_DEPTH`` (100) deep; they are compiled to
vectorized grid evaluators.  A division by zero such as
``1/(x-x)`` is not rejected here: it evaluates to inf or NaN, which the
assumption checker reports as A1 failing and every integrator rejects
with the grid point named.  Constants are numpy float64, so a constant
division by zero such as ``1/0`` gives inf rather than a crash.  An
expression is evaluated with numpy's floating-point warnings off, so
the checker's or the integrator's report is the only one.  Regularity constants for overridden
drifts should be declared via the alpha/beta/gamma/l_f/bound_b/bound_f
keys.  Float values must be finite.
"""

from __future__ import annotations

import ast
import configparser
import math
import operator
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import DriftFn, ModelConfig, heat_example
from .simulate import StepScheme

__all__ = ["ResolvedConfig", "parse_config", "parse_drift_expression"]

# numpy scalars: a constant division by zero gives inf, as on the grid
_PI = np.float64(math.pi)
_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "abs": np.abs}
_ALLOWED_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv}
# Each level compiles to one nested lambda, so the cap bounds the stack an
# evaluation needs wherever an integrator calls it.  Parentheses add no level.
MAX_DRIFT_DEPTH = 100


def parse_drift_expression(expr: str) -> DriftFn:
    """Compile an expression in x, y to a pointwise grid evaluator."""

    def build(node, depth=0):
        if depth > MAX_DRIFT_DEPTH:
            raise ConfigError(f"drift expression {expr[:60]!r} nests deeper "
                              f"than {MAX_DRIFT_DEPTH} levels")
        if isinstance(node, ast.Expression):
            return build(node.body, depth)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            v = np.float64(node.value)
            return lambda x, y: v
        if isinstance(node, ast.Name):
            if node.id == "x":
                return lambda x, y: x
            if node.id == "y":
                return lambda x, y: y
            if node.id == "pi":
                return lambda x, y: _PI
            raise ConfigError(f"unknown name {node.id!r} in drift expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = build(node.operand, depth + 1)
            return lambda x, y: -inner(x, y)
        if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
            op = _ALLOWED_BINOPS[type(node.op)]
            left, right = build(node.left, depth + 1), build(node.right, depth + 1)
            return lambda x, y: op(left(x, y), right(x, y))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname not in _ALLOWED_FUNCS or len(node.args) != 1 or node.keywords:
                raise ConfigError(f"unsupported call {fname!r} in drift expression")
            fn = _ALLOWED_FUNCS[fname]
            arg = build(node.args[0], depth + 1)
            return lambda x, y: fn(arg(x, y))
        raise ConfigError(
            f"unsupported syntax in drift expression: {ast.dump(node)[:60]}"
        )

    try:
        # a SyntaxWarning (from "1if", say) is raised as a SyntaxError
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            root = build(ast.parse(expr, mode="eval"))
    # RecursionError: deep nesting; ValueError: a NUL byte before Python 3.12;
    # OverflowError: an integer literal too large for a float
    except (SyntaxError, RecursionError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"cannot parse drift expression {expr[:60]!r}: {exc}") from exc

    def drift(x, y):
        # inf and NaN are reported by the checker and the integrators
        with np.errstate(all="ignore"):
            return root(x, y)
    return drift


# key -> (python type, default); None default means "required by some commands"
_KEYS: dict[str, tuple[type, object]] = {
    "model": (str, "heat_example"),
    "r1": (float, 0.1),
    "r2": (float, 0.1),
    "n_modes": (int, 32),
    "m_points": (int, None),
    "theta": (float, 0.55),
    "seed": (int, 2026),
    "eps": (float, None),
    "t_final": (float, 1.0),
    "dt": (float, 1e-3),
    "fast_substep_factor": (float, 0.1),
    "t_burn": (float, None),
    "t_avg": (float, 40.0),
    "dt_frozen": (float, 0.02),
    "replicas": (int, 4),
    "n_mc": (int, 200),
    "drift_b": (str, None),
    "drift_f": (str, None),
    "alpha": (float, None),
    "beta": (float, None),
    "gamma": (float, None),
    "l_f": (float, None),
    "bound_b": (float, None),
    "bound_f": (float, None),
}


@dataclass
class ResolvedConfig:
    """Validated parameter set with defaults applied and echoed."""

    model: ModelConfig
    scheme: StepScheme
    theta: float
    seed: int
    eps: float | None
    t_final: float
    t_burn: float | None
    t_avg: float
    dt_frozen: float
    replicas: int
    n_mc: int
    echo: dict = field(default_factory=dict)


def _coerce(key: str, raw: str):
    typ, _ = _KEYS[key]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc


def parse_config(path, overrides: dict | None = None) -> ResolvedConfig:
    """Read, validate and resolve a configuration file.

    ``overrides`` (from CLI flags) take precedence over file values;
    every value, default or not, lands in ``echo``.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped.startswith("["):
        text = "[root]\n" + text
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            key = key.strip().lower()
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            if key in flat:
                raise ConfigError(f"duplicate config key {key!r}")
            flat[key] = raw.strip()

    values: dict[str, object] = {k: d for k, (_, d) in _KEYS.items()}
    for key, raw in flat.items():
        values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        if val is not None:
            values[key] = val
    for key, (typ, _) in _KEYS.items():
        val = values[key]
        if typ is float and val is not None and not math.isfinite(val):
            raise ConfigError(f"key {key!r} must be finite, got {val}")

    if values["model"] != "heat_example":
        raise ConfigError(
            f"unknown model {values['model']!r}; available: heat_example"
        )
    if not 0.0 < values["theta"] < 1.0:
        raise ConfigError(f"theta must lie in (0, 1), got {values['theta']}")
    if values["eps"] is not None and not 0.0 < values["eps"] < 1.0:
        raise ConfigError(
            f"eps must lie in (0, 1) (two-scale ratio), got {values['eps']}"
        )

    model = heat_example(values["r1"], values["r2"], values["n_modes"],
                         m_points=values["m_points"])
    regularity = {}
    for key in ("alpha", "beta", "gamma", "l_f", "bound_b", "bound_f"):
        if values[key] is not None:
            regularity[key] = values[key]
    drift_over = {}
    for key in ("drift_b", "drift_f"):
        if values[key] is not None:
            drift_over[key] = parse_drift_expression(values[key])
    if regularity or drift_over:
        from dataclasses import replace

        model = replace(model, **drift_over, **regularity)

    scheme = StepScheme(dt_macro=values["dt"],
                        fast_substep_factor=values["fast_substep_factor"])
    echo = {k: values[k] for k in sorted(_KEYS)}
    echo["m_points"] = model.m_points
    return ResolvedConfig(
        model=model, scheme=scheme, theta=values["theta"], seed=values["seed"],
        eps=values["eps"], t_final=values["t_final"], t_burn=values["t_burn"],
        t_avg=values["t_avg"], dt_frozen=values["dt_frozen"],
        replicas=values["replicas"], n_mc=values["n_mc"], echo=echo,
    )
