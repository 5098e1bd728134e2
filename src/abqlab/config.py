"""Experiment configuration: JSON schema, validation and object builders."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import math
import numbers

import numpy as np

from . import acquisition, kernels, transforms
from .domain import (
    AffineMean,
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    TabulatedDensity,
    TruncatedGaussianDensity,
    UniformDensity,
)
from .engine import MAX_DIM, ORACLE_MIN_PER_DIM, Problem
from .exceptions import ConfigError

SCHEMA_VERSION = "1"

_DENSITY_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["uniform", "truncated-gaussian", "tabulated"]},
        "center": {"type": "array", "items": {"type": "number"}},
        "scale": {"type": "array", "items": {"type": "number"}},
        "values": {"type": "array"},
    },
    "required": ["kind"],
    "additionalProperties": False,
    "if": {"properties": {"kind": {"const": "tabulated"}}},
    "then": {"required": ["values"]},
}

_KERNELS = {
    "squared-exponential": kernels.SquaredExponential,
    "matern": kernels.Matern,
    "inverse-multiquadric": kernels.InverseMultiquadric,
    "wendland": kernels.Wendland,
}
_OUTERS = {"power": acquisition.Power, "expm1": acquisition.Expm1}
_RULES = {"constant": acquisition.ConstantRule, "wsabi_l": acquisition.WsabiL,
          "wsabi_m": acquisition.WsabiM, "mmlt": acquisition.Mmlt, "vbmc": acquisition.Vbmc}
_MEANS = {"constant": ConstantMean, "affine": AffineMean}

# a dataclass field's JSON schema, by its annotation
_FIELD_SCHEMAS = {"int": {"type": "integer"}, "float": {"type": "number"},
                  "tuple": {"type": "array", "items": {"type": "number"}}}


def _block_schema(key, classes):
    """The schema of a block that names one of `classes` by `key`: its other
    keys are every class's dataclass fields in order, each typed by its
    annotation, and a `density` field is a density block."""
    return {
        "type": "object",
        "properties": {
            key: {"enum": list(classes)},
            **{f.name: _DENSITY_SCHEMA if f.name == "density" else _FIELD_SCHEMAS[f.type]
               for cls in classes.values() for f in dataclasses.fields(cls)},
        },
        "required": [key],
        "additionalProperties": False,
    }


_BUILTIN_INTEGRANDS = {
    # relative center positions and raw weights, scaled to the domain
    "two-bumps": ([[0.25], [0.7]], [0.5, -0.3]),
    "left-cluster": ([[0.12], [0.28]], [1.5, 1.0]),
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "domain": {
            "type": "object",
            "properties": {
                "lower": {"type": "array", "items": {"type": "number"},
                          "minItems": 1, "maxItems": MAX_DIM},
                "upper": {"type": "array", "items": {"type": "number"},
                          "minItems": 1, "maxItems": MAX_DIM},
            },
            "required": ["lower", "upper"],
            "additionalProperties": False,
        },
        "kernel": _block_schema("family", _KERNELS),
        "mean": _block_schema("kind", _MEANS),
        "transform": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["identity", "square", "exponential"]},
                "alpha": {"type": ["number", "null"]},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "integrand": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["synthetic", "builtin"]},
                "centers": {"type": "array"},
                "weights": {"type": "array", "items": {"type": "number"}},
                "name": {"enum": list(_BUILTIN_INTEGRANDS)},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "pi": _DENSITY_SCHEMA,
        "acquisition": {
            "type": "object",
            "properties": {
                "outer": _block_schema("kind", _OUTERS),
                "q": _DENSITY_SCHEMA,
                "b": _block_schema("kind", _RULES),
                "gamma_tilde": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
            "required": ["outer", "q", "b", "gamma_tilde"],
            "additionalProperties": False,
        },
        "budget": {"type": "integer", "minimum": 0},
        "grids": {
            "type": "object",
            "properties": {
                "certificate": {"type": "integer", "minimum": 16},
                "oracle": {"type": "integer", "minimum": ORACLE_MIN_PER_DIM},
            },
            "additionalProperties": False,
        },
        "output_dir": {"type": "string"},
        "matrix": {
            "type": "object",
            "additionalProperties": {"type": "array", "minItems": 1},
        },
    },
    "required": [
        "version", "domain", "kernel", "mean", "transform", "integrand", "pi",
        "acquisition", "budget",
    ],
    "additionalProperties": False,
}


def load_config(path):
    def finite(parse):
        # json takes NaN, Infinity and -Infinity, 1e400 overflows to inf, an
        # integer past 1.8e308 overflows where it meets a float, and int()
        # refuses one of more than 4300 digits
        def hook(token):
            try:
                value = parse(token)
                if math.isfinite(value):
                    return value
            except (OverflowError, ValueError):
                pass
            shown = token if len(token) <= 20 else f"{token[:12]}... ({len(token)} chars)"
            raise ConfigError(f"{path}: non-finite number {shown}")
        return hook

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=finite(float), parse_int=finite(int),
                            parse_constant=finite(float))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    validate_config(raw)
    return raw


def validate_config(raw):
    """Raise ConfigError for the error jsonschema.validate(raw, CONFIG_SCHEMA)
    would raise, with its path and message."""
    best = max(_schema_errors(raw, CONFIG_SCHEMA), key=_relevance, default=None)
    if best is not None:
        path = "/".join(str(p) for p in best[0]) or "<root>"
        raise ConfigError(f"config field {path}: {best[1]}")


def _relevance(error):
    # jsonschema.exceptions.relevance: the shallowest path wins, then the
    # largest, then an error whose own schema's "type" the value breaks; on a
    # tie max() keeps the first error, as best_match does
    path, _, breaks_type = error
    return -len(path), path, breaks_type


def _is_type(value, name):
    # JSON types as jsonschema checks them: a bool is not a number, and a
    # float with no fractional part is an integer
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "null":
        return value is None
    if isinstance(value, bool):
        return False
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    return isinstance(value, numbers.Number)


def _equal(value, expected):
    return value == expected and isinstance(value, bool) == isinstance(expected, bool)


def _schema_errors(value, schema, path=()):
    """Yield (path, message, breaks_type) for each keyword of `schema` that
    `value` breaks, in jsonschema's order (the schema's key order, depth
    first) and with its message texts. Only the keywords in _KEYWORDS are
    checked."""
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    breaks_type = not any(_is_type(value, t) for t in types)
    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _is_type(value, "number")
    for keyword, rule in schema.items():
        message = None
        if keyword == "type":
            if breaks_type:
                message = f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if not any(_equal(value, each) for each in rule):
                message = f"{value!r} is not one of {rule!r}"
        elif keyword == "const":
            if not _equal(value, rule):
                message = f"{rule!r} was expected"
        elif keyword == "properties" and is_object:
            for name, sub in rule.items():
                if name in value:
                    yield from _schema_errors(value[name], sub, path + (name,))
        elif keyword == "required" and is_object:
            for name in rule:
                if name not in value:
                    yield path, f"{name!r} is a required property", breaks_type
        elif keyword == "additionalProperties" and is_object:
            extras = [k for k in value if k not in schema.get("properties", {})]
            if isinstance(rule, dict):
                for name in extras:
                    yield from _schema_errors(value[name], rule, path + (name,))
            elif not rule and extras:
                listed = ", ".join(repr(k) for k in sorted(extras, key=str))
                verb = "was" if len(extras) == 1 else "were"
                message = ("Additional properties are not allowed "
                           f"({listed} {verb} unexpected)")
        elif keyword == "items" and is_array:
            for index, item in enumerate(value):
                yield from _schema_errors(item, rule, path + (index,))
        elif keyword == "minItems" and is_array and len(value) < rule:
            message = repr(value) + (" should be non-empty" if rule == 1
                                     else " is too short")
        elif keyword == "maxItems" and is_array and len(value) > rule:
            message = repr(value) + (" is expected to be empty" if rule == 0
                                     else " is too long")
        elif keyword == "minimum" and is_number and value < rule:
            message = f"{value!r} is less than the minimum of {rule!r}"
        elif keyword == "maximum" and is_number and value > rule:
            message = f"{value!r} is greater than the maximum of {rule!r}"
        elif keyword == "exclusiveMinimum" and is_number and value <= rule:
            message = f"{value!r} is less than or equal to the minimum of {rule!r}"
        elif (keyword == "if" and "then" in schema
              and next(_schema_errors(value, rule), None) is None):
            yield from _schema_errors(value, schema["then"], path)
        if message is not None:
            yield path, message, breaks_type


# the keywords _schema_errors checks ("then" through "if"); a test fails on
# any other keyword in CONFIG_SCHEMA
_KEYWORDS = frozenset({
    "type", "enum", "const", "properties", "required", "additionalProperties",
    "items", "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum",
    "if", "then",
})


def expand_matrix(raw):
    """Cartesian expansion of the optional matrix block into (directory tag,
    flat config) pairs. Two combos with one tag raise ConfigError."""
    matrix = raw.get("matrix")
    if not matrix:
        return [("", raw)]
    keys = sorted(matrix)
    combos = {}
    for values in itertools.product(*(matrix[k] for k in keys)):
        cfg = copy.deepcopy(raw)
        cfg.pop("matrix", None)
        tags = []
        for key, value in zip(keys, values):
            _set_dotted(cfg, key, value)
            tags.append(f"{key.split('.')[-1]}={value}")
        tag = "__".join(tags)
        if tag in combos:
            raise ConfigError(f"matrix gives two combos the directory {tag!r}")
        combos[tag] = cfg
    return list(combos.items())


def _set_dotted(cfg, dotted, value):
    node = cfg
    *parents, last = dotted.split(".")
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"matrix key {dotted!r}: {part!r} is not an object")
    node[last] = value


def build_domain(raw):
    return Domain(tuple(raw["domain"]["lower"]), tuple(raw["domain"]["upper"]))


def build_kernel(raw):
    params = dict(raw["kernel"])
    family = params.pop("family")
    cls = _KERNELS[family]
    foreign = sorted(set(params) - {f.name for f in dataclasses.fields(cls)})
    if foreign:
        raise ValueError(f"kernel family {family} takes no {', '.join(foreign)}")
    if len(raw["domain"]["lower"]) > cls.max_dim:
        raise ValueError(f"kernel family {family} is positive definite in d <= "
                         f"{cls.max_dim} only, not d = {len(raw['domain']['lower'])}")
    return cls(**params)


def _build(spec, classes, **given):
    """The instance of the class `spec["kind"]` names, given the spec's keys
    that are its fields; a field named in `given` takes what the function
    there returns instead. Keys of the block's other kinds are ignored."""
    cls = classes[spec["kind"]]
    names = [f.name for f in dataclasses.fields(cls)]
    return cls(**{name: given[name]() if name in given else spec[name]
                  for name in names if name in given or name in spec})


def build_mean(raw, dom):
    spec = raw["mean"]

    def slope():
        values = spec.get("slope", [0.0] * dom.dim)
        if len(values) != dom.dim:
            raise ValueError(f"mean slope has {len(values)} entries "
                             f"in domain dimension {dom.dim}")
        return tuple(values)
    return _build(spec, _MEANS, slope=slope)


def build_density(spec, dom):
    kind = spec["kind"]
    if kind == "uniform":
        return UniformDensity(dom)
    if kind == "truncated-gaussian":
        center = spec.get("center", [(a + b) / 2 for a, b in zip(dom.lower, dom.upper)])
        scale = spec.get("scale", [(b - a) / 3 for a, b in zip(dom.lower, dom.upper)])
        return TruncatedGaussianDensity(dom, center, scale)
    values = np.asarray(spec["values"], dtype=float)
    return TabulatedDensity(dom, values)


def _integrand_geometry(raw, dom):
    spec = raw["integrand"]
    if spec["kind"] == "synthetic":
        centers = np.atleast_2d(np.asarray(spec["centers"], dtype=float))
        if centers.size and (centers.ndim != 2 or centers.shape[1] != dom.dim):
            raise ValueError(f"integrand centers of shape {centers.shape} "
                             f"in domain dimension {dom.dim}")
        return centers, np.asarray(spec["weights"], dtype=float)
    rel, weights = _BUILTIN_INTEGRANDS[spec["name"]]
    lo = np.asarray(dom.lower)
    widths = dom.widths
    rel = np.asarray(rel, dtype=float)
    if rel.shape[1] != dom.dim:
        rel = np.repeat(rel, dom.dim, axis=1)
    centers = lo + rel * widths
    return centers, np.asarray(weights, dtype=float)


def build_transform(raw, probe_latent):
    """The config's warp; `probe_latent()` gives the latent function on the
    domain's probe grid, which only a square warp with no alpha reads."""
    spec = raw["transform"]
    kind = spec["kind"]
    if kind == "identity":
        return transforms.Identity()
    if kind == "exponential":
        return transforms.Exponential()
    alpha = spec.get("alpha")
    if alpha is None:
        # alpha = 0.8 * min f, solved for f = alpha + y^2/2: alpha = 4 min(y^2/2);
        # the warp's inverse takes the nonnegative root, so a latent that is
        # not positive everywhere would be observed folded
        latent = probe_latent()
        alpha = 4.0 * float(np.min(0.5 * latent ** 2))
        if alpha <= 0 or np.min(latent) <= 0.0:
            raise ConfigError("square transform needs an explicit alpha when the "
                              "latent function is not positive everywhere")
    return transforms.Square(alpha=float(alpha))


def build_problem(raw):
    """Resolve a flat (matrix-expanded) config into runnable objects; a value
    that an object rejects (a degenerate box, a Matern nu that is not a half
    integer, a nonpositive scale) is a ConfigError."""
    try:
        return _build_problem(raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_problem(raw):
    dom = build_domain(raw)
    kernel = build_kernel(raw)
    mean = build_mean(raw, dom)
    centers, weights = _integrand_geometry(raw, dom)
    integrand = SyntheticIntegrand(centers=centers, weights=weights,
                                   prior_mean=mean, kernel=kernel,
                                   transform=transforms.Identity())
    # the latent function does not read the warp, so it can decide the warp
    integrand = dataclasses.replace(integrand, transform=build_transform(
        raw, lambda: integrand.latent(dom.probe_grid())))
    pi = build_density(raw["pi"], dom)
    acq_raw = raw["acquisition"]
    outer = _build(acq_raw["outer"], _OUTERS)
    q = build_density(acq_raw["q"], dom)
    b = _build(acq_raw["b"], _RULES, density=lambda: build_density(
        acq_raw["b"].get("density", {"kind": "uniform"}), dom))
    spec = acquisition.AcquisitionSpec(outer=outer, q=q, b=b,
                                       gamma_tilde=acq_raw["gamma_tilde"])
    return Problem(integrand=integrand, pi=pi, domain=dom), spec
