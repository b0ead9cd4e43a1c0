"""Flat key/value parameter files with Cartesian grid lists.

Format: one `key = value` per line, `#` comments, values either a
single token or a whitespace/comma separated list (a grid).  A value
token naming another key ties the two (e.g. `q = p` sweeps q together
with p).  Instance keys: kind, N, p, q, s, m, M.  Radial keys: r0, r1,
u0, u1, mesh_n, reg_eps, log_transform.  Any other key is refused.  The
command line's instance and radial flags each give one raw token for
their key, read by the same rules as a file line.
"""

from __future__ import annotations

import itertools
import math
import operator

from .instance import KINDS, ProblemInstance

INSTANCE_KEYS = ("kind", "N", "p", "q", "s", "m", "M")
RADIAL_KEYS = ("r0", "r1", "u0", "u1", "mesh_n", "reg_eps", "log_transform")
KEYS = INSTANCE_KEYS + RADIAL_KEYS
MAX_INSTANCES = 1_000_000
# ProblemInstance's positional order, and the defaults of the keys a map may leave out.
_FIELDS = ProblemInstance._fields
_DEFAULTS = ProblemInstance._field_defaults
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ParamError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"parameter {field!r}: {message}")
        self.field = field


def parse_params(text: str) -> dict[str, list[str]]:
    """Parse the raw key -> token-list mapping, preserving file order."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"line {lineno}", "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        tokens = [t for t in value.replace(",", " ").split() if t]
        if not key:
            raise ParamError(f"line {lineno}", "empty key")
        if key not in KEYS:
            raise ParamError(key, f"unknown key; known keys: {', '.join(KEYS)}")
        if not tokens:
            raise ParamError(key, "empty value")
        if key in out:
            raise ParamError(key, "duplicate key")
        out[key] = tokens
    return out


def _float(key: str, token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParamError(key, f"not a number: {token!r}") from None


def expand_instances(params: dict[str, list[str]]) -> list[ProblemInstance]:
    """Cartesian expansion of the instance keys into validated instances.

    Grid order is the fixed key order (kind, N, p, q, s, m, M) with the
    last key varying fastest; tied keys (value naming another numeric key)
    copy that key's current grid value.  A grid of more than MAX_INSTANCES
    instances is refused before any instance is built, and every token is
    read once, before the first instance.  When a grid of several
    instances holds one that ProblemInstance refuses, the error names its
    0-based grid index and its values.
    """
    if "kind" not in params:
        raise ParamError("kind", "missing")
    for kind in params["kind"]:
        if kind not in KINDS:
            raise ParamError("kind", f"unknown kind {kind!r}")
    grids: dict[str, list[str]] = {}
    ties: dict[str, str] = {}
    for key in INSTANCE_KEYS:
        if key not in params:
            continue
        tokens = params[key]
        if len(tokens) == 1 and tokens[0] in INSTANCE_KEYS[1:] and tokens[0] != key:
            ties[key] = tokens[0]
        else:
            grids[key] = tokens
    for key, target in ties.items():
        if target not in params or target in ties:
            raise ParamError(key, f"tied to unavailable key {target!r}")
    count = math.prod(map(len, grids.values()))
    if count > MAX_INSTANCES:
        raise ParamError("grid", f"{count:,} instances exceed the limit of {MAX_INSTANCES:,}")
    for required in ("N", "p", "q"):
        if required not in params:
            raise ParamError(required, "missing")
    values = {key: tokens if key == "kind" else [_float(key, t) for t in tokens]
              for key, tokens in grids.items()}
    # An absent key is a one-value column holding its default; a tied key
    # reads its target's column.
    for key, default in _DEFAULTS.items():
        if key not in ties:
            values.setdefault(key, [default])
    columns = list(values)
    pick = operator.itemgetter(*(columns.index(ties.get(key, key)) for key in _FIELDS))

    out: list[ProblemInstance] = []
    for combo in itertools.product(*values.values()):
        args = pick(combo)
        try:
            out.append(ProblemInstance(*args))
        except ValueError as exc:
            if count == 1:
                raise ParamError("instance", str(exc)) from None
            point = ", ".join(f"{key}={value}" for key, value in zip(_FIELDS, args))
            message = f"grid index {len(out)} of {count:,} ({point}): {exc}"
            raise ParamError("instance", message) from None
    return out


def radial_settings(params: dict[str, list[str]]) -> dict:
    """Scalar radial-problem settings from the parameter map."""
    out: dict = {}
    for key in RADIAL_KEYS:
        if key not in params:
            continue
        tokens = params[key]
        if len(tokens) != 1:
            raise ParamError(key, "radial settings must be scalars")
        if key == "mesh_n":
            value = _float(key, tokens[0])
            if not value.is_integer():
                raise ParamError(key, f"not an integer: {tokens[0]!r}")
            out[key] = int(value)
        elif key == "log_transform":
            flag = tokens[0].lower()
            if flag not in _SWITCH_VALUES:
                raise ParamError(key, f"expected 1/true/yes or 0/false/no, got {tokens[0]!r}")
            out[key] = _SWITCH_VALUES[flag]
        else:
            out[key] = _float(key, tokens[0])
    return out
