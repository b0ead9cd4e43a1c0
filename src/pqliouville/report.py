"""Deterministic report records and atomic file output.

Reports serialize as one compact line with sorted keys and stable float
repr, so identical configurations produce byte-identical files; compact
output lets ``json`` use its C encoder, which it skips whenever
``indent`` is set.  Wall-clock timings are collected but only emitted
when explicitly requested, to keep the default output reproducible.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence
from typing import NamedTuple

from .classify import ROW_KEYS
from .params import expand_instances
from .thresholds import ProductThresholds, SumThresholds

# Schema 3: no stored array that other stored fields determine (plot-data
# rebuilds the solve-radial mesh and gradient profile and the search-b
# oracle curve), and config_echo holds only options the command reads.
# Schema 4: classify and sweep conditions are [template index, passed,
# values] into a top-level condition_templates table, and solve-radial rows
# drop du, which is np.diff(u) / h on the rebuilt mesh.
# Schema 5: classify and sweep rows drop instance (config_echo.params, the
# merged parameter map, gives it back) and their null keys, and no row
# stores a key whose value never varies (_DROPPED_CONSTANTS).
SCHEMA_VERSION = 5

# Constant keys schema 5 stopped writing, by the row entry that held them.
_DROPPED_CONSTANTS = {"selection": {"epsilon_used": 0.0}, "report": {"constant": None}}


class ConditionTemplates(dict):
    """Index of (theorem, label, template) keys in first-use order.

    `templates[key]` returns the key's index, appending a key it has not
    seen, so a report lists only the templates its rows use.
    """

    def __missing__(self, key: tuple[str, str, str]) -> int:
        self[key] = index = len(self)
        return index

    def table(self) -> list[list[str]]:
        """The `condition_templates` entries: [theorem, label, template] by index."""
        return [list(key) for key in self]


def load(report: dict) -> dict:
    """A parsed report of any schema (1 to 5) in one in-memory form.

    The result rows come back as schema 3 wrote them, with what other
    schemas leave out put back: a classify or sweep row gets its
    `instance` (rebuilt from the echoed parameter map and the row index),
    its null keys and empty `matches` (from classify.ROW_KEYS and the
    ProductThresholds and SumThresholds fields), and its conditions as
    {theorem, label, rendering, passed} dicts; a selection gets
    `epsilon_used` and an identity report `constant` back; a solve-radial
    row gets `r` and `du` rebuilt (RadialSolution.from_row), ignoring any
    stored copy.  The other top-level entries are kept;
    `condition_templates` is consumed.  The input is not modified.
    """
    table = report.get("condition_templates")
    instances = None
    rows = []
    for index, row in enumerate(report["results"]):
        row = dict(row)
        if "conditions" in row:
            if "instance" not in row:
                if instances is None:
                    instances = expand_instances(report["config_echo"]["params"])
                row["instance"] = instances[index].as_dict()
            if table is not None:
                conditions = []
                for template_index, passed, values in row["conditions"]:
                    theorem, label, template = table[template_index]
                    conditions.append({"theorem": theorem, "label": label,
                                       "rendering": template.format(*values), "passed": passed})
                row["conditions"] = conditions
            row.setdefault("matches", [])
            for key in ROW_KEYS:
                row.setdefault(key, None)
            for key, record in (("product_thresholds", ProductThresholds),
                                ("sum_thresholds", SumThresholds)):
                if row[key] is not None:
                    row[key] = {**dict.fromkeys(record._fields), **row[key]}
        for key, constants in _DROPPED_CONSTANTS.items():
            if isinstance(row.get(key), dict):
                row[key] = {**constants, **row[key]}
        if "radial" in row:
            from .radial import RadialSolution

            sol = RadialSolution.from_row(row)
            row["r"], row["du"] = sol.r.tolist(), sol.du.tolist()
        rows.append(row)
    loaded = dict(report, results=rows)
    loaded.pop("condition_templates", None)
    return loaded


class Report(NamedTuple):
    tool_version: str
    config_echo: dict
    results: list
    timing: Sequence[dict] = ()
    condition_templates: Sequence[list] = ()

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config_echo": self.config_echo,
            "results": self.results,
        }
        if self.condition_templates:
            out["condition_templates"] = self.condition_templates
        if include_timing:
            out["timing"] = self.timing
        return out

    def to_json(self, include_timing: bool = False) -> str:
        text = json.dumps(self.as_dict(include_timing), sort_keys=True, separators=(",", ":"))
        return text + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
