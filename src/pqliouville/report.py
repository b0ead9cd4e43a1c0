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
from dataclasses import dataclass, field

# Schema 3: no stored array that other stored fields determine (plot-data
# rebuilds the solve-radial mesh and gradient profile and the search-b
# oracle curve), and config_echo holds only options the command reads.
SCHEMA_VERSION = 3


@dataclass
class Report:
    tool_version: str
    config_echo: dict
    results: list
    timing: list = field(default_factory=list)

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config_echo": self.config_echo,
            "results": self.results,
        }
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
