"""Deterministic report records and atomic file output.

Reports serialize as one compact line with sorted keys and stable float
repr, so identical configurations produce byte-identical files; compact
output lets ``json`` use its C encoder, which it skips whenever
``indent`` is set.  The encoder also skips its cycle check: a report's
lists and dicts come from records and never hold themselves.  Wall-clock
timings are collected but only emitted when explicitly requested, to
keep the default output reproducible.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from collections.abc import Sequence
from typing import NamedTuple

SCHEMA_VERSION = 5


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
        """The report as one compact line with sorted keys.

        `check_circular=False`: a report's lists and dicts are built from
        records and never hold themselves, so the check could only find
        nothing, at the cost of tracking every container it visits.
        """
        text = json.dumps(self.as_dict(include_timing), sort_keys=True, separators=(",", ":"),
                          check_circular=False)
        return text + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename.

    The file gets the mode a plain open would give it: an existing
    target keeps its mode, a new one gets 0o666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
