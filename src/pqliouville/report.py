"""Deterministic report records, atomic file output and the CPU count.

Reports serialize as one compact line with sorted keys and stable float
repr, so identical configurations produce byte-identical files; compact
output lets ``json`` use its C encoder, which it skips whenever
``indent`` is set.  The encoder also skips its cycle check: a report's
lists and dicts come from records and never hold themselves.  Wall-clock
timings are collected but only emitted when explicitly requested, to
keep the default output reproducible.

A classify or sweep report writes each distinct hypothesis condition
once, in its top-level `conditions` table (a `ConditionTable`), and each
row's `conditions` are indices into it (schema 6); on a sweep most
conditions repeat.  Since schema 7 a row stores no threshold record: each
is a function of the row's instance, and every threshold a verdict
compares is among the values of the row's conditions.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from collections.abc import Sequence
from typing import NamedTuple

SCHEMA_VERSION = 7


def worker_count() -> int:
    """The CPUs this process may run on: sweep row workers, grid-kernel threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class ConditionTable(dict):
    """Each distinct hypothesis condition of one report once, in first-use order.

    `indices` returns the index of each (theorem, label, template, values,
    passed) condition and numbers those it has not seen; `entries` lists
    them by index, as `[theorem, label, template, passed, values]`, for the
    report's `conditions` table.  Two conditions share an index exactly
    when they write the same JSON.  Python equality is looser: 0.0 == -0.0
    and NaN equals nothing.  So a condition whose values hold a zero or NaN
    is keyed by the repr of its values, which tells those apart as JSON
    does; any other condition is its own key.  Values are floats: a
    `ProblemInstance` stores its fields as floats, so none is an int,
    which would equal the float of the same value.
    """

    def __init__(self):
        super().__init__()
        self.entries: list[list] = []

    def __missing__(self, condition) -> int:
        # A condition holding a zero or NaN is never stored as its own key,
        # so its lookup always lands here and goes on by the repr of its
        # values, never to a zero of the other sign.
        theorem, label, template, values, passed = condition
        key = condition
        for value in values:
            if value == 0.0 or value != value:
                key = (theorem, label, template, repr(values), passed)
                index = self.get(key)
                if index is not None:
                    return index
                break
        self[key] = index = len(self.entries)
        self.entries.append([theorem, label, template, passed, list(values)])
        return index

    def indices(self, conditions) -> list[int]:
        """The indices of `conditions`, numbering new ones."""
        return list(map(self.__getitem__, conditions))

    def merge(self, entries) -> list[int]:
        """The indices here of another table's `entries`, numbering new ones."""
        return self.indices([(theorem, label, template, tuple(values), passed)
                             for theorem, label, template, passed, values in entries])


class Report(NamedTuple):
    tool_version: str
    config_echo: dict
    results: list
    timing: Sequence[dict] = ()
    conditions: Sequence[list] = ()

    def as_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config_echo": self.config_echo,
            "results": self.results,
        }
        if self.conditions:
            out["conditions"] = self.conditions
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
