"""The four closed-loop workloads: committed inputs, one op each, output checks.

An op is executed by `execute` (the timed part) and judged by `check`
(untimed), which returns a list of failure messages.  In-process ops look
pqliouville names up at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(BENCH_DIR, "inputs")

# Counts regimes in a sweep report in a child process, so that parsing a
# multi-megabyte report does not raise the workload's own peak RSS.
COUNT_REPORT = """
import collections, json, sys
rows = json.load(open(sys.argv[1]))["results"]
print(json.dumps({"rows": len(rows),
                  "theorems": dict(collections.Counter(r["theorem"] for r in rows))}))
"""


def read_json(name: str) -> dict:
    with open(os.path.join(INPUTS, name)) as fh:
        return json.load(fh)


def read_text(name: str) -> str:
    with open(os.path.join(INPUTS, name)) as fh:
        return fh.read()


def load_inputs(workload: str):
    """What set-up loads: the committed inputs, parsed."""
    if workload == "sweep":
        from pqliouville.params import parse_params

        cfg = read_json("sweep.json")
        return cfg, [parse_params(read_text(g["params"])) for g in cfg["grids"]]
    return read_json(f"{workload}.json")


@dataclass
class Op:
    name: str
    spec: dict
    known_exit: int | None = None


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def run_child(argv: list[str], timeout: float = 120.0, **popen) -> tuple[float, int, int]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in KiB).

    Waits with a blocking wait4, because Popen.wait with a timeout polls
    with sleeps of up to 50 ms, which would quantise the measured time; a
    timer kills a child that outlives the timeout.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, **popen)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def _timed_cli(argv: list[str]) -> tuple[float, int]:
    import pqliouville.cli

    start = time.perf_counter()
    code = pqliouville.cli.main(argv)
    return time.perf_counter() - start, code


class Workload:
    name = ""
    in_process = True

    def __init__(self, out_dir: str, tiny: bool, wrong_expected: bool):
        self.out_dir = out_dir
        self.tiny = tiny
        self.wrong_expected = wrong_expected
        self.child_rss_kb = 0

    def out_path(self, op: Op) -> str:
        return os.path.join(self.out_dir, f"{self.name}-{op.name}.json")

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, tracer=None) -> tuple[float, dict]:
        raise NotImplementedError

    def check(self, op: Op, outcome: dict) -> list[str]:
        raise NotImplementedError

    def report_bytes(self, op: Op, outcome: dict) -> int:
        return _file_size(self.out_path(op)) if outcome.get("cli") else 0


class Sweep(Workload):
    """One in-process `sweep` call per op, alternating the two committed grids."""

    name = "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        cfg = read_json("sweep.json")
        self.grids = cfg["tiny_grids" if self.tiny else "grids"]
        if self.wrong_expected:
            self.grids[0]["rows"] += 1
        self.digests: dict[str, str] = {}

    def cycle(self):
        return [Op(g["name"], g) for g in self.grids]

    def execute(self, op, tracer=None):
        argv = ["sweep", "--params", os.path.join(INPUTS, op.spec["params"]),
                "--out", self.out_path(op)]
        seconds, code = _timed_cli(argv)
        return seconds, {"cli": True, "code": code}

    def check(self, op, outcome):
        if outcome["code"] != 0:
            return [f"{op.name}: exit {outcome['code']}"]
        digest = _sha256(self.out_path(op))
        if op.name in self.digests:
            if digest != self.digests[op.name]:
                return [f"{op.name}: report bytes differ from the first pass"]
            return []
        self.digests[op.name] = digest
        done = subprocess.run([sys.executable, "-c", COUNT_REPORT, self.out_path(op)],
                              capture_output=True, text=True, timeout=170, check=True)
        counts = json.loads(done.stdout)
        expected = {"rows": op.spec["rows"], "theorems": op.spec["theorems"]}
        if counts != expected:
            return [f"{op.name}: regime counts {counts} != committed {expected}"]
        return []


class Single(Workload):
    """One fresh `python -m pqliouville.cli` process per op, one instance each."""

    name = "single"
    in_process = False

    def __init__(self, *args):
        super().__init__(*args)
        cfg = read_json("single.json")
        calls = cfg["calls"]
        if self.tiny:
            calls = [c for c in calls if c["name"] in cfg["tiny_calls"]]
        if self.wrong_expected:
            calls = [dict(calls[0], exit=calls[0]["exit"] + 1)] + calls[1:]
        self.calls = calls
        self.root = os.path.dirname(BENCH_DIR)

    def cycle(self):
        return [Op(c["name"], c, c.get("known_exit")) for c in self.calls]

    def execute(self, op, tracer=None):
        out = self.out_path(op)
        if os.path.exists(out):
            os.unlink(out)
        cli_args = [*op.spec["argv"], "--out", out]
        spans = os.path.join(self.out_dir, "child-spans.jsonl")
        if os.path.exists(spans):
            os.unlink(spans)
        if tracer is None:
            argv = [sys.executable, "-m", "pqliouville.cli", *cli_args]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans, *cli_args]
        err_path = os.path.join(self.out_dir, "child-stderr.txt")
        with open(err_path, "w") as err:
            seconds, code, rss_kb = run_child(argv, cwd=self.root, stdout=subprocess.DEVNULL,
                                              stderr=err)
        self.child_rss_kb = max(self.child_rss_kb, rss_kb)
        if tracer is not None:
            from tracing import load_spans

            tracer.extend(load_spans(spans), tracer.op)
        with open(err_path) as fh:
            stderr = fh.read().strip()
        return seconds, {"cli": True, "code": code, "stderr": stderr}

    def check(self, op, outcome):
        code, want = outcome["code"], op.spec["exit"]
        if code != want:
            return [f"{op.name}: exit {code}, expected {want}: {outcome['stderr'][:200]}"]
        if code == 0:
            try:
                with open(self.out_path(op)) as fh:
                    if not json.load(fh)["results"]:
                        return [f"{op.name}: empty report"]
            except (OSError, ValueError, KeyError) as exc:
                return [f"{op.name}: unreadable report: {exc}"]
        return []


def _mms_profile():
    import numpy as np

    amplitude, freq = 0.2, np.pi

    def u(r):
        return 2.0 + (r - 1.0) + amplitude * np.sin(freq * (r - 1.0))

    def du(r):
        return 1.0 + amplitude * freq * np.cos(freq * (r - 1.0))

    def d2u(r):
        return -amplitude * freq * freq * np.sin(freq * (r - 1.0))

    return u, du, d2u


class Radial(Workload):
    """In-process `solve-radial` calls from the catalogue, plus manufactured-solution pairs."""

    name = "radial"

    def __init__(self, *args):
        super().__init__(*args)
        cfg = read_json("radial.json")
        self.cfg = cfg
        self.tol = cfg["newton_tol"] * (1e-20 if self.wrong_expected else 1.0)
        self.references: dict[str, object] = {}

    def cycle(self):
        ops = [Op(f"{case['name']}_n{n}", dict(case, n=n))
               for case in self.cfg["cases"] for n in self.cfg["mesh_n"]]
        return ops + [Op(m["name"], dict(m, mms=True)) for m in self.cfg["mms"]]

    def execute(self, op, tracer=None):
        spec = op.spec
        if spec.get("mms"):
            return self._execute_mms(spec)
        argv = ["solve-radial", *spec["argv"], "--mesh-n", str(spec["n"]), "--out", self.out_path(op)]
        if "params" in spec:
            argv += ["--params", os.path.join(INPUTS, spec["params"])]
        seconds, code = _timed_cli(argv)
        return seconds, {"cli": True, "code": code}

    def _execute_mms(self, spec):
        import numpy as np
        import pqliouville

        u, du, d2u = _mms_profile()
        inst = pqliouville.ProblemInstance(N=spec["N"], p=spec["p"], q=spec["q"],
                                           kind="product", s=1.0, m=0.0)
        f = pqliouville.manufactured_source(inst.N, inst.p, inst.q, du, d2u)
        start = time.perf_counter()
        sols = [pqliouville.solve_radial(
                    pqliouville.RadialProblem(inst, 1.0, 2.0, u(1.0), u(2.0), mesh_n=n,
                                              reg_eps=1e-10, rhs_override=f),
                    tol=self.cfg["newton_tol"])
                for n in (spec["n"], 2 * spec["n"])]
        seconds = time.perf_counter() - start
        errors = [float(np.max(np.abs(s.u - u(s.r)))) for s in sols]
        return seconds, {"solutions": sols, "errors": errors}

    def _log_reference(self, op):
        """Direct (untransformed) solve of the log case at the same mesh."""
        import pqliouville
        from pqliouville.params import expand_instances, parse_params, radial_settings

        if op.name not in self.references:
            params = parse_params(read_text(op.spec["params"]))
            settings = radial_settings(params)
            prob = pqliouville.RadialProblem(
                inst=expand_instances(params)[0], r0=settings["r0"], r1=settings["r1"],
                u_at_r0=settings["u0"], u_at_r1=settings["u1"], mesh_n=op.spec["n"])
            self.references[op.name] = pqliouville.solve_radial(prob, tol=self.cfg["newton_tol"])
        return self.references[op.name]

    def check(self, op, outcome):
        import numpy as np

        if "errors" in outcome:
            bad = [s for s in outcome["solutions"]
                   if not (s.converged and s.residual_norm <= self.tol)]
            if bad:
                return [f"{op.name}: not converged to newton_tol ({bad[0].residual_norm})"]
            ratio = outcome["errors"][0] / outcome["errors"][1]
            lo, hi = self.cfg["mms_ratio"]
            if not lo <= ratio <= hi:
                return [f"{op.name}: error ratio {ratio} outside [{lo}, {hi}]"]
            return []
        if outcome["code"] != 0:
            return [f"{op.name}: exit {outcome['code']}"]
        with open(self.out_path(op)) as fh:
            row = json.load(fh)["results"][0]
        if not (row["converged"] and row["residual_norm"] <= self.tol):
            return [f"{op.name}: converged={row['converged']} residual {row['residual_norm']}"]
        if "params" in op.spec:
            ref = self._log_reference(op)
            h = ref.r[1] - ref.r[0]
            gap = float(np.max(np.abs(np.asarray(row["u"]) - ref.u)))
            if not (ref.converged and gap <= self.cfg["log_vs_direct_factor"] * h * h):
                return [f"{op.name}: log and direct solutions differ by {gap}"]
        return []


class Identities(Workload):
    """`verify-identities --resolution 129`, or one 3-d change-of-variable check at 97^3."""

    name = "identities"

    def __init__(self, *args):
        super().__init__(*args)
        cfg = read_json("identities.json")
        if self.tiny:
            cfg.update(cfg["tiny"])
        if self.wrong_expected:
            cfg["order_band"] = [band + 3.0 for band in cfg["order_band"]]
        self.cfg = cfg

    def cycle(self):
        ops = [Op("verify", {"resolution": self.cfg["resolution"]})]
        return ops + [Op(f"cov3d_b{c['b']}_p{c['p']}_q{c['q']}", c) for c in self.cfg["checks_3d"]]

    def execute(self, op, tracer=None):
        if "resolution" in op.spec:
            argv = ["verify-identities", "--resolution", str(op.spec["resolution"]),
                    "--out", self.out_path(op)]
            seconds, code = _timed_cli(argv)
            return seconds, {"cli": True, "code": code}
        import pqliouville

        spec, n = op.spec, op.spec["n"]
        start = time.perf_counter()
        field = pqliouville.CATALOG[spec["field"]].sample(n, 3)
        rep = pqliouville.change_of_variable_check(
            field, spec["b"], spec["p"], spec["q"],
            tolerance=self.cfg["identity_factor"] / (n - 1) ** 2)
        return time.perf_counter() - start, {"report": rep}

    def check(self, op, outcome):
        if "report" in outcome:
            rep = outcome["report"]
            return [] if rep.passed else [f"{op.name}: rel_error {rep.rel_error} > {rep.tolerance_used}"]
        if outcome["code"] != 0:
            return [f"{op.name}: exit {outcome['code']}"]
        with open(self.out_path(op)) as fh:
            rows = json.load(fh)["results"]
        lo, hi = self.cfg["order_band"]
        failures = []
        for row in rows:
            rep = row["report"]
            order = rep.get("observed_order")
            if not rep["passed"] or (order is not None and not lo <= order <= hi):
                failures.append(f"{op.name}: {row['check']} {row['params']} passed={rep['passed']} "
                                f"order={order}")
        return failures[:3]

    def aux_weights_seconds(self) -> float:
        """Median seconds of one aux_weights call on a 3-d identity grid (v, |grad v|^2)."""
        import pqliouville
        from pqliouville.operators import grad_squared

        samples = []
        for spec in self.cfg["checks_3d"]:
            field = pqliouville.CATALOG[spec["field"]].sample(spec["n"], 3)
            z = grad_squared(field.values, field.spacing)
            keep = z > 0.0
            v, z = field.values[keep], z[keep]
            for _ in range(3):
                start = time.perf_counter()
                pqliouville.aux_weights(spec["b"], v, z, spec["p"], spec["q"], 3)
                samples.append(time.perf_counter() - start)
        return statistics.median(samples)


WORKLOADS = {w.name: w for w in (Sweep, Single, Radial, Identities)}
