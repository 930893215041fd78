"""Monopole-formula benchmark: time to an exact, oracle-checked series.

    python3 perfbench/run.py --workload partial-e6 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each sample is a fresh interpreter (``perfbench/child.py``) that imports
``coulomb_hs`` from ``src/`` of this checkout and runs the public CLI
entry ``coulomb_hs.cli.main``. Samples run one at a time from this single
process, with no threads, in whole cycles over the quiver's spanning-tree
roots, until ``--seconds`` is used up. Between samples a fresh interpreter
runs ``perfbench/probe.py``, a fixed loop that reads the host's speed.
Every printed series is checked against a closed form computed in
``workloads.py``.

``--trace 0`` reports the end-to-end metrics: medians over the samples,
with every time in reference seconds (see ``Run.reference``) and the
plain wall-clock medians in the provenance line. ``--trace 1`` alternates
untraced and traced solves and reports the wall time and counts per
layer. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records provenance (commit, Python, nproc, seed, and whether
the engine's own ``_edge_table`` or the benchmark's fallback ran).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, check_series, permuted_quiver, root_count, tree_root

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MARK = "PERFBENCH "

END_TO_END = {"solve_s": "s", "solve_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "quiver.load_s": "s",
    "liedata.dominant_charges_s": "s",
    "liedata.candidates": "count",
    "engine.enumerate_s": "s",
    "engine.hs_s": "s",
    "engine.assemble_s": "s",  # derived: engine.hs_s - engine.enumerate_s
    "engine.charges": "count",
    "engine.bound_reached": "count",
    "engine.shells_scanned": "count",
    "series.product_s": "s",
    "series.constant_term_s": "s",
    "series.pl_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
# Timed layers whose share of the untraced solve is printed next to the
# workload's predicted share.
SHARE_LAYERS = ("quiver.load_s", "liedata.dominant_charges_s", "engine.enumerate_s",
                "engine.assemble_s", "series.product_s", "series.constant_term_s",
                "series.pl_s", "cli.overhead_s")
# A child still running after this long is killed and its solve counted
# as failed; about ten times the slowest solve, and short enough that a
# run ends well within three minutes.
LIMIT_S = 20.0
# Probe time (probe.py) that defines a reference second: a round figure
# near the probe's time on a quiet 2.0 GHz Xeon vCPU, so that reference
# seconds read close to wall seconds there. It only sets the unit; every
# bound is a share of a median.
PROBE_REF_S = 0.1


@dataclass
class Sample:
    """One child process: what it printed and how it ended."""

    wall: float
    rss_mb: float
    cpu: float
    ok: bool = True
    reason: str = ""
    report: dict = field(default_factory=dict)
    stdout: str = ""
    setup: float | None = None
    solve: float | None = None
    probe: float | None = None  # mean of the host probes either side
    root: str | None = None  # spanning-tree root of the solve's quiver

    def fail(self, reason: str):
        self.ok, self.reason = False, reason


def run_child(mode: str, workload: str, quiver: str) -> Sample:
    """Run child.py to completion or for LIMIT_S, reading its pipes
    and reaping it with wait4 so its own peak RSS and CPU are known."""
    # -S keeps the host's site-packages hooks out of set-up time; the
    # package needs only the standard library. A fixed hash seed removes
    # one source of run-to-run variation in dict and set layout.
    argv = [sys.executable, "-S", str(HERE / "child.py"), mode, workload, quiver]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launch = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    pending = set(chunks)
    timed_out = False
    status = usage = None
    try:
        while status is None:
            if not timed_out and time.monotonic() - launch > LIMIT_S:
                proc.kill()
                timed_out = True
            if pending:
                readable, _, _ = select.select(list(pending), [], [], 0.05)
                for fd in readable:
                    data = os.read(fd, 1 << 16)
                    if data:
                        chunks[fd].append(data)
                    else:
                        pending.discard(fd)
            else:
                pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = st, ru
                else:
                    time.sleep(0.002)
    finally:
        if status is None:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.monotonic() - launch
    s = Sample(wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
               cpu=usage.ru_utime + usage.ru_stime, solve=wall)
    s.stdout = b"".join(chunks[out_fd]).decode("utf-8", "replace")
    stderr = b"".join(chunks[err_fd]).decode("utf-8", "replace")
    marks = [ln[len(MARK):] for ln in stderr.splitlines() if ln.startswith(MARK)]
    if marks:
        s.report = json.loads(marks[-1])
        s.setup = s.report["ready"] - launch
        s.solve = s.report["done"] - s.report["ready"]
        s.cpu = s.report["cpu_s"]
    if timed_out:
        s.fail(f"timed out after {LIMIT_S:g} s")
    elif proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        s.fail(f"exit code {proc.returncode}: {tail[0]}")
    elif not marks:
        s.fail("no report from the child process")
    return s


def host_probe() -> float:
    """Seconds probe.py takes in a fresh interpreter: the host's speed now."""
    out = subprocess.run([sys.executable, "-S", str(HERE / "probe.py")],
                         capture_output=True, text=True, timeout=LIMIT_S, check=True)
    return float(out.stdout)


def parse_series_text(text: str) -> dict:
    """{exponent: coefficient} from the CLI's text form, e.g. 1 + 15*t^2."""
    out = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        body, has_t, power = term.partition("t")
        coeff = body.rstrip("*")
        coeff = -1 if coeff == "-" else 1 if coeff == "" else int(coeff)
        exp = (int(power[1:]) if power else 1) if has_t else 0
        out[exp] = out.get(exp, 0) + coeff
    return out


def printed_series(w, s: Sample, mode: str) -> tuple:
    """The series the child printed, and the engine's own wall time if the
    CLI reported one in its manifest."""
    if mode == "solve" and w.generate is None:
        line = next(ln for ln in s.stdout.splitlines() if "computed:" in ln)
        return parse_series_text(line.split("computed:", 1)[1]), None
    payload = json.loads(s.stdout)
    coeffs = {int(e): int(c) for e, c in payload["series"]["coeffs"].items()}
    return coeffs, payload.get("manifest", {}).get("wall_time_s")


class Run:
    """One benchmark run of one workload: samples, checks, metrics."""

    def __init__(self, w, seed: int, seconds: float):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.solves: list = []
        self.traces: list = []
        self.failures: list = []
        self.attempted = 0
        self.flags: set = set()
        self.base = None

    def quiver(self, solve: int) -> tuple:
        """Write the quiver for one solve: the CLI generator's file, with
        node and edge order permuted by the seed. Returns the file and
        the spanning-tree root it gives the engine."""
        if self.w.generate is None:
            return "-", None
        if self.base is None:
            WORK.mkdir(exist_ok=True)
            base = WORK / f"{self.w.name}.base.json"
            sys.path.insert(0, str(ROOT / "src"))
            from coulomb_hs.cli import main as cli_main

            if cli_main(["generate", *self.w.generate, "-o", str(base)]) != 0:
                raise SystemExit(f"generate {' '.join(self.w.generate)} failed")
            self.base = json.loads(base.read_text(encoding="utf-8"))
        path = WORK / f"{self.w.name}.json"
        obj = permuted_quiver(self.base, self.seed, solve)
        path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        return str(path), tree_root(obj)

    def sample(self, mode: str, quiver: str) -> Sample:
        """One solve or traced solve in its own process, checked."""
        s = run_child(mode, self.w.name, quiver)
        if s.ok:
            try:
                coeffs, engine_wall = printed_series(self.w, s, mode)
            except (ValueError, KeyError, StopIteration) as exc:
                s.fail(f"unreadable output: {exc!r}")
            else:
                s.report["engine_wall_s"] = engine_wall
                wrong = check_series(self.w, coeffs)
                if wrong:
                    s.fail(f"oracle: {wrong}")
        counts = s.report.get("counts")
        if s.ok and counts:
            if counts["engine.charges"] != self.w.charges:
                s.fail(f"charge count {counts['engine.charges']} != {self.w.charges}")
            elif counts["enumerated"] != counts["engine.charges"]:
                s.fail(f"enumerate_charges found {counts['enumerated']} charges, "
                       f"the engine {counts['engine.charges']}")
        if "edge_table" in s.report:
            self.flags.add(s.report["edge_table"])
        self.attempted += 1
        if not s.ok:
            self.failures.append(f"{mode}: {s.reason}")
        return s

    def measure(self, trace: bool):
        # The first process fills the bytecode cache; its timing is dropped.
        run_child("setup", self.w.name, self.quiver(0)[0])
        cycle = 1 if self.base is None else root_count(self.base, self.seed)
        start = time.monotonic()
        cycles = []
        before = host_probe()
        # Whole cycles only, so that every root is solved equally often.
        while True:
            t0 = time.monotonic()
            for _ in range(cycle):
                path, root = self.quiver(len(self.solves))
                s = self.sample("solve", path)
                s.root = root
                self.solves.append(s)
                if trace:
                    self.traces.append(self.sample("trace", path))
                after = host_probe()
                s.probe = (before + after) / 2
                before = after
            cycles.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.mean(cycles) > self.seconds:
                break

    def reference(self, seconds) -> float:
        """Median of per-solve times in reference seconds: each scaled by
        PROBE_REF_S over the host probes taken either side of its solve.

        The host's speed drifts by a third or more for minutes at a time
        and switches 1.7x for seconds at a time, and CPU time drifts with
        it; scaling each solve by the probe next to it removes most of
        that, where a median of wall times keeps it."""
        pairs = [(seconds(s), s.probe) for s in self.solves]
        values = [t * PROBE_REF_S / p for t, p in pairs if t is not None]
        return statistics.median(values) if values else 0.0

    def end_to_end(self) -> dict:
        return {
            "solve_s": self.reference(lambda s: s.solve),
            "solve_cpu_s": self.reference(lambda s: s.cpu),
            "setup_s": self.reference(lambda s: s.setup),
            "peak_rss_mb": statistics.median(s.rss_mb for s in self.solves),
        }

    def wall(self) -> dict:
        """Unscaled medians, for the provenance line."""
        def med(values):
            values = [v for v in values if v is not None]
            return statistics.median(values) if values else None
        return {
            "solve_s": med(s.solve for s in self.solves),
            "solve_cpu_s": med(s.cpu for s in self.solves),
            "setup_s": med(s.setup for s in self.solves),
            "probe_s": med(s.probe for s in self.solves),
        }

    def per_layer(self) -> dict:
        rows = []
        for u, t in zip(self.solves, self.traces):
            if not (u.ok and t.ok):
                continue
            row = {k: 0.0 for k in PER_LAYER}
            row.update(t.report["spans"])
            row.update({k: v for k, v in t.report["counts"].items() if k in row})
            row["engine.assemble_s"] = row["engine.hs_s"] - row["engine.enumerate_s"]
            library = u.report["engine_wall_s"]
            if library is None:  # implosion-check prints no manifest
                library = (row["engine.hs_s"] + row["series.product_s"]
                           + row["series.constant_term_s"])
            row["cli.overhead_s"] = u.solve - library
            row["trace.overhead_s"] = t.solve - u.solve
            rows.append(row)
        return {k: statistics.median(r[k] for r in rows) if rows else 0.0
                for k in PER_LAYER}

    def provenance(self, trace: bool) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "seed_note": None if self.w.generate else
            "builds its own quiver; the seed is ignored",
            "seconds": self.seconds,
            "trace": int(trace),
            "samples": {
                "root": [s.root for s in self.solves],
                "solve_s": [s.solve for s in self.solves],
                "solve_cpu_s": [s.cpu for s in self.solves],
                "setup_s": [s.setup for s in self.solves],
                "probe_s": [s.probe for s in self.solves],
            },
            "wall_medians": self.wall(),
            "probe_ref_s": PROBE_REF_S,
            "failed_ratio": len(self.failures) / max(1, self.attempted),
            "failures": self.failures,
            "edge_table": "|".join(sorted(self.flags)) or "unknown",
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "coulomb_hs").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(w, seed, seconds)
    run.measure(trace)
    metrics = run.per_layer() if trace else run.end_to_end()
    units = PER_LAYER if trace else END_TO_END
    prov = run.provenance(trace)
    for name, value in metrics.items():
        print(f"{w.name:18s} {name:28s} {value:14.6f} {units[name]}")
    if trace:
        ok = [s.solve for s in run.solves if s.ok]
        solve = statistics.median(ok) if ok else 0.0
        for layer in SHARE_LAYERS:
            got = metrics[layer] / solve if solve else 0.0
            want = w.predicted.get(layer)
            print(f"{w.name:18s} share of solve_s  {layer:28s} measured {got:6.1%}"
                  + (f"  predicted {want:6.1%}" if want is not None else ""))
    for reason in run.failures:
        print(f"{w.name:18s} FAILED {reason}")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coulomb_hs" / "__init__.py").is_file():
        print(f"error: no coulomb_hs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
