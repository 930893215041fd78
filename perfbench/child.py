"""One benchmark process: set-up alone, one solve, or one traced solve.

Started by ``perfbench/run.py`` in a fresh interpreter per sample:

    python3 perfbench/child.py {setup|solve|trace} <workload> <quiver.json or ->

Set-up is interpreter start, ``import coulomb_hs`` and loading the quiver
file. ``solve`` then calls the public CLI entry ``coulomb_hs.cli.main``
and lets it print its answer to stdout. ``trace`` instead calls the
public functions of each module in turn, times each call, and prints the
resulting series as JSON. The last stderr line, prefixed ``PERFBENCH ``,
is a JSON report: the monotonic clock when the process was ready, the
solve's wall and CPU time, and for ``trace`` the time per layer.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARK = "PERFBENCH "


def install_edge_table_fallback(engine) -> str:
    """Define ``engine._edge_table`` when the engine lacks it.

    The naive table: ``tab[ip][iv]`` is the quarter-unit edge cost between
    parent candidate ``ip`` and child candidate ``iv``, with the edge
    oriented by whether the parent is its first endpoint."""
    if hasattr(engine, "_edge_table"):
        return "engine"

    def _edge_table(prob, e, p, cands_p, cands_v, b):
        if p == e.a:
            return [[prob.edge4(e, x, y) for y in cands_v] for x in cands_p]
        return [[prob.edge4(e, y, x) for y in cands_v] for x in cands_p]

    engine._edge_table = _edge_table
    return "bench-fallback"


class Spans:
    """Wall time per layer, summed over the calls made into it."""

    def __init__(self):
        self.seconds: dict = {}

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[layer] = self.seconds.get(layer, 0.0) + time.perf_counter() - t0
        return out


def traced_solve(w, quiver_path: str, spans: Spans) -> tuple:
    """The workload's computation as a sequence of timed public calls.

    Returns the final series and the exact engine counts."""
    from coulomb_hs import (HSRequest, compute_hilbert_series, dominant_charges,
                            enumerate_charges)
    from coulomb_hs.quiver import build_bouquet_quiver, load_quiver, ungauge
    from coulomb_hs.series import one_minus_power, plethystic_log

    if w.generate is None:  # refined bouquet integral, as implosion-check does it
        n = int(w.argv[w.argv.index("--n") + 1])
        q = spans.call("quiver.load_s", build_bouquet_quiver, n)
        refined = frozenset(f"b{i}" for i in range(2, n + 1))
    else:
        q = spans.call("quiver.load_s", load_quiver, quiver_path)
        refined = frozenset()
    pinned = spans.call("quiver.load_s", ungauge, q, w.ungauge) if w.ungauge else q
    # Enumerate before the full solve and keep only the count, so both
    # calls start from the same heap and engine.assemble_s, derived as
    # their difference, is not skewed by a quarter million live charges.
    enumerated = len(spans.call("engine.enumerate_s", enumerate_charges,
                                pinned, Fraction(w.order, 2)))
    result = spans.call("engine.hs_s", compute_hilbert_series,
                        HSRequest(q, w.order, refined=refined, ungauge=w.ungauge))
    series = result.series
    if refined:
        series = spans.call("series.product_s", lambda: series
                            * one_minus_power(2, w.order) ** len(refined))
        for name in sorted(refined):
            series = spans.call("series.constant_term_s", series.constant_term, name)
    else:
        spans.call("series.pl_s", plethystic_log, series)
    stats = result.stats
    cands = spans.call("liedata.dominant_charges_s", lambda: [
        dominant_charges(nd.group, stats.bound_reached) for nd in pinned.gauge_nodes])
    counts = {
        "liedata.candidates": sum(len(c) for c in cands),
        "engine.charges": stats.charge_count,
        "engine.bound_reached": stats.bound_reached,
        "engine.shells_scanned": getattr(stats, "shells_scanned", 0),
        "enumerated": enumerated,
    }
    return series, counts


def main(argv) -> int:
    mode, name, quiver_path = argv
    sys.path.insert(0, str(ROOT / "src"))
    import coulomb_hs
    import coulomb_hs.cli
    import coulomb_hs.engine
    from coulomb_hs.quiver import load_quiver
    from coulomb_hs.series import series_to_json
    from workloads import WORKLOADS

    src = Path(coulomb_hs.__file__).resolve()
    if ROOT / "src" not in src.parents:
        raise SystemExit(f"coulomb_hs imported from {src}, not from this checkout")
    w = WORKLOADS[name]
    report = {"edge_table": install_edge_table_fallback(coulomb_hs.engine)}
    if w.generate is not None:
        load_quiver(quiver_path)
    report["ready"] = time.monotonic()
    cpu0 = time.process_time()
    rc = 0
    if mode == "solve":
        cli_argv = [quiver_path if a == "{quiver}" else a for a in w.argv]
        rc = coulomb_hs.cli.main(cli_argv)
    elif mode == "trace":
        spans = Spans()
        series, report["counts"] = traced_solve(w, quiver_path, spans)
        report["spans"] = spans.seconds
        print(json.dumps({"series": series_to_json(series)}))
    sys.stdout.flush()
    report["done"] = time.monotonic()
    report["cpu_s"] = time.process_time() - cpu0
    sys.stderr.write(MARK + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
