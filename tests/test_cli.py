import contextlib
import gc
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import coulomb_hs
from coulomb_hs.cli import main
from coulomb_hs.engine import HSRequest, coulomb_hilbert_series
from coulomb_hs.quiver import (
    DecoupledU1UnresolvedError,
    build_bouquet_quiver,
    detect_decoupled_u1,
    quiver_from_json,
    quiver_to_json,
)
from coulomb_hs.series import (
    TruncatedSeries,
    expand_inverse,
    one_minus_power,
    series_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_nilpotent(tmp_path, capsys):
    out = tmp_path / "fig1.json"
    code, _, _ = run(capsys, "generate", "nilpotent", "--n", "6", "-o", str(out))
    assert code == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert len(q.gauge_nodes) == 5 and len(q.flavor_nodes) == 1
    assert q.node("f").group.n == 6


def test_generate_bouquet_and_dn(tmp_path, capsys):
    out = tmp_path / "b3.json"
    assert run(capsys, "generate", "bouquet", "--n", "3", "-o", str(out))[0] == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert len(q.neighbors("g2")) == 4  # affine star shape

    out = tmp_path / "d3.json"
    assert run(capsys, "generate", "dn", "--n", "3", "-o", str(out))[0] == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert sum(1 for n in q.nodes if n.id.startswith("b")) == 3

    out = tmp_path / "d3f.json"
    assert run(capsys, "generate", "dn", "--n", "3", "--flavor",
               "-o", str(out))[0] == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert q.node("f").group.n == 6
    assert run(capsys, "generate", "dn", "--n", "1") == (1, "", "error: need n >= 2\n")


def test_generate_partial(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "generate", "partial", "--n", "4",
                     "--partition", "2,2", "-o", str(out))
    assert code == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert sorted(n.id for n in q.nodes if n.id.startswith("l")) == \
        ["l1_1", "l1_2", "l2_1", "l2_2"]
    code, _, err = run(capsys, "generate", "partial", "--n", "4",
                       "--partition", "3,3")
    assert code == 1 and "partition" in err
    for bad in ("2,x", "2,,2"):
        code, _, err = run(capsys, "generate", "partial", "--n", "4",
                           "--partition", bad)
        assert code == 1
        assert err == ("error: --partition: parts must be comma-separated "
                       f"integers, got {bad!r}\n")
    for argv, message in ((["--n", "3"], "partial needs --partition, e.g. --partition 2,2"),
                          (["--n", "1", "--partition", "1"], "need n >= 2")):
        assert run(capsys, "generate", "partial", *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (("nilpotent", "--n", "3", "--partition", "2,1"), "--partition"),
    (("dn", "--n", "3", "--partition", "2,1"), "--partition"),
    (("nilpotent", "--n", "3", "--flavor"), "--flavor"),
    (("bouquet", "--n", "2", "--flavor"), "--flavor"),
    (("partial", "--n", "4", "--partition", "2,2", "--flavor"), "--flavor"),
], ids=["partition-nilpotent", "partition-dn", "flavor-nilpotent", "flavor-bouquet",
        "flavor-partial"])
def test_generate_rejects_a_flag_of_another_kind(tmp_path, capsys, argv, flag):
    # A flag that the chosen kind would ignore is a usage error, not a no-op.
    out = tmp_path / "q.json"
    code, stdout, err = run(capsys, "generate", *argv, "-o", str(out))
    assert (code, stdout) == (1, "")
    assert err.startswith(f"error: {flag} is for ")
    assert not out.exists()


def test_report_text_and_json(tmp_path, capsys):
    out = tmp_path / "fig1.json"
    run(capsys, "generate", "nilpotent", "--n", "6", "-o", str(out))
    code, text, _ = run(capsys, "report", str(out))
    assert code == 0
    assert "A5" in text and "all_balanced=True" in text
    code, text, _ = run(capsys, "report", str(out), "--json")
    data = json.loads(text)
    assert data["predicted_symmetry"]["factors"] == ["A5"]
    assert data["gauge_rank"] == 15
    assert data["expected_coulomb_dimension_real"] == 60


def test_report_bouquet(tmp_path, capsys):
    out = tmp_path / "b6.json"
    run(capsys, "generate", "bouquet", "--n", "6", "-o", str(out))
    code, text, _ = run(capsys, "report", str(out), "--json")
    data = json.loads(text)
    assert data["predicted_symmetry"]["factors"] == ["A5"]
    assert data["predicted_symmetry"]["abelian_rank"] == 5
    assert data["decoupled_diagonal_u1"] is True


def test_hs_command(tmp_path, capsys):
    qf = tmp_path / "fig2d2.json"
    qf.write_text(json.dumps({
        "nodes": [{"id": "g", "kind": "gauge", "group": {"family": "U", "n": 1}},
                  {"id": "f", "kind": "flavor", "group": {"family": "U", "n": 2}}],
        "edges": [["g", "f"]]}))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "4")
    assert code == 0
    assert text.splitlines()[0] == "1 + 3*t^2 + 5*t^4"
    assert "manifest" in text


def test_hs_json_round_trip_and_manifest_stability(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    code, text1, _ = run(capsys, "hs", str(qf), "--order", "4",
                         "--ungauge", "b1", "--json")
    code2, text2, _ = run(capsys, "hs", str(qf), "--order", "4",
                          "--ungauge", "b1", "--json")
    assert code == code2 == 0
    d1, d2 = json.loads(text1), json.loads(text2)
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 4, ungauge="b1"))
    assert d1["series"] == series_to_json(s)
    m1, m2 = d1["manifest"], d2["manifest"]
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_hs_decoupled_error_names_flag(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    code, _, err = run(capsys, "hs", str(qf), "--order", "2")
    assert code == 2
    assert "--ungauge" in err


def test_decoupled_u1_in_one_component(tmp_path, capsys):
    # U(1) a - U(1) b has no flavor, beside U(1) c with two flavors: the
    # diagonal U(1) of the first component alone acts trivially.
    obj = {"nodes": [{"id": i, "kind": "gauge", "group": {"family": "U", "n": 1}}
                     for i in "abc"]
           + [{"id": "f", "kind": "flavor", "group": {"family": "U", "n": 2}}],
           "edges": [["a", "b"], ["c", "f"]]}
    q = quiver_from_json(obj)
    assert detect_decoupled_u1(q)
    with pytest.raises(DecoupledU1UnresolvedError):
        coulomb_hilbert_series(HSRequest(q, 4))
    qf = tmp_path / "split.json"
    qf.write_text(json.dumps(obj))
    code, _, err = run(capsys, "hs", str(qf), "--order", "4")
    assert code == 2 and "--ungauge" in err
    code, text, _ = run(capsys, "hs", str(qf), "--order", "4", "--ungauge", "a")
    # b is U(1) with one flavor (C^2), c is U(1) with two (C^2/Z_2)
    want = expand_inverse(1, 4) ** 2 * one_minus_power(4, 4) \
        * expand_inverse(2, 4) ** 3
    assert code == 0 and text.splitlines()[0] == want.text()


def test_two_decoupled_components(tmp_path, capsys):
    # U(1)=U(1) beside U(1)=U(1), no flavor: one diagonal U(1) decouples
    # per component, so the expected dimension is 4 * (4 - 2).
    obj = {"nodes": [{"id": i, "kind": "gauge", "group": {"family": "U", "n": 1}}
                     for i in "abcd"],
           "edges": [["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"]]}
    qf = tmp_path / "pairs.json"
    qf.write_text(json.dumps(obj))
    code, text, _ = run(capsys, "report", str(qf), "--json")
    data = json.loads(text)
    assert code == 0 and data["expected_coulomb_dimension_real"] == 8
    assert data["decoupled_diagonal_u1"] is True
    assert "2 decoupled" in data["expected_coulomb_dimension_note"]
    code, text, _ = run(capsys, "report", str(qf))
    assert "expected Coulomb dimension (real): 8 (after removing 2" in text
    code, _, err = run(capsys, "hs", str(qf), "--order", "4", "--ungauge", "a")
    assert code == 2 and "one U(1) per such component must be ungauged" in err


def test_hs_pl_flag(tmp_path, capsys):
    qf = tmp_path / "fig2d2.json"
    qf.write_text(json.dumps({
        "nodes": [{"id": "g", "kind": "gauge", "group": {"family": "U", "n": 1}},
                  {"id": "f", "kind": "flavor", "group": {"family": "U", "n": 2}}],
        "edges": [["g", "f"]]}))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "6", "--pl")
    assert code == 0
    assert "PL: 3*t^2 - t^4" in text


def test_hs_refined(tmp_path, capsys):
    qf = tmp_path / "b2.json"
    run(capsys, "generate", "bouquet", "--n", "2", "-o", str(qf))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "2",
                        "--ungauge", "b1", "--refine", "b2", "--json")
    assert code == 0
    data = json.loads(text)
    assert data["series"].get("fugacities") == ["b2"]
    # A refined series prints each coefficient as a Laurent polynomial.
    qf = tmp_path / "n2.json"
    run(capsys, "generate", "nilpotent", "--n", "2", "-o", str(qf))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "4", "--refine", "g1")
    assert code == 0
    assert text.splitlines()[0] == ("1 + (1 + g1^-1 + g1)*t^2 "
                                    "+ (1 + g1^-2 + g1^-1 + g1 + g1^2)*t^4")


def test_hs_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{notjson")
    code, _, err = run(capsys, "hs", str(bad), "--order", "2")
    assert code == 1 and "invalid JSON" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "hs", str(missing))
    assert code == 1


def test_ortho_convention_flags(tmp_path, capsys):
    # One orthosymplectic convention: the old switches are usage errors.
    qf = tmp_path / "d3.json"
    run(capsys, "generate", "dn", "--n", "3", "-o", str(qf))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "2")
    assert code == 0 and text.splitlines()[0] == "1 + 18*t^2"
    for flags in (["--ortho-pair-weight", "1"], ["--ortho-pair-weight", "1/2"],
                  ["--so2-as-o2"]):
        with pytest.raises(SystemExit) as exc:
            main(["hs", str(qf), "--order", "2", *flags])
        assert exc.value.code == 1, flags
        assert "unrecognized arguments" in capsys.readouterr().err


def test_implosion_check_pass_and_negative_control(capsys):
    code, text, _ = run(capsys, "implosion-check", "--n", "2", "--order", "8")
    assert code == 0 and "FAIL" not in text


def test_implosion_check_solves_no_order_above_its_own(capsys, monkeypatch):
    # Two unrefined solves per run: the bouquet to t^2, for the t^2 row,
    # then the T[SU(n)] chain to the order asked, for the chain row.  A bad
    # order exits 1 before either, also where the bouquet's box alone would
    # be refused (n = 90).
    import coulomb_hs.engine as engine

    hilbert_series = engine._hilbert_series

    def recording(request, counted):
        orders.append(request.order)
        return hilbert_series(request, counted)
    monkeypatch.setattr(engine, "_hilbert_series", recording)
    for n, order, solved in ("8", "2", [2, 2]), ("3", "12", [2, 12]), ("3", "0", [2, 0]):
        orders = []
        code, _, _ = run(capsys, "implosion-check", "--n", n, "--order", order)
        assert (code, orders) == (0, solved), (n, order)
    for n in "3", "90":
        orders = []
        code, text, err = run(capsys, "implosion-check", "--n", n, "--order", "-1")
        assert (code, text, orders) == (1, "", []), n
        assert "truncation order must be >= 0" in err, n


def test_a_box_past_the_table_cell_limit_exits_2_at_once(capsys, monkeypatch):
    # bouquet(607)'s box 1 would need 300 036 455 table cells, just past
    # MAX_TABLE_CELLS (3e8): the run ends with exit 2 naming the count
    # before any candidate list is built.
    import coulomb_hs.engine as engine

    def dominant_charges(*args):
        raise AssertionError("a candidate list was built")
    monkeypatch.setattr(engine, "dominant_charges", dominant_charges)
    assert engine.MAX_TABLE_CELLS == 300_000_000
    code, text, err = run(capsys, "implosion-check", "--n", "607", "--order", "0")
    assert (code, text) == (2, "")
    assert "box 1 needs 300036455 table cells, more than the 300000000 allowed" in err


def test_a_chain_past_the_table_cell_limit_runs_on_the_cells(capsys):
    # The T[SU(6)] chain at order 30 would need 1.2e9 table cells, past
    # MAX_TABLE_CELLS; the cell sum solves it, so both rows pass.
    code, text, err = run(capsys, "implosion-check", "--n", "6", "--order", "30")
    assert (code, err, text.count("PASS"), text.count("FAIL")) == (0, "", 2, 0)


def test_refined_pl_is_rejected_before_the_solve(tmp_path, capsys, monkeypatch):
    # The plethystic logarithm of a refined series is unsupported, which
    # the flags alone show; the flag check also comes before the refined
    # ids are looked up in the quiver.
    import coulomb_hs.cli as cli

    def solve(*args, **kwargs):
        raise AssertionError("the refined series was solved")
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    monkeypatch.setattr(cli, "compute_hilbert_series", solve)
    for refine in ("b2", "b2,b3", "zz"):
        code, text, err = run(capsys, "hs", str(qf), "--order", "4",
                              "--ungauge", "b1", "--refine", refine, "--pl")
        assert code == 1 and not text, refine
        assert "error: plethystic logarithm of refined series is unsupported" in err


def test_a_command_runs_with_the_collector_paused(tmp_path, capsys, monkeypatch):
    # Inside a command the cyclic collector is off, so the benchmark's four
    # command lines start no collection while their command functions run.
    # A collection that fell due meanwhile may start at the first
    # allocation after main turns the collector back on, outside the
    # command, so only the collections inside each command are counted.
    import coulomb_hs.cli as cli

    def recording(fn):
        def wrapped(*args, **kwargs):
            enabled, before = gc.isenabled(), len(starts)
            try:
                return fn(*args, **kwargs)
            finally:
                seen.append((enabled, len(starts) - before))
        return wrapped
    seen = []
    monkeypatch.setattr(cli, "cmd_hs", recording(cli.cmd_hs))
    monkeypatch.setattr(cli, "cmd_implosion_check", recording(cli.cmd_implosion_check))
    files = {}
    for kind, flags in (("bouquet", ["--n", "5"]),
                        ("partial", ["--n", "4", "--partition", "2,2"]),
                        ("dn", ["--n", "5", "--flavor"])):
        files[kind] = str(tmp_path / f"{kind}.json")
        assert main(["generate", kind, *flags, "-o", files[kind]]) == 0
    benchmark_argvs = (
        ["hs", files["bouquet"], "--ungauge", "b1", "--order", "4", "--json", "--pl"],
        ["hs", files["partial"], "--ungauge", "l1_1", "--order", "6", "--json", "--pl"],
        ["implosion-check", "--n", "3", "--order", "12"],
        ["hs", files["dn"], "--order", "6", "--json", "--pl"],
    )

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])
    starts = []
    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        for argv in benchmark_argvs:
            assert main(argv) == 0, argv
            capsys.readouterr()
    finally:
        gc.callbacks.remove(count)
        if not enabled:
            gc.disable()
    assert seen == [(False, 0)] * 4


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled):
    # On every exit path: success, a validation error (exit 1), a
    # computational error (exit 2) and argparse's SystemExit for --help;
    # a caller that had paused the collector finds it still paused.
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    cases = ((["hs", str(qf), "--order", "2", "--ungauge", "b1"], 0),
             (["hs", str(qf), "--order", "2", "--ungauge", "b1", "--refine", "zz"], 1),
             (["hs", str(qf), "--order", "2"], 2),
             (["hs", "--help"], SystemExit))
    before = gc.isenabled()
    try:
        for argv, outcome in cases:
            (gc.enable if enabled else gc.disable)()
            if outcome is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == outcome, argv
            assert gc.isenabled() is enabled, argv
            capsys.readouterr()
    finally:
        (gc.enable if before else gc.disable)()


def one_gauge_node(n):
    return {"nodes": [{"id": "g", "kind": "gauge", "group": {"family": "U", "n": n}},
                      {"id": "f", "kind": "flavor", "group": {"family": "U", "n": 2}}],
            "edges": [["g", "f"]]}


@pytest.mark.parametrize("command, obj, message", [
    ("hs", {"nodes": 5}, "nodes: expected a list"),
    ("hs", {"nodes": [], "edges": 5}, "edges: expected a list"),
    ("hs", one_gauge_node(1.9), "nodes[0].group.n: expected an integer, got 1.9"),
    ("hs", one_gauge_node(True), "nodes[0].group.n: expected an integer, got True"),
    ("gale", {"columns": 7}, "columns: expected a list"),
    ("gale", {"columns": [5]}, "columns[0]: expected a list"),
    ("gale", {"columns": [[1.5, 0], [0, 1]]},
     "columns[0][0]: expected an integer, got 1.5"),
    ("gale", {"columns": [[1, 0], [0, 1]], "n": True},
     "n: expected an integer, got True"),
    ("gale", {"columns": [[1, 0], [0, 1]], "d": 2.0},
     "d: expected an integer, got 2.0"),
    ("gale", {"columns": [], "n": -1}, "n: expected a nonnegative integer, got -1"),
    ("gale", {"columns": [], "d": -2}, "d: expected a nonnegative integer, got -2"),
    ("hs", {**one_gauge_node(1), "nodes": [
        {"id": 5, "kind": "gauge", "group": {"family": "U", "n": 1}}]},
     "nodes[0].id: expected a string, got 5"),
    ("hs", {**one_gauge_node(1), "edges": [[5, "f"]]},
     "edges[0][0]: expected a string, got 5"),
    ("hs", {**one_gauge_node(1), "edges": [["g", None]]},
     "edges[0][1]: expected a string, got None"),
    ("hs", {**one_gauge_node(1), "nodes": [5]},
     'nodes[0]: expected an object {"id": ..., "kind": ..., '
     '"group": {"family": ..., "n": ...}}, got 5'),
    ("hs", {**one_gauge_node(1), "nodes": [
        {"id": "g", "kind": "gauge", "group": "U(1)"}]},
     """nodes[0].group: expected an object {"family": ..., "n": ...}, got 'U(1)'"""),
    ("hs", {**one_gauge_node(1), "nodes": [
        {"id": "g", "kind": "gauge", "group": {"family": "U"}}]},
     'nodes[0].group: missing "n"; expected {"family": ..., "n": ...}'),
    ("hs", {**one_gauge_node(1), "nodes": [
        {"id": "g", "group": {"family": "U", "n": 1}}]},
     'nodes[0]: missing "kind"; expected {"id": ..., "kind": ..., '
     '"group": {"family": ..., "n": ...}}'),
    ("hs", {**one_gauge_node(1), "nodes": [
        {"id": "g", "kind": "gauge", "group": {"family": "SU", "n": 2}}]},
     "nodes[0]: 'SU' is not a valid Family"),
    ("gale", [1], "matrix JSON must be an object with 'columns'"),
    ("gale", {"columns": [[1, 2], [1]]}, "ragged columns"),
    ("gale", {"columns": [[1], [2]], "d": 3}, "expected 3 columns, got 2"),
    ("gale", {"columns": [[1], [2]], "n": 2}, "expected columns of height 2, got 1"),
    ("hs", [1, 2], "quiver JSON must be an object with 'nodes'"),
    ("hs", {**one_gauge_node(1), "edges": [["x", "g"]]}, "edges[0]: unknown node 'x'"),
], ids=["nodes-int", "edges-int", "group-n-float", "group-n-bool", "columns-int",
        "column-int", "entry-float", "n-bool", "d-float", "n-negative", "d-negative",
        "id-int", "edge-end-int", "edge-end-null", "node-int", "group-string",
        "group-missing-n", "node-missing-kind", "family-unknown", "matrix-list",
        "columns-ragged", "d-mismatch", "n-mismatch", "quiver-list", "edge-end-unknown"])
def test_malformed_input_file_exits_1(tmp_path, capsys, command, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def node(node_id, kind, family, n):
    return {"id": node_id, "kind": kind, "group": {"family": family, "n": n}}


@pytest.mark.parametrize("obj, message", [
    (one_gauge_node(2), "nonzero magnetic charge ((0, -1),) has 2*Delta = 0 <= 0; "
                        "the monopole sum diverges"),
    ({"nodes": [node("a", "gauge", "SO", 3), node("b", "gauge", "USp", 2),
                node("f", "flavor", "SO", 4)],
      "edges": [["a", "b"], ["a", "b"], ["b", "f"]]},
     "edge 'a'-'b': orthosymplectic edge multiplicity 2 is not supported"),
], ids=["divergent", "ortho-double-edge"])
def test_a_theory_the_engine_cannot_sum_exits_2(tmp_path, capsys, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hs", str(path), "--order", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gale_command(tmp_path, capsys):
    mf = tmp_path / "m.json"
    mf.write_text(json.dumps({"n": 1, "d": 2, "columns": [[1], [1]]}))
    code, text, _ = run(capsys, "gale", str(mf), "--json")
    assert code == 0
    data = json.loads(text)
    assert data["dual"]["columns"] == [[1], [-1]]
    assert data["report"]["dim_primal"] == 4 and data["report"]["dim_dual"] == 4

    mf2 = tmp_path / "id.json"
    mf2.write_text(json.dumps({"columns": [[1, 0], [0, 1]]}))
    code, text, _ = run(capsys, "gale", str(mf2), "--json")
    assert json.loads(text)["dual"]["columns"] == [[], []]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"columns": [[1, 1], [1, 1]]}))
    code, _, err = run(capsys, "gale", str(bad))
    assert code == 1 and "rank" in err

    no_columns = tmp_path / "n2d0.json"
    no_columns.write_text(json.dumps({"n": 2, "columns": []}))
    code, out, err = run(capsys, "gale", str(no_columns))
    assert (code, out, err) == (1, "", "error: need n <= d, got n=2, d=0\n")

    bad.write_text("{notjson")
    code, out, err = run(capsys, "gale", str(bad))
    assert (code, out) == (1, "") and "invalid JSON" in err


def test_check_suite(capsys):
    code, text, _ = run(capsys, "check-suite")
    assert code == 0
    assert "FAIL" not in text
    hash1 = [l for l in text.splitlines() if "manifest hash" in l][0]
    code, text2, _ = run(capsys, "check-suite")
    hash2 = [l for l in text2.splitlines() if "manifest hash" in l][0]
    assert hash1 == hash2


def test_check_suite_solves_each_request_once_and_only_for_a_row(capsys, monkeypatch):
    # Every solve the suite makes, in order: each one feeds a row, and none
    # repeats.  The PE/PL round trip reuses the nilpotent-cone row's series.
    import coulomb_hs.engine as engine
    from coulomb_hs.quiver import (NodeKind, Quiver, QuiverNode, U, build_bouquet_quiver,
                                   build_dn_implosion_quiver,
                                   build_linear_nilpotent_quiver)

    hilbert_series = engine._hilbert_series

    def recording(request, counted):
        requests.append(request)
        return hilbert_series(request, counted)
    monkeypatch.setattr(engine, "_hilbert_series", recording)
    abelian = [HSRequest(Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                                 QuiverNode("f", NodeKind.FLAVOR, U(d))],
                                [("g", "f")]), 20) for d in range(1, 6)]
    cones = [HSRequest(build_linear_nilpotent_quiver(n), 10) for n in (2, 3)]
    bouquets = [HSRequest(build_bouquet_quiver(n), 2, ungauge="b1") for n in (2, 3, 4, 5)]
    dn = [HSRequest(build_dn_implosion_quiver(n), 2) for n in (3, 4)]
    requests = []
    code, _, _ = run(capsys, "check-suite")
    assert code == 0
    assert not [r for i, r in enumerate(requests) if r in requests[:i]]
    assert requests == abelian + cones + bouquets + dn


def output_argv(tmp_path, command):
    """A quick run of each command that takes --json and -o."""
    if command == "gale":
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 1, "d": 2, "columns": [[1], [1]]}))
        return ["gale", str(path)]
    if command == "check-suite":
        return ["check-suite"]
    path = tmp_path / "b3.json"
    main(["generate", "bouquet", "--n", "3", "-o", str(path)])
    if command == "report":
        return ["report", str(path)]
    return ["hs", str(path), "--order", "2", "--ungauge", "b1"]


def without_wall_time(text):
    # The one field that differs between reruns, in hs's text and JSON.
    return re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', text)


@pytest.mark.parametrize("flags, stdout_is", [
    ((), "text"), (("--json",), "json"), (("-o",), "text"), (("--json", "-o"), "empty"),
], ids=["plain", "json", "o", "json-o"])
@pytest.mark.parametrize("command", ["report", "hs", "gale", "check-suite"])
def test_one_output_rule(tmp_path, capsys, command, flags, stdout_is):
    # stdout gets the text unless --json is given; the JSON payload goes to
    # -o when that is given, and otherwise to stdout under --json.
    argv = output_argv(tmp_path, command)
    capsys.readouterr()
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, *argv, *flags,
                            *([str(out)] if "-o" in flags else []))
    assert (code, err) == (0, "")
    if stdout_is == "text":
        assert without_wall_time(stdout) == without_wall_time(run(capsys, *argv)[1])
        with pytest.raises(json.JSONDecodeError):
            json.loads(stdout)
    elif stdout_is == "empty":
        assert stdout == ""
    if stdout_is == "json" or "-o" in flags:
        payload = json.loads(without_wall_time(run(capsys, *argv, "--json")[1]))
        written = stdout if stdout_is == "json" else out.read_text()
        assert json.loads(without_wall_time(written)) == payload
    if "-o" not in flags:
        assert not out.exists()


def test_a_failed_check_exits_3(capsys, monkeypatch):
    import coulomb_hs.cli as cli

    monkeypatch.setattr(cli, "nilcone_reference_hs",
                        lambda n, order: TruncatedSeries.one(order))
    code, text, _ = run(capsys, "check-suite")
    assert code == 3
    assert "FAIL  nilpotent-cone quiver n=2 matches closed form to t^10" in text
    code, text, _ = run(capsys, "check-suite", "--json")
    assert code == 3
    assert any(row[-1] is False for row in json.loads(text)["rows"])
    code, text, _ = run(capsys, "implosion-check", "--n", "3", "--order", "6")
    assert code == 3
    assert text.startswith("FAIL  T[SU(3)] chain equals nilpotent-cone closed form")


def test_usage_errors_exit_1(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    for argv in (["hs", str(qf), "--threads", "4"],
                 ["hs", str(qf), "--order", "x"],
                 ["implosion-check", "--n", "3", "--so2-as-o2"],
                 ["implosion-check", "--n", "3", "--ortho-pair-weight", "1/2"],
                 ["implosion-check", "--n", "3", "--prefactor-exponent", "5"],
                 ["implosion-check", "--n", "x", "--order", "4"],
                 ["check-suite", "--full"],
                 ["generate", "dn", "--n", "3", "--bouquet"],
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for n in ("1", "0"):  # the quiver builders' check, before either solve runs
        assert run(capsys, "implosion-check", "--n", n, "--order", "4") == (
            1, "", "error: need n >= 2\n"), n
    for argv in (["--help"], ["hs", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv


@pytest.mark.parametrize("flags, message", [
    (("--order", "-1"), "truncation order must be >= 0"),
    (("--refine", "zz"), "no node 'zz'"),
])
def test_bad_hs_flags_exit_1_before_the_decoupled_u1_test(tmp_path, capsys,
                                                          flags, message):
    # Without --ungauge the bouquet has a decoupled U(1), an exit-2 compute
    # error; a bad flag must still be reported as a usage error first.
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    code, _, err = run(capsys, "hs", str(qf), *flags)
    assert code == 1 and message in err


def test_max_bound_flag_is_rejected(tmp_path, capsys):
    # The proven box never exceeds the order, so hs takes no box limit.
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    argv = ("hs", str(qf), "--order", "4", "--ungauge", "b1", "--json")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-bound", "5"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-bound 5" in capsys.readouterr().err
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["manifest"]["charge_bound_reached"] == 2


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_stdout_exits_141_in_silence(tmp_path, buffered):
    # The reader leaves before the first write, whether stdout is written
    # at once or at the last flush: a shell reports such a writer as
    # 128 + SIGPIPE, and there is no error to print.
    qf = tmp_path / "b3.json"
    qf.write_text(json.dumps(quiver_to_json(build_bouquet_quiver(3))))
    env = dict(os.environ,
               PYTHONPATH=str(Path(coulomb_hs.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "coulomb_hs", "hs", str(qf),
                               "--order", "2", "--ungauge", "b1"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_python_m_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(coulomb_hs.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "coulomb_hs", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, coulomb_hs.__version__)


# One sample command line per subcommand; parsing opens no file.
PARSER_SAMPLES = {
    "generate": ["generate", "dn", "--n", "3", "--flavor", "-o", "d3.json"],
    "report": ["report", "b3.json", "--json"],
    "hs": ["hs", "b3.json", "--order", "4", "--ungauge", "b1", "--refine", "b2,b3",
           "--pl", "--json", "-o", "out.json"],
    "implosion-check": ["implosion-check", "--n", "3", "--order", "6"],
    "gale": ["gale", "m.json", "--json"],
    "check-suite": ["check-suite", "--json", "-o", "s.json"],
}


def argparse_result(argv):
    """(exit code or None, stdout, stderr, namespace dict or None) of the
    argparse parser alone on ``argv``."""
    from coulomb_hs.cli import build_parser

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns, code = vars(build_parser().parse_args(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), ns


def assert_fast_parse_agrees(argv):
    """The fast parse of ``argv`` is None or argparse's namespace; returns it."""
    from coulomb_hs.cli import _parse

    fast = _parse(argv)
    if fast is not None:
        code, out, err, ns = argparse_result(argv)
        assert (code, out, err, vars(fast)) == (None, "", "", ns), argv
    return fast


def benchmark_argvs():
    """The command line of each benchmark workload, with its quiver file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    workloads = runpy.run_path(str(path))["WORKLOADS"]
    return {name: [a.format(quiver="q.json") for a in w.argv]
            for name, w in workloads.items()}


# Read by the fast parse, each with argparse's namespace.
FAST_ARGVS = [
    ["generate", "nilpotent", "--n", "3"],
    ["generate", "dn", "--n", "3"],
    ["generate", "dn", "--n", "3", "--flavor", "--flavor"],
    ["generate", "--n", "4", "partial", "--partition", "2,2"],
    ["hs", "--order", "4", "q.json"],
    ["hs", "q.json", "--order", "4", "--order", " +6", "-o", "a", "--output", "b"],
    ["hs", "q.json", "--ungauge", "", "--pl", "--pl"],
    ["implosion-check", "--n", "2"],
    ["implosion-check", "--n", "1"], ["implosion-check", "--n", "0"],
    ["check-suite"],
]

# Left to argparse: help, --version, forms it accepts that the fast parse
# does not read, and usage errors.
ARGPARSE_ARGVS = [
    [], ["--help"], ["-h"], ["--version"], ["hs", "--help"], ["hs", "q.json", "-h"],
    ["no-such-command"], ["--version", "hs", "q.json"],
    ["hs", "q.json", "--ord", "4"], ["hs", "q.json", "--order=4", "--ungauge=b1"],
    ["hs", "q.json", "-oout.json"], ["hs", "q.json", "--order", "-1"],
    ["hs", "--", "q.json"], ["hs", "-"], ["hs", "q.json", "-o", "-"],
    ["hs", "q.json", "--order", "x"], ["hs", "q.json", "--order"],
    ["hs", "q.json", "--ungauge", "--pl"],
    ["implosion-check", "--n", "x"],
    ["generate", "bogus", "--n", "3"], ["generate", "dn"],
    ["generate", "dn", "--n", "3", "--bouquet"], ["check-suite", "--full"],
    ["hs"], ["hs", "q.json", "extra"], ["hs", "q.json", "--max-bound", "5"],
    ["hs", "q.json", "--full"],
]


def test_fast_parse_agrees_with_argparse(capsys):
    from coulomb_hs.cli import _COMMANDS

    assert list(PARSER_SAMPLES) == list(_COMMANDS)
    workloads = benchmark_argvs()
    assert len(workloads) == 4
    for argv in [*PARSER_SAMPLES.values(), *workloads.values(), *FAST_ARGVS]:
        fast = assert_fast_parse_agrees(argv)
        assert fast is not None and fast.command == argv[0], argv
    for argv in ARGPARSE_ARGVS:
        assert assert_fast_parse_agrees(argv) is None, argv
    fast = assert_fast_parse_agrees(FAST_ARGVS[5])  # the last one wins
    assert (fast.order, fast.output) == (6, "b")
    with pytest.raises(SystemExit) as exc:
        main(["--help", "hs"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "{generate,report,hs,implosion-check,gale,check-suite}" in out
    for name, (help_text, _) in _COMMANDS.items():
        assert help_text in out, name


def test_fast_parse_raises_on_a_declaration_it_cannot_read():
    # An action or keyword the fast parse does not read is an error in the
    # table, not a command line to misread.
    from coulomb_hs.cli import _argument

    with pytest.raises(KeyError):
        _argument(("--verbose",), action="count")
    with pytest.raises(TypeError):
        _argument(("--nodes",), nargs="+")


# Values good and bad for each kind of argument, and tokens the fast parse
# leaves to argparse: abbreviations, "=" forms, help, "--" and strays.
INT_VALUES = ["0", "1", "2", "3", "8", " 4", "-1", "x", "2.5"]
TEXT_VALUES = ["b1", "b2,b3", "q.json", "", "-"]
STRAY_PIECES = [["--ord", "4"], ["--order=4"], ["--n=3"], ["--ungauge=b1"],
                ["-oout.json"], ["--fl"], ["--"], ["-h"], ["--help"], ["--version"],
                ["--bogus"], ["extra"]]


def argv_pieces(command):
    """Pieces of a command line for ``command``: a list per required argument
    of its pieces (each positional value, or the option with each value of
    its kind), then one list of every piece, flags and strays included."""
    from coulomb_hs.cli import _COMMANDS

    def pieces(names, keywords):
        if not names[0].startswith("-"):
            return [[v] for v in [*keywords.get("choices", ["q.json"]), "bogus"]]
        if "action" in keywords:
            return [[o] for o in names]
        return [[o, v] for o in names
                for v in (INT_VALUES if "type" in keywords else TEXT_VALUES)]

    arguments = _COMMANDS[command][1]
    by_argument = [pieces(*arg) for arg in arguments]
    required = [p for (names, keywords), p in zip(arguments, by_argument)
                if keywords.get("required") or not names[0].startswith("-")]
    return required, [piece for p in by_argument for piece in p] + STRAY_PIECES


def test_fast_parse_agrees_with_argparse_on_drawn_argv():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from coulomb_hs.cli import _COMMANDS

    def argvs(command):
        # One piece for each required argument, a few more of any kind,
        # in any order.
        required, every = argv_pieces(command)
        drawn = st.tuples(*map(st.sampled_from, required),
                          st.lists(st.sampled_from(every), max_size=3))
        return drawn.flatmap(lambda d: st.permutations([*d[:-1], *d[-1]])).map(
            lambda pieces: [command, *(token for piece in pieces for token in piece)])

    accepted = []

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(argv=st.sampled_from(list(_COMMANDS)).flatmap(argvs))
    def check(argv):
        accepted.append(assert_fast_parse_agrees(argv) is not None)

    check()
    # Enough drawn command lines are read for the namespaces to be
    # compared, not only the None cases.  How many depends on the Python
    # and Hypothesis versions (101 of 400 on 3.11.7 and 6.155.2), so the
    # test keeps a floor.
    assert sum(accepted) >= 60


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # Nor does it load Gale duality or the balance bookkeeping, which only
    # gale, report and check-suite use, argparse, which only help,
    # --version and usage errors use, or fractions (with decimal), which
    # only delta and enumerate_charges use.
    src = str(Path(coulomb_hs.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import coulomb_hs, coulomb_hs.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'coulomb_hs.gale', "
            "'coulomb_hs.balance', 'argparse', 'gettext', 'locale', 'fractions', "
            "'decimal', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "[]", "")


def test_cold_hs_run_skips_shutil(tmp_path):
    # A well-formed command line is read without argparse, which would load
    # gettext and locale, and shutil (with bz2, lzma and zlib) for help.
    # Neither a cold hs run nor a cold implosion-check run loads Gale
    # duality, the balance bookkeeping or fractions (with decimal); only hs,
    # which hashes its input for the manifest, loads OpenSSL's _hashlib.
    b3 = tmp_path / "b3.json"
    assert main(["generate", "bouquet", "--n", "3", "-o", str(b3)]) == 0
    src = str(Path(coulomb_hs.__file__).resolve().parents[1])
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.path.insert(0, sys.argv[1])",
        "from coulomb_hs.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(json.loads(sys.argv[2]))",
        "print(code, sorted({'shutil', 'bz2', 'lzma', 'coulomb_hs.gale',",
        "                    'coulomb_hs.balance', 'argparse', 'gettext', 'locale',",
        "                    'fractions', 'decimal', '_hashlib'} & set(sys.modules)))",
    ])
    for argv, loaded in (
            (["hs", str(b3), "--order", "2", "--ungauge", "b1", "--json"], "['_hashlib']"),
            (["implosion-check", "--n", "2", "--order", "4"], "[]")):
        done = subprocess.run([sys.executable, "-S", "-c", code, src, json.dumps(argv)],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.strip(), done.stderr) == (0, f"0 {loaded}", ""), argv


# Runs every command line of HELP_ARGVS through main(), first as it is,
# then with the fast parse switched off so that argparse alone reads each
# one, and writes both lists of (argv, exit code, stdout, stderr) as JSON.
HELP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from coulomb_hs import cli

def outputs():
    rows = []
    for argv in json.loads(sys.argv[2]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        rows.append([argv, code, out.getvalue(), err.getvalue()])
    return rows

ours = outputs()
cli._parse = lambda argv: None
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump([ours, outputs()], fh)
"""

# Help and --version (exit 0), then usage errors (exit 1).
HELP_ARGVS = ([["--help"], ["--version"]] + [[name, "--help"] for name in PARSER_SAMPLES]
              + [["hs", "x", "--order", "y"], ["hs"], [], ["no-such-command"],
                 ["implosion-check", "--n", "x"],
                 ["generate", "dn", "--n", "3", "--bouquet"],
                 ["hs", "x", "--order", "4", "--max-bound", "5"]])
HELP_CODES = [0] * (2 + len(PARSER_SAMPLES)) + [1] * 7


def help_outputs(tmp_path, columns=None, stdout=subprocess.DEVNULL):
    """main()'s and argparse's outputs for HELP_ARGVS, in a child with
    COLUMNS set to ``columns`` (unset when None) and the given stdout."""
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "LINES")}
    if columns is not None:
        env["COLUMNS"] = columns
    path = tmp_path / "help.json"
    src = str(Path(coulomb_hs.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", HELP_CHILD, src, json.dumps(HELP_ARGVS),
                    str(path)], stdout=stdout, env=env, check=True, timeout=60)
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("columns", [None, "0", "abc", "40", "200"])
def test_help_and_usage_match_argparse_width(tmp_path, columns):
    # Help, --version and usage errors are argparse's, at any help width.
    ours, reference = help_outputs(tmp_path, columns)
    assert [row[1] for row in ours] == HELP_CODES
    for mine, theirs in zip(ours, reference):
        assert mine == theirs, mine[0]


def test_help_on_a_terminal_matches_argparse_width(tmp_path):
    pty = pytest.importorskip("pty")
    import fcntl
    import struct
    import termios

    seen = {}
    for cols in (0, 50, 120):
        main_fd, child_fd = pty.openpty()
        try:
            fcntl.ioctl(child_fd, termios.TIOCSWINSZ, struct.pack("HHHH", 24, cols, 0, 0))
            ours, reference = help_outputs(tmp_path, stdout=child_fd)
        finally:
            os.close(child_fd)
            os.close(main_fd)
        assert ours == reference, cols
        seen[cols] = ours
    # The terminal's width reached the formatter.
    assert seen[50] != seen[120]
