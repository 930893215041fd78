import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coulomb_hs
from coulomb_hs.cli import main
from coulomb_hs.engine import HSRequest, coulomb_hilbert_series
from coulomb_hs.quiver import (
    DecoupledU1UnresolvedError,
    detect_decoupled_u1,
    quiver_from_json,
)
from coulomb_hs.series import (
    TruncatedSeries,
    expand_inverse,
    one_minus_power,
    series_from_json,
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
    assert run(capsys, "generate", "dn", "--n", "3", "--bouquet",
               "-o", str(out))[0] == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert sum(1 for n in q.nodes if n.id.startswith("b")) == 3

    out = tmp_path / "d3f.json"
    assert run(capsys, "generate", "dn", "--n", "3", "--flavor",
               "-o", str(out))[0] == 0
    q = quiver_from_json(json.loads(out.read_text()))
    assert q.node("f").group.n == 6


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


@pytest.mark.parametrize("argv, flag", [
    (("nilpotent", "--n", "3", "--partition", "2,1"), "--partition"),
    (("dn", "--n", "3", "--partition", "2,1"), "--partition"),
    (("bouquet", "--n", "2", "--flavor"), "--flavor"),
    (("bouquet", "--n", "2", "--bouquet"), "--bouquet"),
    (("partial", "--n", "4", "--partition", "2,2", "--flavor"), "--flavor"),
], ids=["partition-nilpotent", "partition-dn", "flavor-bouquet", "bouquet-bouquet",
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
    s = series_from_json(d1["series"])
    assert series_to_json(s) == d1["series"]  # parse -> serialize identity
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
    # One refined sum per run, to the order asked or to t^2 if that is
    # higher: the t^2 row reads the bouquet off the integral's sum.
    import coulomb_hs.engine as engine

    packed_sum = engine._packed_sum

    def recording(request, counted, *args, **kwargs):
        orders.append(request.order)
        return packed_sum(request, counted, *args, **kwargs)
    monkeypatch.setattr(engine, "_packed_sum", recording)
    for n, order, solved in ("8", "2", [2]), ("3", "12", [12]), ("3", "0", [2]):
        orders = []
        code, _, _ = run(capsys, "implosion-check", "--n", n, "--order", order)
        assert (code, orders) == (0, solved), (n, order)


def test_a_box_past_the_table_cell_limit_exits_2_at_once(capsys, monkeypatch):
    # bouquet(90)'s box 1 would need 304 664 442 table cells, just past
    # MAX_TABLE_CELLS (3e8): the run ends with exit 2 naming the count
    # before any candidate list is built.
    import coulomb_hs.engine as engine

    def dominant_charges(*args):
        raise AssertionError("a candidate list was built")
    monkeypatch.setattr(engine, "dominant_charges", dominant_charges)
    assert engine.MAX_TABLE_CELLS == 300_000_000
    code, text, err = run(capsys, "implosion-check", "--n", "90", "--order", "0")
    assert (code, text) == (2, "")
    assert "box 1 needs 304664442 table cells, more than the 300000000 allowed" in err


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
], ids=["nodes-int", "edges-int", "group-n-float", "group-n-bool", "columns-int",
        "column-int", "entry-float", "n-bool", "d-float", "n-negative", "d-negative",
        "id-int", "edge-end-int", "edge-end-null"])
def test_malformed_input_file_exits_1(tmp_path, capsys, command, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


def test_check_suite(capsys):
    code, text, _ = run(capsys, "check-suite")
    assert code == 0
    assert "FAIL" not in text
    hash1 = [l for l in text.splitlines() if "manifest hash" in l][0]
    code, text2, _ = run(capsys, "check-suite")
    hash2 = [l for l in text2.splitlines() if "manifest hash" in l][0]
    assert hash1 == hash2


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
    assert text.startswith("FAIL  refined integral equals nilpotent-cone closed form")


def test_usage_errors_exit_1(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    for argv in (["hs", str(qf), "--threads", "4"],
                 ["hs", str(qf), "--order", "x"],
                 ["implosion-check", "--n", "3", "--so2-as-o2"],
                 ["implosion-check", "--n", "3", "--ortho-pair-weight", "1/2"],
                 ["implosion-check", "--n", "3", "--prefactor-exponent", "5"],
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for n in ("1", "0", "x"):  # rejected before the refined integral runs
        with pytest.raises(SystemExit) as exc:
            main(["implosion-check", "--n", n, "--order", "4"])
        assert exc.value.code == 1, n
        assert "error: argument --n:" in capsys.readouterr().err
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
    "check-suite": ["check-suite", "--full"],
}


def parse_output(capsys, parser, argv):
    """(exit code or None, stdout, stderr, parsed namespace or None)."""
    try:
        ns, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        ns, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, ns


def test_one_subcommand_parser_parses_as_the_full_parser(capsys):
    from coulomb_hs.cli import _COMMANDS, build_parser

    assert list(PARSER_SAMPLES) == list(_COMMANDS)
    for name, argv in PARSER_SAMPLES.items():
        for args in (argv, [name, "--help"], argv + ["--bogus"], [name]):
            one = parse_output(capsys, build_parser(name), args)
            full = parse_output(capsys, build_parser(), args)
            assert one == full, args
        assert parse_output(capsys, build_parser(name), argv)[3]["command"] == name
    with pytest.raises(SystemExit) as exc:
        main(["--help", "hs"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "{generate,report,hs,implosion-check,gale,check-suite}" in out
    for name, (help_text, _) in _COMMANDS.items():
        assert help_text in out, name


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # Nor does it load Gale duality or the balance bookkeeping, which only
    # gale, report and check-suite use.
    src = str(Path(coulomb_hs.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import coulomb_hs, coulomb_hs.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing', 'coulomb_hs.gale', "
            "'coulomb_hs.balance'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "[]", "")


def test_cold_hs_run_skips_shutil(tmp_path):
    # Given no width, argparse's formatter imports shutil, and with it bz2,
    # lzma and zlib, to read the terminal width; the CLI's formatter reads
    # that width without it.  Neither a cold hs run nor a cold
    # implosion-check run loads Gale duality or the balance bookkeeping.
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
        "                    'coulomb_hs.balance'} & set(sys.modules)))",
    ])
    for argv in (["hs", str(b3), "--order", "2", "--ungauge", "b1", "--json"],
                 ["implosion-check", "--n", "2", "--order", "4"]):
        done = subprocess.run([sys.executable, "-S", "-c", code, src, json.dumps(argv)],
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout.strip(), done.stderr) == (0, "0 []", ""), argv


# Runs every help and usage-error command line of HELP_ARGVS through main(),
# first as the CLI builds its parsers, then with argparse's own formatter,
# and writes both lists of (argv, exit code, stdout, stderr) as JSON.
HELP_CHILD = """
import argparse, contextlib, io, json, sys
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
cli._Parser.__init__.__kwdefaults__["formatter_class"] = argparse.HelpFormatter
with open(sys.argv[3], "w", encoding="utf-8") as fh:
    json.dump([ours, outputs()], fh)
"""

HELP_ARGVS = ([["--help"]] + [[name, "--help"] for name in PARSER_SAMPLES]
              + [["hs", "x", "--order", "y"]])


def help_outputs(tmp_path, columns=None, stdout=subprocess.DEVNULL):
    """The CLI's and argparse's outputs for HELP_ARGVS, in a child with
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
    ours, reference = help_outputs(tmp_path, columns)
    assert [row[1] for row in ours] == [0] * (len(HELP_ARGVS) - 1) + [1]
    for mine, theirs in zip(ours, reference):
        assert mine == theirs, mine[0]


def test_help_on_a_terminal_matches_argparse_width(tmp_path):
    pty = pytest.importorskip("pty")
    import fcntl
    import struct
    import termios

    seen = {}
    # Python 3.10's shutil keeps a terminal's 0 columns, where later ones
    # (and the CLI) fall back to 80.
    for cols in (50, 120) + ((0,) if sys.version_info >= (3, 11) else ()):
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
