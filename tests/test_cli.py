import json

import pytest

from coulomb_hs.cli import main
from coulomb_hs.quiver import quiver_from_json
from coulomb_hs.series import series_from_json, series_to_json


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
    qf = tmp_path / "d3.json"
    run(capsys, "generate", "dn", "--n", "3", "-o", str(qf))
    code, text, _ = run(capsys, "hs", str(qf), "--order", "2")
    assert code == 0 and text.splitlines()[0] == "1 + 18*t^2"
    code, _, err = run(capsys, "hs", str(qf), "--order", "2",
                       "--ortho-pair-weight", "1/2")
    assert code == 2 and "diverges" in err


def test_implosion_check_pass_and_negative_control(capsys):
    code, text, _ = run(capsys, "implosion-check", "--n", "2", "--order", "8")
    assert code == 0 and "FAIL" not in text
    code, text, _ = run(capsys, "implosion-check", "--n", "3", "--order", "6",
                        "--prefactor-exponent", "5")
    assert code == 3 and "FAIL" in text


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


def test_check_suite(capsys):
    code, text, _ = run(capsys, "check-suite")
    assert code == 0
    assert "FAIL" not in text
    hash1 = [l for l in text.splitlines() if "manifest hash" in l][0]
    code, text2, _ = run(capsys, "check-suite")
    hash2 = [l for l in text2.splitlines() if "manifest hash" in l][0]
    assert hash1 == hash2


def test_usage_errors_exit_1(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    for argv in (["hs", str(qf), "--threads", "4"],
                 ["hs", str(qf), "--order", "x"],
                 ["no-such-command"],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["hs", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv


def test_negative_max_bound_is_validation_error(tmp_path, capsys):
    qf = tmp_path / "b3.json"
    run(capsys, "generate", "bouquet", "--n", "3", "-o", str(qf))
    code, _, err = run(capsys, "hs", str(qf), "--order", "2", "--ungauge", "b1",
                       "--max-bound", "-1")
    assert code == 1 and "max_bound" in err
