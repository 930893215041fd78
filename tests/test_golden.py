"""Golden digests of whole CLI outputs and of the ordered charge list.

Any change to a coefficient, a manifest field or the check-suite rows moves
one of these sha256 digests.  A change meant to keep every answer must leave
them as they are; a change meant to alter an answer updates the digest it
moves and says why.  ``wall_time_s`` is the only field dropped, since it is
the one that differs between reruns.
"""

import hashlib
import json

import pytest

from coulomb_hs.cli import main
from coulomb_hs.engine import enumerate_charges
from coulomb_hs.quiver import build_bouquet_quiver, build_linear_nilpotent_quiver, ungauge


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stdout_of(capsys, *argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_check_suite_full_manifest_hash(capsys):
    out = stdout_of(capsys, "check-suite", "--full")
    assert out.splitlines()[-1] == (
        "suite: 25/25 passed; manifest hash "
        "e9d5bb8dd367390b30a258881963380ce4e3b09fd415b72dfcd3aca4fde7e6c4")


def test_check_suite_default_manifest_hash(capsys):
    out = stdout_of(capsys, "check-suite")
    assert out.splitlines()[-1] == (
        "suite: 23/23 passed; manifest hash "
        "ea4f66a9838052269214a145d31664c6107096ec47e842e5c22b62a58e3f2435")


@pytest.mark.parametrize("generate, argv, digest", [
    (("bouquet", "--n", "5"), ("--ungauge", "b1", "--order", "4", "--pl"),
     "4bd15c9af7e09eb40075dc98c81e1221bf747d894aabb4802138e767d17f7b7c"),
    (("bouquet", "--n", "5"), ("--ungauge", "b1", "--order", "4",
                               "--refine", "b2,b3"),
     "9358811003ab7b88def46e767bff889fd85dff5c606dc367f30e22722f1fb0d8"),
    (("partial", "--n", "4", "--partition", "2,2"),
     ("--ungauge", "l1_1", "--order", "6", "--pl"),
     "0613b65a535e3c057ed5c96198399b73d4c036589feba818af1a9cd8baa3e8eb"),
    (("dn", "--n", "5", "--flavor"), ("--order", "6", "--pl"),
     "42cee02c3f4d4d96bb374ea3420409022e31dadfe78f71a678d4bffa3d35a432"),
], ids=["bouquet5-K4", "bouquet5-K4-refined", "partial-e6-K6", "dn5-flavor-K6"])
def test_hs_json_payload(tmp_path, capsys, generate, argv, digest):
    path = tmp_path / "q.json"
    stdout_of(capsys, "generate", *generate, "-o", str(path))
    payload = json.loads(stdout_of(capsys, "hs", str(path), *argv, "--json"))
    del payload["manifest"]["wall_time_s"]
    assert sha256(json.dumps(payload, sort_keys=True)) == digest


@pytest.mark.parametrize("n, order, digest", [
    ("3", "12", "32f6cce6a8633e31b157d3c8b53318aa23dfde5309e8c059d2f9bdc8159dd390"),
    ("3", "0", "2fc670ce362c609a85b4b005f75acac29e51914d73bb0690790ecd0e3ee02794"),
    ("5", "2", "e9d3f35bd73b04214a0c8d4ea953bf91220e4ff96bce79a747e17722e65db4ce"),
    ("2", "8", "01bc0a7d3473bfa85e8ac2ca5a4c1cfa7dfdefd4d8c500dc93c14e5a328a30c9"),
], ids=["n3-K12", "n3-K0", "n5-K2", "n2-K8"])
def test_implosion_check_stdout(capsys, n, order, digest):
    out = stdout_of(capsys, "implosion-check", "--n", n, "--order", order)
    assert sha256(out) == digest


@pytest.mark.parametrize("quiver, delta_max, count, digest", [
    (build_linear_nilpotent_quiver(3), 3, 52,
     "51745024f4c35edad21e15c24904063f1b926fb8e76103bffd2d1c65b307effd"),
    (ungauge(build_bouquet_quiver(3), "b1"), 2, 202,
     "f74e9543ddab18054d0345315183fd04c9406edb18a44a98bd90ad50d9cd6490"),
], ids=["nilcone3-delta3", "bouquet3-ungauged-delta2"])
def test_enumerate_charges_list(quiver, delta_max, count, digest):
    # The charges and their order: shell by shell of max |entry|, each
    # shell sorted.
    got = enumerate_charges(quiver, delta_max)
    assert len(got) == count
    assert sha256(repr(got)) == digest
