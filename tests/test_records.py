"""The public records are named tuples (ToricConfig a slotted class) that
keep the contract of the frozen records they replace."""

import copy
import pickle

import pytest

from coulomb_hs import (
    Family,
    GaugeGroup,
    HSRequest,
    NodeKind,
    QuiverCharge,
    QuiverNode,
    SO,
    ToricConfig,
    U,
    USp,
    balance_report,
    balanced_subquiver_classification,
    build_bouquet_quiver,
    build_linear_nilpotent_quiver,
    compute_hilbert_series,
    duality_report,
    predict_global_symmetry,
)
from coulomb_hs.quiver import QuiverError


def records():
    """One instance of every public record type."""
    q = build_bouquet_quiver(3)
    result = compute_hilbert_series(HSRequest(build_linear_nilpotent_quiver(2), 4))
    return [
        U(3), QuiverNode("g", NodeKind.GAUGE, SO(4)), balance_report(q),
        balanced_subquiver_classification(q)[0], predict_global_symmetry(q),
        QuiverCharge(("a", "b"), ((1,), (0, -1))), HSRequest(q, 4), result,
        result.stats,
        duality_report(ToricConfig([[1, 0, 1], [0, 1, 1]])), ToricConfig([[1, 2]]),
    ]


def test_records_keep_their_contract():
    recs = records()
    assert len({type(r) for r in recs}) == len(recs) == 11
    for rec in recs:
        fields = getattr(rec, "_fields", None) or type(rec).__slots__
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        again = type(rec)(*[getattr(rec, name) for name in fields])
        assert again == rec and again is not rec
        if type(rec).__name__ not in ("BalanceReport", "HSRequest", "HSResult"):
            # Those hold a dict, a Quiver or a series, which are unhashable.
            assert hash(again) == hash(rec)
            assert pickle.loads(pickle.dumps(rec)) == rec
            assert copy.deepcopy(rec) == rec

    charges = [QuiverCharge(("a",), ((1,),)), QuiverCharge(("a",), ((0,),)),
               QuiverCharge((), ()), QuiverCharge(("a", "b"), ((0,), (0,)))]
    assert sorted(charges) == sorted(charges, key=lambda c: (c.node_ids, c.charges))
    assert sorted(charges)[:2] == [QuiverCharge((), ()), QuiverCharge(("a",), ((0,),))]

    too_small = "^group dimension must be >= 1, got "
    odd_usp = r"^USp\(3\) needs even n$"
    for bad, message in ((lambda: GaugeGroup(Family.UNITARY, 0), too_small + "0$"),
                         (lambda: GaugeGroup(family=Family.ORTHOGONAL, n=-1),
                          too_small + "-1$"),
                         (lambda: GaugeGroup(Family.SYMPLECTIC, 3), odd_usp),
                         (lambda: U(2)._replace(n=0), too_small + "0$"),
                         (lambda: USp(2)._replace(n=3), odd_usp),
                         (lambda: U(3)._replace(family=Family.SYMPLECTIC), odd_usp),
                         (lambda: GaugeGroup._make((Family.UNITARY, 0)), too_small + "0$")):
        with pytest.raises(QuiverError, match=message):
            bad()
    assert U(2)._replace(n=4) == U(4)
    assert repr(U(3)) == "U(3)" and repr(USp(4)) == "USp(4)"
    assert (U(3).rank, SO(5).rank, USp(4).rank) == (3, 2, 2)

    q = build_bouquet_quiver(3)
    req = HSRequest(q, 4)
    assert (req.refined, req.ungauge) == (frozenset(), None)

    c = ToricConfig([[1, 0, 1], [0, 1, 1]])
    assert c == ToricConfig([[1, 0, 1], [0, 1, 1]], d=3)
    assert c != ToricConfig([[1, 0, 1]]) and c != (c.rows, c.d)
    assert hash(c) == hash((((1, 0, 1), (0, 1, 1)), 3))
    assert repr(c) == "ToricConfig(rows=((1, 0, 1), (0, 1, 1)), d=3)"
    assert repr(ToricConfig([], d=2)) == "ToricConfig(rows=(), d=2)"
