"""The package's immutable value classes, pinned as their frozen dataclass
versions behaved: ``repr``, equality and hash by fields, keyword
construction with defaults, and no assignment after construction."""

import pickle

import pytest

from gutheory import (
    ComparisonEntry,
    DecisionProblem,
    DecisionReport,
    DistributionSpec,
    GUInterval,
    GUMeasureSpace,
    GUSequence,
    NatureStatus,
    Relation,
    Scheme,
    SelectionRationale,
)

NATURES = (NatureStatus("N1", GUInterval(0.25, 0.5)),)
SCHEMES = (Scheme("S1", (3.0,)), Scheme("S2", (5.0,)))


def report(note=None):
    return DecisionReport(
        scheme_names=("S1", "S2"),
        geus=(GUInterval(0.75, 1.5), GUInterval(1.25, 2.5)),
        tolerance=1e-9,
        comparison_column=(None, ComparisonEntry("S2", "S1", Relation.WEAKLY_GREATER)),
        selected="S2",
        rationale=SelectionRationale.WEAKLY_ADVANTAGE,
        attitude=None,
        **({} if note is None else {"note": note}),
    )


# name: (keyword construction relying on defaults, an instance with one
# field changed, its recorded repr, a field to try to assign, hashable)
CASES = {
    "GUInterval": (
        lambda: GUInterval(left=0.25, right=1),
        lambda: GUInterval(0.25, 2),
        "GUInterval(left=0.25, right=1.0)",
        "left",
        True,
    ),
    "DistributionSpec": (
        lambda: DistributionSpec(family="exponential", mu=2),
        lambda: DistributionSpec("exponential", 2, 4),
        "DistributionSpec(family='exponential', mu=2.0, sigma2=None)",
        "mu",
        True,
    ),
    "GUSequence": (
        lambda: GUSequence(elements=(1.5, -2.0)),
        lambda: GUSequence((1.5,)),
        "GUSequence(elements=(1.5, -2.0))",
        "elements",
        True,
    ),
    "NatureStatus": (
        lambda: NatureStatus(name="N1", gum=GUInterval(0.25, 0.5)),
        lambda: NatureStatus("N2", GUInterval(0.25, 0.5)),
        "NatureStatus(name='N1', gum=GUInterval(left=0.25, right=0.5))",
        "gum",
        True,
    ),
    "Scheme": (
        lambda: Scheme(name="S1", payoffs=(3.0, 4.0)),
        lambda: Scheme("S1", (3.0,)),
        "Scheme(name='S1', payoffs=(3.0, 4.0))",
        "payoffs",
        True,
    ),
    "ComparisonEntry": (
        lambda: ComparisonEntry(scheme="S2", versus="S1", relation=Relation.EQUAL),
        lambda: ComparisonEntry("S2", "S1", Relation.WEAKLY_GREATER),
        "ComparisonEntry(scheme='S2', versus='S1', relation=<Relation.EQUAL: 'Equal'>)",
        "relation",
        True,
    ),
    "DecisionProblem": (
        lambda: DecisionProblem(natures=NATURES, schemes=SCHEMES),
        lambda: DecisionProblem(NATURES, SCHEMES, "averse"),
        "DecisionProblem(natures=(NatureStatus(name='N1', gum=GUInterval(left=0.25, "
        "right=0.5)),), schemes=(Scheme(name='S1', payoffs=(3.0,)), Scheme(name='S2', "
        "payoffs=(5.0,))), attitude=None, tolerance=1e-09)",
        "attitude",
        True,
    ),
    "DecisionReport": (
        report,
        lambda: report(note="tie"),
        "DecisionReport(scheme_names=('S1', 'S2'), geus=(GUInterval(left=0.75, "
        "right=1.5), GUInterval(left=1.25, right=2.5)), tolerance=1e-09, "
        "comparison_column=(None, ComparisonEntry(scheme='S2', versus='S1', "
        "relation=<Relation.WEAKLY_GREATER: 'WeaklyGreater'>)), selected='S2', "
        "rationale=<SelectionRationale.WEAKLY_ADVANTAGE: 'WeaklyAdvantage'>, "
        "attitude=None, note=None)",
        "selected",
        True,
    ),
    "GUMeasureSpace": (
        lambda: GUMeasureSpace(atoms=["a", "b"], assignment={"a": [0.25, 0.5], "b": (0.5, 0.75)}),
        lambda: GUMeasureSpace(["a", "b"], {"a": [0.25, 0.5], "b": [0.5, 1.0]}),
        "GUMeasureSpace(atoms=('a', 'b'), assignment={'a': GUInterval(left=0.25, "
        "right=0.5), 'b': GUInterval(left=0.5, right=0.75)}, mode='coherent')",
        "mode",
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class(name):
    build, other, shown, field, hashable = CASES[name]
    value, again, changed = build(), build(), other()
    assert type(value).__name__ == name
    assert repr(value) == shown
    assert value == again and not value != again
    assert value != changed and not value == changed
    assert value != shown and value.__eq__(shown) is NotImplemented
    if hashable:
        assert hash(value) == hash(again)
        assert hash(value) != hash(changed)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(changed, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert value == again
    assert pickle.loads(pickle.dumps(value)) == value


def test_report_relations_are_built_once_and_left_out_of_equality():
    first, second = report(), report()
    relations = first.relations
    assert relations is first.relations
    assert relations == (
        (Relation.EQUAL, Relation.WEAKLY_SMALLER),
        (Relation.WEAKLY_GREATER, Relation.EQUAL),
    )
    assert first == second and hash(first) == hash(second)
