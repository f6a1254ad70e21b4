"""The package's records keep the constructors they had as dataclasses.

`ArtinReport`, `ComplexDescriptor`, `SectionSpace`, `CohomologyReport`,
`DeformationProblem`, `DeformationState`, `ObstructionCocycle`,
`Obstructed`, `SolverResult`, `dsl._Token`, `ProblemFile`, `Chart`,
`SubmanifoldData` and `PoissonLineBundle` are plain classes with an explicit
`__init__`. `SIGNATURES` is the parameter table of the generated
constructors, recorded when they were dataclasses: names, order and
defaults. A default of `Fresh` was a `default_factory` of that type; its
parameter now defaults to None, and every instance that omits it gets its
own empty container, which no other instance shares.
"""

import inspect

import pytest

from poissondef import artin, complexes, deformation, dsl, geometry
from poissondef.errors import InconsistentData
from poissondef.geometry import Chart

REQUIRED = inspect.Parameter.empty


class Fresh:
    def __init__(self, factory):
        self.factory = factory


SIGNATURES = {
    artin.ArtinReport: [
        ("kind", REQUIRED), ("order", REQUIRED), ("cls", REQUIRED),
        ("liftable", REQUIRED), ("witness", REQUIRED),
        ("solution", REQUIRED), ("invariance", None), ("perturbed", None)],
    complexes.ComplexDescriptor: [
        ("kind", REQUIRED), ("manifold", REQUIRED), ("submanifold", None),
        ("linebundle", None)],
    complexes.SectionSpace: [("basis", REQUIRED), ("degree_bound", REQUIRED)],
    complexes.CohomologyReport: [
        ("kind", REQUIRED), ("engine", REQUIRED), ("dimension", REQUIRED),
        ("basis", REQUIRED), ("degree_bound", None), ("stable", True),
        ("section_dimension", None), ("weights", Fresh(dict)),
        ("truncated", False), ("notes", ())],
    deformation.DeformationProblem: [
        ("submanifold", REQUIRED), ("params", REQUIRED), ("order", REQUIRED),
        ("degree", REQUIRED), ("mode", "fixed"), ("prescribed", None),
        ("seed", None), ("directions", None), ("bound", None)],
    deformation.DeformationState: [
        ("problem", REQUIRED), ("order", REQUIRED), ("phi", REQUIRED),
        ("lam", REQUIRED)],
    deformation.ObstructionCocycle: [
        ("order", REQUIRED), ("totals", REQUIRED),
        ("certificates", REQUIRED)],
    deformation.Obstructed: [
        ("order", REQUIRED), ("cocycle", REQUIRED), ("witness", REQUIRED),
        ("tested_degrees", REQUIRED)],
    deformation.SolverResult: [
        ("problem", REQUIRED), ("state", REQUIRED), ("obstructed", REQUIRED),
        ("h0", REQUIRED), ("chosen_basis", REQUIRED), ("verify", REQUIRED),
        ("char_map_identity", REQUIRED)],
    dsl._Token: [("kind", REQUIRED), ("value", REQUIRED), ("line", REQUIRED),
                 ("col", REQUIRED)],
    dsl.ProblemFile: [
        ("name", None), ("builtin", None), ("charts", Fresh(list)),
        ("transitions", Fresh(dict)), ("poisson", Fresh(dict)),
        ("normal_spec", Fresh(dict)), ("params", ()), ("order", None),
        ("degree", None), ("mode", "fixed"), ("family", Fresh(dict)),
        ("lam", Fresh(dict)), ("artin", None), ("warnings", Fresh(list)),
        ("_space", None)],
    geometry.Chart: [("name", REQUIRED), ("vars", REQUIRED)],
    geometry.SubmanifoldData: [
        ("manifold", REQUIRED), ("normal", REQUIRED),
        ("tangential", REQUIRED), ("codim", REQUIRED),
        ("first_order", Fresh(dict)), ("structure_fields", Fresh(dict)),
        ("checks", Fresh(dict))],
    geometry.PoissonLineBundle: [
        ("submanifold", REQUIRED), ("factors", REQUIRED), ("fields", REQUIRED),
        ("invariants", REQUIRED)],
}


def _build(cls):
    """Two instances from the required arguments alone: a distinct object
    per argument, except an empty `params`."""
    required = [n for n, d in SIGNATURES[cls] if d is REQUIRED]
    return [cls(*[() if n == "params" else object() for n in required])
            for _ in range(2)]


@pytest.mark.parametrize("cls", list(SIGNATURES),
                         ids=lambda c: c.__qualname__)
def test_the_constructor_keeps_its_parameters(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [n for n, _ in SIGNATURES[cls]]
    for p, (name, default) in zip(params, SIGNATURES[cls]):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, name
        if isinstance(default, Fresh):
            assert p.default is None, name
        else:
            assert p.default == default, name
    first, second = _build(cls)
    for name, default in SIGNATURES[cls]:
        if isinstance(default, Fresh):
            assert getattr(first, name) == default.factory(), name
            assert getattr(first, name) is not getattr(second, name), name
        elif default is not REQUIRED:
            assert getattr(first, name) == default, name


def test_the_caches_are_not_parameters_and_start_empty():
    caches = {complexes.ComplexDescriptor: ("_compiled",),
              geometry.SubmanifoldData: ("_moved_first_order",
                                         "_restricted_fields",
                                         "_transport_plans", "_complexes")}
    for cls, names in caches.items():
        first, second = _build(cls)
        for name in names:
            assert name not in inspect.signature(cls).parameters, name
            assert getattr(first, name) == {}, name
            assert getattr(first, name) is not getattr(second, name), name


def test_the_problem_checks_its_mode_and_keeps_params_a_tuple():
    problem = deformation.DeformationProblem(None, ["t1", "t2"], 2, 1)
    assert problem.params == ("t1", "t2")
    with pytest.raises(InconsistentData, match="unknown mode 'bogus'"):
        deformation.DeformationProblem(None, ("t",), 2, 1, mode="bogus")
    with pytest.raises(InconsistentData, match="needs the ambient family"):
        deformation.DeformationProblem(None, ("t",), 2, 1, mode="prescribed")
    prescribed = deformation.DeformationProblem(None, ("t",), 2, 1,
                                                "prescribed", {})
    assert prescribed.prescribed == {}


def test_a_chart_is_a_value():
    assert Chart("U0", ("z1",)) == Chart("U0", ("z1",))
    assert hash(Chart("U0", ("z1",))) == hash(Chart("U0", ("z1",)))
    assert Chart("U0", ("z1",)) != Chart("U0", ("z2",))
    assert Chart("U0", ("z1",)) != Chart("U1", ("z1",))
    assert len({Chart("U0", ("z1",)), Chart("U0", ("z1",))}) == 1
