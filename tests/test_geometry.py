"""The per-model Geometry context and the lazy holonomy closure.

The closure is checked against an eager reference kept here: it computes
every bracket and derivative as soon as a candidate enlarges the span and
never stops early, so equal canonical bases show that laziness and the
sp(omega) stop change no answer.
"""

import json
import random
from collections import deque
from fractions import Fraction
from importlib import resources

import pytest

import framecalc
import framecalc.analysis
import framecalc.catalog
import framecalc.cli
import framecalc.connections
import framecalc.frames
import framecalc.moduli
from framecalc import (
    Geometry,
    abelian_algebra,
    connection_from_entries,
    darboux_flat,
    infinitesimal_holonomy,
    kodaira_thurston,
    symplectic_form,
    verify_automorphism,
)
from framecalc.analysis import compose
from framecalc.connections import covariant_derivative, curvature
from framecalc.errors import PreconditionError, ShapeError
from framecalc.linalg import Echelon
from framecalc.moduli import symplectic_connection_space
from framecalc.specfile import document_from_model, load_spec_file, serialize_spec
from framecalc.tensors import DOWN, UP, Tensor, basis_vector

from helpers import random_symplectic_model, sample_connection

NAMESPACES = (
    framecalc,
    framecalc.analysis,
    framecalc.catalog,
    framecalc.cli,
    framecalc.connections,
    framecalc.frames,
    framecalc.moduli,
)


def shipped(name: str) -> str:
    return str(resources.files("framecalc").joinpath("data", name))


def eager_holonomy(alg, conn) -> list[list[Fraction]]:
    """Reference closure: brackets and derivatives computed on acceptance,
    no early stop; returns the canonical echelon rows."""
    riem = curvature(alg, conn)
    dim = alg.dim

    def slice_(t, prefix):
        return Tensor.from_function(dim, (DOWN, UP), lambda q, k: t[prefix + (q, k)])

    span = Echelon(dim * dim)
    contributors = []
    pending = deque(slice_(riem, (i, j)) for i in range(1, dim + 1) for j in range(i + 1, dim + 1))
    while pending:
        endo = pending.popleft()
        if not span.insert([c.as_fraction() for c in endo.comps]):
            continue
        for other in contributors:
            pending.append(compose(endo, other) - compose(other, endo))
        grad = covariant_derivative(alg, conn, endo)
        pending.extend(slice_(grad, (a,)) for a in range(1, dim + 1))
        contributors.append(endo)
    return span.basis()


def rows(generators) -> list[list[Fraction]]:
    return [[c.as_fraction() for c in g.comps] for g in generators]


def integer_point(rng, space):
    return space.point([rng.randint(-2, 2) for _ in range(space.dimension)])


def darboux6_slice(rng):
    model = darboux_flat(3)
    space = symplectic_connection_space(model.algebra, model.omega)
    return model.algebra, model.omega, sample_connection(rng, space, nonzero=6)


def count_calls(monkeypatch, name, predicate=lambda *args: True):
    """Count calls to the package function ``name`` in every namespace."""
    original = getattr(framecalc.connections, name, None) or getattr(framecalc.frames, name)
    calls = []

    def counting(*args, **kwargs):
        if predicate(*args):
            calls.append(args)
        return original(*args, **kwargs)

    for ns in NAMESPACES:
        if getattr(ns, name, None) is original:
            monkeypatch.setattr(ns, name, counting)
    return calls


# -- the lazy closure against the eager reference ----------------------------------


@pytest.mark.parametrize("beta", [None, 0, Fraction(-2, 3)])
def test_lazy_closure_matches_eager_on_catalog(beta):
    for model in (kodaira_thurston(beta), darboux_flat(1), darboux_flat(2)):
        got = infinitesimal_holonomy(model.algebra, model.connection, omega=model.omega)
        if beta is None:
            assert got == []
        else:
            assert rows(got) == eager_holonomy(model.algebra, model.connection)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lazy_closure_matches_eager_dim4_generic(seed):
    rng = random.Random(seed)
    alg, omega = random_symplectic_model(rng, 4)
    conn = integer_point(rng, symplectic_connection_space(alg, omega))
    reference = eager_holonomy(alg, conn)
    assert len(reference) == 10  # sp(4): the stop fires
    assert rows(infinitesimal_holonomy(alg, conn, omega=omega)) == reference
    assert rows(infinitesimal_holonomy(alg, conn)) == reference


@pytest.mark.parametrize("seed", [4, 5])
def test_lazy_closure_matches_eager_dim6_slice(seed):
    alg, omega, conn = darboux6_slice(random.Random(seed))
    reference = eager_holonomy(alg, conn)
    assert reference
    assert rows(infinitesimal_holonomy(alg, conn, omega=omega)) == reference


def test_stop_waits_for_form_preservation():
    """A torsion-free connection that does not preserve omega has holonomy
    beyond sp(4); the n(2n+1) stop must not fire."""
    rng = random.Random(3)
    entries = {}
    for i in range(1, 5):
        for j in range(i, 5):
            for k in range(1, 5):
                v = rng.randint(-2, 2)
                if v:
                    entries[(i, j, k)] = entries[(j, i, k)] = v
    alg = abelian_algebra(4)
    conn = connection_from_entries(4, entries)
    omega = symplectic_form(4, {(1, 2): 1, (3, 4): 1})
    geo = Geometry(alg, omega, conn)
    assert not geo.preserves_form
    reference = eager_holonomy(alg, conn)
    assert len(reference) > 10
    assert rows(infinitesimal_holonomy(alg, conn, omega=omega, geometry=geo)) == reference


def test_sp4_holonomy_needs_no_commutator(monkeypatch, tmp_path, capsys):
    rng = random.Random(1)
    alg, omega = random_symplectic_model(rng, 4)
    conn = integer_point(rng, symplectic_connection_space(alg, omega))
    spec = tmp_path / "sp4.spec"
    spec.write_text(serialize_spec(document_from_model(4, None, alg, omega, conn, {})))
    calls = []
    original = framecalc.analysis.commutator
    monkeypatch.setattr(
        framecalc.analysis, "commutator", lambda a, b: calls.append(1) or original(a, b)
    )
    assert framecalc.cli.main(["holonomy", str(spec), "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["generator_count"] == 10
    assert calls == []


# -- one computation per call ----------------------------------------------------------


def test_verify_all_invariant_computes_each_fact_once(monkeypatch, capsys):
    path = shipped("darboux2.spec")
    form = load_spec_file(path).omega.lower
    curv = count_calls(monkeypatch, "curvature")
    tors = count_calls(monkeypatch, "first_torsion_violation")
    grad_omega = count_calls(monkeypatch, "covariant_derivative", lambda alg, conn, t: t == form)
    powers = count_calls(monkeypatch, "omega_power")
    code = framecalc.cli.main(["verify", path, "--all-invariant", "--format", "machine"])
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert (len(curv), len(tors), len(grad_omega)) == (1, 1, 1)
    assert len(powers) <= 2


def test_geometry_memoizes_and_keeps_verdicts():
    model = kodaira_thurston(0)
    geo = Geometry(model.algebra, model.omega, model.connection)
    assert geo.curvature is geo.curvature
    assert geo.top_omega_powers is geo.top_omega_powers
    assert geo.holonomy is geo.holonomy == []
    assert geo.torsion_violation is None and geo.preserves_form
    geo.require_symplectic()

    torsionful = Geometry(model.algebra, model.omega, connection_from_entries(4, {}))
    for _ in range(2):
        with pytest.raises(PreconditionError, match=r"torsion nonzero at \(2, 4\)"):
            torsionful.require_symplectic()


def test_geometry_of_another_model_is_refused():
    kt = kodaira_thurston(0)
    other = kodaira_thurston(1)
    geo = Geometry(kt.algebra, kt.omega, kt.connection)
    with pytest.raises(ShapeError):
        verify_automorphism(
            other.algebra, other.omega, other.connection, basis_vector(4, 1), geometry=geo
        )
    with pytest.raises(ShapeError):
        infinitesimal_holonomy(other.algebra, other.connection, geometry=geo)


def test_verify_with_shared_geometry_matches_fresh_reports():
    rng = random.Random(7)
    alg, omega = random_symplectic_model(rng, 4)
    conn = integer_point(rng, symplectic_connection_space(alg, omega))
    geo = Geometry(alg, omega, conn)
    for a in range(1, 5):
        x = basis_vector(4, a)
        assert verify_automorphism(alg, omega, conn, x, geometry=geo) == verify_automorphism(
            alg, omega, conn, x
        )
