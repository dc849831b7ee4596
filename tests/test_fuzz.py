"""Fuzzing the spec parser and the command line.

Whatever a spec file holds, the library raises only ``FrameCalcError``
subclasses, and the command line exits 0, 1 or 2; the one exception it
lets through is ``ConventionFault``, an internal invariant.  Generated
files stay at dim 6 or below and the example counts stay small, so these
tests cost a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import framecalc.cli
from framecalc.errors import ConventionFault, FrameCalcError, SpecSemanticError
from framecalc.specfile import MAX_DIM, load_model, parse_spec

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

literals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-2/3", "b", "-b+1", "b^2", "c", "1/0", "x y", "", "3"])


@st.composite
def spec_documents(draw, max_dim: int = 6):
    """Mostly well-formed spec dicts with a few malformed fields."""
    dim = draw(st.integers(1, max_dim))
    index = st.integers(0, dim + 1)
    doc: dict = {"dim": dim}
    if draw(st.booleans()):
        doc["parameter"] = draw(st.sampled_from(["b", "b", "B", 3]))
    doc["brackets"] = draw(
        st.lists(st.fixed_dictionaries({"i": index, "j": index, "k": index, "v": literals}), max_size=3)
    )
    pairs = [{"i": 2 * k - 1, "j": 2 * k, "v": "1"} for k in range(1, dim // 2 + 1)]
    doc["omega"] = draw(
        st.one_of(
            st.just(pairs),
            st.lists(st.fixed_dictionaries({"i": index, "j": index, "v": literals}), max_size=4),
        )
    )
    if draw(st.booleans()):
        doc["connection"] = draw(
            st.lists(st.fixed_dictionaries({"i": index, "j": index, "k": index, "v": literals}), max_size=5)
        )
    if draw(st.booleans()):
        doc["vectors"] = {
            "X": draw(st.lists(literals, min_size=dim - 1 if dim > 1 else dim, max_size=dim + 1))
        }
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["dim", "omega", "extra"]))] = draw(json_values)
    return doc


def _only_package_errors(text) -> None:
    try:
        load_model(parse_spec(text))
    except FrameCalcError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=40) | st.binary(max_size=40))
def test_parse_spec_raw_text_raises_only_package_errors(text):
    _only_package_errors(text)


@settings(max_examples=150, deadline=None)
@given(json_values | spec_documents())
def test_parse_spec_documents_raise_only_package_errors(doc):
    _only_package_errors(json.dumps(doc))


COMMANDS = st.sampled_from(
    [
        ["verify", "--vector", "X"],
        ["verify", "--all-invariant"],
        ["verify", "--vector", "X", "--beta", "1/2"],
        ["holonomy"],
        ["holonomy", "--beta", "0"],
        ["moduli"],
    ]
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec_documents(max_dim=4), COMMANDS, st.sampled_from(["human", "machine"]))
def test_cli_exit_codes_are_closed(doc, command, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.spec")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = command[:1] + [path] + command[1:] + ["--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = framecalc.cli.main(argv)
            except ConventionFault:
                return
    assert code in (0, 1, 2)


def test_dimension_above_the_bound_is_refused_at_parse_time():
    for dim in (MAX_DIM + 1, 200):
        doc = {"dim": dim, "omega": [{"i": 1, "j": 2, "v": "1"}]}
        start = time.perf_counter()
        try:
            parse_spec(json.dumps(doc))
        except SpecSemanticError as exc:
            assert f"above the maximum {MAX_DIM}" in str(exc)
        else:
            raise AssertionError(f"dim {dim} was accepted")
        assert time.perf_counter() - start < 1.0


def test_dimension_bound_exits_2_from_the_cli(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text(json.dumps({"dim": 200, "omega": []}))
    assert framecalc.cli.main(["verify", str(path), "--vector", "X"]) == 2
    assert "above the maximum" in capsys.readouterr().err


def test_dimension_at_the_bound_is_accepted():
    doc = parse_spec(json.dumps({"dim": MAX_DIM, "omega": [{"i": 1, "j": 2, "v": "1"}]}))
    assert doc.dim == MAX_DIM
