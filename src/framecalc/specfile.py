"""Model spec files: a JSON format with exact scalar literals.

Layout::

    {
      "dim": 4,
      "parameter": "b",                      # optional
      "brackets":   [{"i": 2, "j": 4, "k": 1, "v": "-1"}],
      "omega":      [{"i": 1, "j": 2, "v": "1"}, ...],
      "connection": [{"i": 4, "j": 2, "k": 1, "v": "-b+2/3"}, ...],  # optional
      "vectors":    {"E2": ["0", "1", "0", "0"], ...}                # optional
    }

Bracket and omega entries require i < j (antisymmetric completion is
implicit).  All values are scalar literals, never floats.  ``dim`` is at
most :data:`MAX_DIM`.  Serialization is canonical: entries sorted, zero
entries dropped, literals re-rendered; parse-serialize-parse reaches a
fixpoint after one round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .connections import Connection, connection_from_entries
from .errors import (
    AlgebraError,
    FormError,
    ParameterError,
    ScalarParseError,
    SpecSemanticError,
    SpecSyntaxError,
)
from .frames import (
    FrameAlgebra,
    SymplecticForm,
    structure_constants,
    symplectic_form,
    validate_algebra,
)
from .scalars import Scalar, parse_scalar
from .tensors import Tensor, vector

MAX_DIM = 16
"""Largest frame dimension a spec file may declare.  Curvature has dim**4
components and the holonomy closure works among dim**2 endomorphisms, so
without a bound a large ``dim`` would run out of time or memory instead of
failing at parse time."""


@dataclass(frozen=True)
class ModelSpecDocument:
    dim: int
    parameter: str | None
    brackets: tuple[tuple[int, int, int, Scalar], ...]
    omega: tuple[tuple[int, int, Scalar], ...]
    connection: tuple[tuple[int, int, int, Scalar], ...] | None
    vectors: tuple[tuple[str, tuple[Scalar, ...]], ...]


def parse_spec(text: str | bytes) -> ModelSpecDocument:
    """Parse and structurally validate a spec document.

    Syntax faults (JSON, scalar literals) raise SpecSyntaxError; rule
    violations (index ranges, i < j, duplicates, undeclared parameters)
    raise SpecSemanticError with the offending field named.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecSyntaxError(f"spec file is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SpecSemanticError("top level must be a JSON object")
    allowed = {"dim", "parameter", "brackets", "omega", "connection", "vectors"}
    unknown = set(raw) - allowed
    if unknown:
        raise SpecSemanticError(f"unknown top-level keys: {sorted(unknown)}")

    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecSemanticError("dim: must be a positive integer")
    if dim > MAX_DIM:
        raise SpecSemanticError(f"dim: {dim} is above the maximum {MAX_DIM}")

    parameter = raw.get("parameter")
    if parameter is not None:
        from .scalars import _is_param_name

        if not isinstance(parameter, str) or not _is_param_name(parameter):
            raise SpecSemanticError("parameter: must be a lowercase identifier")

    def scalar_at(where: str, literal) -> Scalar:
        if not isinstance(literal, str):
            raise SpecSemanticError(f"{where}: scalar values must be literal strings")
        try:
            s = parse_scalar(literal)
        except ScalarParseError as exc:
            raise SpecSyntaxError(f"{where}: {exc}") from exc
        if s.param is not None and s.param != parameter:
            raise SpecSemanticError(
                f"{where}: parameter {s.param!r} is not declared (parameter = {parameter!r})"
            )
        return s

    def index_at(where: str, entry, key: str) -> int:
        v = entry.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= dim:
            raise SpecSemanticError(f"{where}.{key}: index must be in 1..{dim}")
        return v

    def pair_table(key: str, need_k: bool):
        items = raw.get(key)
        if items is None:
            return None
        if not isinstance(items, list):
            raise SpecSemanticError(f"{key}: must be a list")
        seen = set()
        out = []
        for pos, entry in enumerate(items):
            where = f"{key}[{pos}]"
            if not isinstance(entry, dict):
                raise SpecSemanticError(f"{where}: must be an object")
            extra = set(entry) - ({"i", "j", "k", "v"} if need_k else {"i", "j", "v"})
            if extra:
                raise SpecSemanticError(f"{where}: unknown keys {sorted(extra)}")
            i = index_at(where, entry, "i")
            j = index_at(where, entry, "j")
            k = index_at(where, entry, "k") if need_k else None
            if key in ("brackets", "omega") and not i < j:
                raise SpecSemanticError(f"{where}: {key.rstrip('s')} indices must satisfy i < j")
            s = scalar_at(f"{where}.v", entry.get("v"))
            ident = (i, j, k)
            if ident in seen:
                raise SpecSemanticError(f"{where}: duplicate entry for {ident}")
            seen.add(ident)
            if s:
                out.append((i, j, k, s) if need_k else (i, j, s))
        return tuple(sorted(out, key=lambda e: e[:-1]))

    brackets = pair_table("brackets", need_k=True) or ()
    omega = pair_table("omega", need_k=False)
    if omega is None:
        raise SpecSemanticError("omega: required")
    connection = pair_table("connection", need_k=True)

    vectors_raw = raw.get("vectors")
    vectors: list[tuple[str, tuple[Scalar, ...]]] = []
    if vectors_raw is not None:
        if not isinstance(vectors_raw, dict):
            raise SpecSemanticError("vectors: must be an object")
        for name in sorted(vectors_raw):
            comps = vectors_raw[name]
            if not isinstance(name, str) or not name:
                raise SpecSemanticError("vectors: names must be nonempty strings")
            if not isinstance(comps, list) or len(comps) != dim:
                raise SpecSemanticError(f"vectors.{name}: needs exactly {dim} components")
            vectors.append(
                (name, tuple(scalar_at(f"vectors.{name}[{p}]", c) for p, c in enumerate(comps)))
            )

    return ModelSpecDocument(
        dim=dim,
        parameter=parameter,
        brackets=brackets,
        omega=omega,
        connection=connection,
        vectors=tuple(vectors),
    )


def serialize_spec(doc: ModelSpecDocument) -> str:
    """Canonical rendering: sorted entries, canonical literals, two-space indent."""
    out: dict = {"dim": doc.dim}
    if doc.parameter is not None:
        out["parameter"] = doc.parameter
    out["brackets"] = [
        {"i": i, "j": j, "k": k, "v": v.render()} for i, j, k, v in doc.brackets
    ]
    out["omega"] = [{"i": i, "j": j, "v": v.render()} for i, j, v in doc.omega]
    if doc.connection is not None:
        out["connection"] = [
            {"i": i, "j": j, "k": k, "v": v.render()} for i, j, k, v in doc.connection
        ]
    if doc.vectors:
        out["vectors"] = {name: [c.render() for c in comps] for name, comps in doc.vectors}
    return json.dumps(out, indent=2) + "\n"


@dataclass(frozen=True)
class LoadedModel:
    name: str
    document: ModelSpecDocument
    algebra: FrameAlgebra
    omega: SymplecticForm
    connection: Connection | None
    vectors: dict[str, Tensor] = field(default_factory=dict)


def load_model(doc: ModelSpecDocument, name: str = "model") -> LoadedModel:
    """Build the validated model a document describes.

    Algebra and form validation failures surface as SpecSemanticError so
    the command line can map them to the semantic exit code.
    """
    c = structure_constants(doc.dim, {(i, j, k): v for i, j, k, v in doc.brackets})
    try:
        algebra = validate_algebra(c)
    except AlgebraError as exc:
        raise SpecSemanticError(f"brackets: {exc}") from exc
    try:
        omega = symplectic_form(doc.dim, {(i, j): v for i, j, v in doc.omega})
    except (FormError, ParameterError) as exc:
        raise SpecSemanticError(f"omega: {exc}") from exc
    connection = None
    if doc.connection is not None:
        connection = connection_from_entries(
            doc.dim, {(i, j, k): v for i, j, k, v in doc.connection}
        )
    vectors = {nm: vector(doc.dim, comps) for nm, comps in doc.vectors}
    return LoadedModel(name, doc, algebra, omega, connection, vectors)


def load_spec_file(path) -> LoadedModel:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecSyntaxError(f"cannot read {path}: {exc}") from exc
    doc = parse_spec(text)
    import os

    name = os.path.splitext(os.path.basename(str(path)))[0]
    return load_model(doc, name)


def document_from_model(
    dim: int,
    parameter: str | None,
    algebra: FrameAlgebra,
    omega: SymplecticForm,
    connection: Connection | None,
    vectors: dict[str, Tensor] | None = None,
) -> ModelSpecDocument:
    """Export model data back to canonical document form."""
    brackets = tuple((i, j, k, v) for (i, j, k), v in algebra.c.nonzero() if i < j)
    om = tuple((i, j, v) for (i, j), v in omega.lower.nonzero() if i < j)
    conn_entries = None
    if connection is not None:
        conn_entries = tuple((*idx, v) for idx, v in connection.gamma.nonzero())
    if vectors is None:
        vectors = {}
    vecs = tuple(sorted((name, tuple(t.comps)) for name, t in vectors.items()))
    return ModelSpecDocument(
        dim=dim,
        parameter=parameter,
        brackets=brackets,
        omega=om,
        connection=conn_entries,
        vectors=vecs,
    )
