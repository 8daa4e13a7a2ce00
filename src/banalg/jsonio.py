"""JSON wire formats.

Algebra files:
    {"name": str, "dim": n, "weights": [w0, ...],
     "structure": [[i, j, k, re, im], ...],        # sparse, 0-based
     "unit": [[re, im], ...]}                       # optional

Morphism files:
    {"source": str, "target": str, "matrix": [[[re, im], ...], ...]}
    (matrix is target-dim x source-dim; source and target, when present,
    must name the two algebras the map is read for)

Sigma files:  {"values": [[re, im], ...]} ordered by the character list.

All floats are emitted with 17 significant digits so parse(emit(x)) is
bit-exact; complex numbers always travel as [re, im] pairs.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import Algebra, all_finite
from .errors import ConstructionError, SchemaError


def fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float cannot be serialized")
    return format(float(x) + 0.0, ".17g")  # + 0.0 turns -0.0 into 0.0


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON rendering: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 2)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [render_json(v, indent + 2) for v in obj]
        if all("\n" not in r and len(r) < 24 for r in rendered) and sum(
            len(r) for r in rendered
        ) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _check(cond: bool, violations: list[str], where: str, msg: str):
    if not cond:
        violations.append(f"{where}: {msg}")


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pair(pair: Any, violations: list[str], where: str) -> complex | None:
    """An [re, im] pair as a complex number, or None after recording a violation."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
        violations.append(f"{where}: expected [re, im] with numeric entries")
        return None
    return complex(pair[0], pair[1])


def _tensor_from_sparse(entries: Any, shape: tuple[int, int, int],
                        where: str) -> np.ndarray:
    """Dense tensor from [i, j, k, re, im] entries; every bad entry is a violation."""
    if not isinstance(entries, list):
        raise SchemaError([f"{where}: expected a list"])
    v: list[str] = []
    t = np.zeros(shape, dtype=complex)
    for idx, row in enumerate(entries):
        loc = f"{where}[{idx}]"
        if not (isinstance(row, list) and len(row) == 5):
            v.append(f"{loc}: expected [i, j, k, re, im]")
            continue
        *ijk, re, im = row
        if not (all(map(_is_int, ijk)) and _is_number(re) and _is_number(im)):
            v.append(f"{loc}: expected integer indices and numeric re/im")
        elif not all(0 <= x < bound for x, bound in zip(ijk, shape)):
            v.append(f"{loc}: index out of range for shape {shape}")
        else:
            t[tuple(ijk)] = complex(re, im)
    if v:
        raise SchemaError(v)
    return t


def _sparse_tensor(t: np.ndarray) -> list:
    """[i, j, k, re, im] for every nonzero entry, in row-major index order."""
    return [[int(i), int(j), int(k), float(t[i, j, k].real), float(t[i, j, k].imag)]
            for i, j, k in np.argwhere(t != 0)]


def algebra_to_dict(algebra: Algebra) -> dict:
    doc: dict[str, Any] = {
        "name": algebra.name,
        "dim": algebra.dim,
        "weights": [float(w) for w in algebra.weights],
        "structure": _sparse_tensor(algebra.structure),
    }
    if algebra.unit is not None:
        doc["unit"] = [complex_pair(z) for z in algebra.unit]
    return doc


def algebra_from_dict(doc: Any, where: str = "$") -> Algebra:
    v: list[str] = []
    _check(isinstance(doc, dict), v, where, "expected an object")
    if v:
        raise SchemaError(v)
    for key in ("name", "dim", "weights", "structure"):
        _check(key in doc, v, where, f"missing field {key!r}")
    if v:
        raise SchemaError(v)
    name = doc["name"]
    _check(isinstance(name, str), v, f"{where}.name", "expected a string")
    dim = doc["dim"]
    _check(_is_int(dim), v, f"{where}.dim", "expected an integer")
    if v:
        raise SchemaError(v)
    _check(dim >= 1, v, f"{where}.dim", "must be >= 1")
    weights = doc["weights"]
    _check(isinstance(weights, list) and len(weights) == dim, v, f"{where}.weights",
           f"expected a list of {dim} numbers")
    if not v:
        for idx, w in enumerate(weights):
            _check(_is_number(w), v, f"{where}.weights[{idx}]", "expected a number")
            if not v and w <= 0:
                v.append(f"{where}.weights[{idx}]: must be > 0")
    if v:
        raise SchemaError(v)
    tensor = _tensor_from_sparse(doc["structure"], (dim, dim, dim), f"{where}.structure")
    unit = None
    if "unit" in doc and doc["unit"] is not None:
        u = doc["unit"]
        if not (isinstance(u, list) and len(u) == dim):
            v.append(f"{where}.unit: expected a list of {dim} [re, im] pairs")
        else:
            unit = [_pair(pair, v, f"{where}.unit[{idx}]") for idx, pair in enumerate(u)]
    if v:
        raise SchemaError(v)
    return Algebra(name=name, weights=np.array(weights, dtype=float),
                   structure=tensor, unit=unit)


def morphism_to_dict(P: np.ndarray, source: Algebra, target: Algebra) -> dict:
    """The morphism file of the (target dim, source dim) matrix P."""
    return {
        "source": source.name,
        "target": target.name,
        "matrix": [[complex_pair(z) for z in row] for row in P],
    }


def morphism_from_dict(doc: Any, source: Algebra, target: Algebra,
                       where: str = "$") -> np.ndarray:
    v: list[str] = []
    _check(isinstance(doc, dict), v, where, "expected an object")
    if v:
        raise SchemaError(v)
    for key, algebra in (("source", source), ("target", target)):
        if key in doc:
            _check(doc[key] == algebra.name, v, f"{where}.{key}",
                   f"expected {algebra.name!r}, got {doc[key]!r}")
    m = doc.get("matrix")
    _check(isinstance(m, list) and len(m) == target.dim, v, f"{where}.matrix",
           f"expected {target.dim} rows")
    matrix = np.zeros((target.dim, source.dim), dtype=complex)
    if not v:
        for r, row in enumerate(m):
            if not (isinstance(row, list) and len(row) == source.dim):
                v.append(f"{where}.matrix[{r}]: expected {source.dim} [re, im] pairs")
                break
            for c_, pair in enumerate(row):
                z = _pair(pair, v, f"{where}.matrix[{r}][{c_}]")
                if z is not None:
                    matrix[r, c_] = z
    if v:
        raise SchemaError(v)
    return matrix


def sigma_from_dict(doc: Any, expected_len: int | None = None,
                    where: str = "$") -> np.ndarray:
    v: list[str] = []
    _check(isinstance(doc, dict) and "values" in doc, v, where,
           'expected an object with a "values" field')
    if v:
        raise SchemaError(v)
    vals = doc["values"]
    _check(isinstance(vals, list), v, f"{where}.values", "expected a list")
    if not v and expected_len is not None and len(vals) != expected_len:
        v.append(f"{where}.values: expected {expected_len} entries, got {len(vals)}")
    if v:
        raise SchemaError(v)
    out = [_pair(pair, v, f"{where}.values[{idx}]") for idx, pair in enumerate(vals)]
    if v:
        raise SchemaError(v)
    return np.array(out, dtype=complex)


def actions_from_dict(doc: Any, m: int, p: int, where: str = "$"
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The semidirect action tensors {"action_bi": [...], "action_ib": [...]}."""
    if not isinstance(doc, dict):
        raise SchemaError([f"{where}: expected an object"])
    bi = _tensor_from_sparse(doc.get("action_bi", []), (m, p, p), f"{where}.action_bi")
    ib = _tensor_from_sparse(doc.get("action_ib", []), (p, m, p), f"{where}.action_ib")
    return bi, ib


def bundle_to_dict(desc) -> dict:
    """Serialize a ProductDescriptor together with its assembled algebra."""
    doc: dict[str, Any] = {
        "algebra": algebra_to_dict(desc.algebra),
        "descriptor": {
            "kind": desc.kind,
            "first": algebra_to_dict(desc.first),
            "second": algebra_to_dict(desc.second),
            "contractive": desc.contractive,
        },
    }
    if desc.phi is not None:
        doc["descriptor"]["phi"] = morphism_to_dict(desc.phi, desc.subalgebra, desc.ideal)
    if desc.kind == "semidirect":
        _, bi, _, ib = desc.block_tensors
        doc["descriptor"]["action_bi"] = _sparse_tensor(bi)
        doc["descriptor"]["action_ib"] = _sparse_tensor(ib)
    return doc


def bundle_from_dict(doc: Any, where: str = "$"):
    """Rebuild a ProductDescriptor from a build-output document.

    The product is re-assembled from the parents and checked against the
    stored tensor, so a bundle cannot drift from its own provenance.  A
    non-finite stored entry, or a descriptor whose construction fails, is a
    SchemaError.
    """
    from .constructions import lau_product, semidirect

    if not (isinstance(doc, dict) and "descriptor" in doc and "algebra" in doc):
        raise SchemaError([f"{where}: expected a build bundle with algebra + descriptor"])
    d = doc["descriptor"]
    if not (isinstance(d, dict) and "first" in d and "second" in d):
        raise SchemaError([f"{where}.descriptor: expected an object with first and second"])
    kind = d.get("kind")
    if kind not in ("semidirect", "lau", "direct_sum"):
        raise SchemaError([f"{where}.descriptor.kind: unknown kind {kind!r}"])
    first = algebra_from_dict(d["first"], f"{where}.descriptor.first")
    second = algebra_from_dict(d["second"], f"{where}.descriptor.second")
    stored = algebra_from_dict(doc["algebra"], f"{where}.algebra")
    if not all_finite(stored):
        raise SchemaError([f"{where}.algebra: a weight, structure or unit entry is not finite"])
    try:
        if kind == "semidirect":
            bi, ib = actions_from_dict(d, first.dim, second.dim, f"{where}.descriptor")
            desc = semidirect(first, second, bi, ib, name=stored.name)
        else:
            if "phi" not in d:
                raise SchemaError([f"{where}.descriptor.phi: missing for a lau product"])
            phi = morphism_from_dict(d["phi"], second, first, f"{where}.descriptor.phi")
            desc = lau_product(first, second, phi, force=not d.get("contractive", True),
                               name=stored.name)
    except ConstructionError as exc:  # a descriptor that does not build is bad input
        raise SchemaError([f"{where}.descriptor: {exc}"]) from exc
    if (stored.dim != desc.algebra.dim
            or float(np.max(np.abs(stored.structure - desc.algebra.structure))) > 1e-12
            or float(np.max(np.abs(stored.weights - desc.algebra.weights))) > 1e-12):
        raise SchemaError([f"{where}: stored algebra does not match its descriptor"])
    return desc


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError([f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}"])
