"""Field specification files: parsing, validation, bundled fixtures.

A field file is JSON with keys `min_poly` (integer coefficients, constant
term first), and optionally `label`, `integral_basis`, `field_disc`,
`class_number`, `fundamental_units` (coordinate vectors over the power
basis), `c_mk_reference` and `m_reference` (golden columns that `table1`
compares against), and a `bedocchi` block {M, epsilon} carrying externally
computed refinement inputs.  Other keys are ignored.  Supplied units
are validated at load (|N| = 1 and log-independence), so wrong bundled data
fails loudly.  A real quadratic field without units falls back to the
continued-fraction (Pell) computation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import FieldSpecError
from .exactnf import NumberField
from .geometry import UnitSystem, fundamental_unit_real_quadratic, log_lattice


@dataclass
class LoadedField:
    label: str
    field: NumberField
    units: UnitSystem
    class_number: int
    bedocchi: dict | None = None
    c_mk_reference: int | None = None
    m_reference: int | None = None


def _parse_coords(vec) -> list[Fraction]:
    return [Fraction(str(x)) for x in vec]


def _parsed(key: str, parse, value):
    """parse(value); a malformed value is an input error that names its key."""
    try:
        return parse(value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FieldSpecError(f"invalid {key}: {type(exc).__name__}: {exc}") from exc


def load_field_data(data: dict, source: str = "") -> LoadedField:
    try:
        min_poly = [int(c) for c in data["min_poly"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldSpecError(f"invalid or missing min_poly: {exc}") from exc
    integral_basis = data.get("integral_basis")
    if integral_basis is not None:
        integral_basis = _parsed(
            "integral_basis", lambda rows: [_parse_coords(r) for r in rows], integral_basis
        )
    try:
        field = NumberField(
            min_poly,
            integral_basis=integral_basis,
            field_disc=data.get("field_disc"),
        )
    except Exception as exc:
        raise FieldSpecError(f"invalid field specification: {exc}") from exc
    r1, r2 = field.signature
    rank = r1 + r2 - 1
    raw_units = data.get("fundamental_units")
    if raw_units is None and rank == 1 and field.degree == 2 and r2 == 0:
        units = (fundamental_unit_real_quadratic(field),)
    elif raw_units is None:
        if rank > 0:
            raise FieldSpecError(
                f"field of unit rank {rank} needs fundamental_units in the file"
            )
        units = ()
    else:
        units = _parsed(
            "fundamental_units",
            lambda vecs: tuple(field.element(_parse_coords(v)) for v in vecs),
            raw_units,
        )
    unit_system = UnitSystem(units=units)
    try:
        log_lattice(field, unit_system)  # validates |N|=1 + independence
    except Exception as exc:
        raise FieldSpecError(f"unit validation failed: {exc}") from exc
    bedocchi = data.get("bedocchi")
    if bedocchi is not None:
        bedocchi = _parsed(
            "bedocchi",
            lambda b: {"M": int(b["M"]), "epsilon": Fraction(str(b["epsilon"]))},
            bedocchi,
        )
    class_number = _parsed("class_number", int, data.get("class_number", 1))
    if class_number < 1:
        raise FieldSpecError("class_number must be positive")
    m_reference = data.get("m_reference")
    if m_reference is not None:
        m_reference = _parsed("m_reference", int, m_reference)
    return LoadedField(
        label=str(data.get("label", source or "field")),
        field=field,
        units=unit_system,
        class_number=class_number,
        bedocchi=bedocchi,
        c_mk_reference=data.get("c_mk_reference"),
        m_reference=m_reference,
    )


def load_field_file(path: str | Path) -> LoadedField:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FieldSpecError(f"cannot read field file {path}: {exc}") from exc
    return load_field_data(data, source=str(path))


def bundled_path(name: str) -> Path:
    """Path of a bundled field file, e.g. 'qsqrt14.json' or 'table1/row1.json'."""
    base = resources.files("padiccf") / "data"
    target = base / name
    with resources.as_file(target) as p:
        return Path(p)


def load_bundled(name: str) -> LoadedField:
    return load_field_file(bundled_path(name))


def bundled_table1_names() -> list[str]:
    return [f"table1/row{i}.json" for i in range(1, 8)]
