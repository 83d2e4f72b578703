"""Character table model, JSON parser, validator, and canonical printer.

The on-disk format is a UTF-8 JSON object:

    {"name": str,
     "order": int,
     "classes": [{"size": int, "order": int, "label": str?}, ...],
     "irr": [[entry, ...], ...],
     "provenance": str?}

where each irr entry is either an integer or a string in the E(n)
expression grammar of the cyclotomic module.  Each distinct entry of a
document is parsed once, and every cell holding it shares the one value.
Parsing canonicalizes the ordering (identity class first, then element
order, then size, then label, unlabelled classes still tied keeping their
input order; trivial character first, then degree, ties broken by the value
sequence) and runs the full validator, so a CharacterTable in hand is
always a genuine character table: both orthogonality relations hold
exactly, central characters are algebraic integers, and every value lies in
the cyclotomic field of its class's element order.

The validator converts every value once into the sparse prime-power basis
of _zeta at M, the lcm of the table's value conductors, takes complex
conjugates there, and sums each orthogonality relation as one dict of basis
terms, which must equal the expected integer term for term.  No sum is ever
expanded densely at M; this is what keeps tables with large exponents (the
sporadic-group entries in the corpus) quick to check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import lcm

from . import _zeta
from ._numtheory import prime_divisors_of
from .cyclotomic import Cyclotomic, parse_cyclotomic
from .errors import CycParseError, ValidationError

__all__ = [
    "ConjClass",
    "CharacterTable",
    "parse_table",
    "load_table",
    "certified_table",
    "print_table",
    "validate",
    "prime_divisors",
]


@dataclass(frozen=True)
class ConjClass:
    size: int
    element_order: int
    label: str | None = None


@dataclass(frozen=True)
class CharacterTable:
    name: str
    group_order: int
    classes: tuple[ConjClass, ...]
    irr: tuple[tuple[Cyclotomic, ...], ...]
    exponent: int
    provenance: str | None = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def degrees(self) -> tuple[int, ...]:
        return tuple(row[0].as_int() for row in self.irr)

    def row_degree(self, row: int) -> int:
        return self.irr[row][0].as_int()


def _value_key(v: Cyclotomic):
    return (v.conductor, v.coeffs)


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _as_value(entry) -> Cyclotomic:
    if isinstance(entry, bool):
        raise CycParseError("boolean is not a character value")
    if isinstance(entry, int):
        return Cyclotomic(1, (entry,))
    if isinstance(entry, str):
        return parse_cyclotomic(entry)
    raise CycParseError(f"bad irr entry {entry!r}")


def parse_table(document) -> CharacterTable:
    """Parse and fully validate a table document (bytes, str, or dict)."""
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise CycParseError(f"malformed table document: {exc}") from exc
    if not isinstance(document, dict):
        raise CycParseError("table document must be a JSON object")

    allowed = {"name", "order", "classes", "irr", "provenance"}
    unknown = set(document) - allowed
    if unknown:
        raise CycParseError(f"unknown keys in table document: {sorted(unknown)}")
    try:
        name = document["name"]
        order = document["order"]
        raw_classes = document["classes"]
        raw_irr = document["irr"]
    except KeyError as exc:
        raise CycParseError(f"missing table key {exc}") from exc
    provenance = document.get("provenance")
    if (
        not isinstance(name, str)
        or not _is_int(order)
        or not isinstance(raw_classes, list)
        or not isinstance(raw_irr, list)
        or not isinstance(provenance, (str, type(None)))
    ):
        raise CycParseError("table fields have the wrong types")

    classes = []
    for entry in raw_classes:
        if not isinstance(entry, dict) or not {"size", "order"} <= set(entry):
            raise CycParseError(f"bad class entry {entry!r}")
        size, elt_order, label = entry["size"], entry["order"], entry.get("label")
        if (
            not _is_int(size)
            or not _is_int(elt_order)
            or size < 1
            or elt_order < 1
            or not isinstance(label, (str, type(None)))
        ):
            raise CycParseError(f"bad class entry {entry!r}")
        classes.append(ConjClass(size, elt_order, label))

    n = len(classes)
    if len(raw_irr) != n or any(not isinstance(row, list) or len(row) != n for row in raw_irr):
        raise CycParseError("irr must be a square matrix matching the class list")
    # each distinct entry is parsed once, into one object shared by its
    # cells; the type is part of the key since JSON true hashes as 1
    values: dict = {}

    def value(entry) -> Cyclotomic:
        if not isinstance(entry, (int, str)):
            return _as_value(entry)  # raises: no other JSON type is a value
        key = (type(entry), entry)
        if key not in values:
            values[key] = _as_value(entry)
        return values[key]

    irr = [[value(entry) for entry in row] for row in raw_irr]

    return certified_table(name, order, classes, irr, provenance)


def load_table(path) -> CharacterTable:
    with open(path, "rb") as fh:
        return parse_table(fh.read())


def certified_table(name, order, classes, irr, provenance) -> CharacterTable:
    """The table in canonical order, fully validated; raises ValidationError
    listing every violated relation."""
    n = len(classes)
    identity = [i for i, c in enumerate(classes) if c.size == 1 and c.element_order == 1]
    if len(identity) != 1:
        raise ValidationError(["identity-class"])

    col_order = sorted(
        range(n),
        key=lambda i: (0, 0, 0)
        if i == identity[0]
        else (1, classes[i].element_order, classes[i].size, classes[i].label or ""),
    )
    classes = [classes[i] for i in col_order]
    irr = [[row[i] for i in col_order] for row in irr]

    def row_key(row):
        trivial = all(v == Cyclotomic(1, (1,)) for v in row)
        return (0 if trivial else 1, _value_key(row[0]), tuple(_value_key(v) for v in row))

    irr.sort(key=row_key)
    if not all(v == Cyclotomic(1, (1,)) for v in irr[0]):
        raise ValidationError(["trivial-character"])

    exponent = lcm(*(c.element_order for c in classes))
    table = CharacterTable(
        name=name,
        group_order=order,
        classes=tuple(classes),
        irr=tuple(tuple(row) for row in irr),
        exponent=exponent,
        provenance=provenance,
    )
    violations = validate(table)
    if violations:
        raise ValidationError(violations)
    return table


def validate(table: CharacterTable) -> list[str]:
    """All violated relations, empty when the table is a character table."""
    violations: list[str] = []
    n = table.num_classes
    order = table.group_order
    sizes = [c.size for c in table.classes]

    # Every relation is summed in the prime-power basis at one conductor M,
    # where an integer m is the single term {zero_key: m}.
    big = lcm(*(v.conductor for row in table.irr for v in row))
    zero_key = (0,) * len(_zeta.components(big))
    rows = [[v.tensor(big) for v in row] for row in table.irr]
    conj_rows = [[_zeta.galois(big, t, -1) for t in row] for row in rows]

    def equals(products, expected: int) -> bool:
        acc: dict = {}
        for scale, a, b in products:
            _zeta.mul(big, a, b, out=acc, scale=scale)
        return acc == ({zero_key: expected} if expected else {})

    if sum(sizes) != order:
        violations.append("size-sum")

    if not equals([(1, row[0], row[0]) for row in rows], order):
        violations.append("degree-sum")

    for r, row in enumerate(table.irr):
        for k, value in enumerate(row):
            if table.classes[k].element_order % value.conductor:
                violations.append(f"conductor(row {r}, class {k})")

    for r in range(n):
        for s in range(r, n):
            products = [(sizes[k], rows[r][k], conj_rows[s][k]) for k in range(n)]
            if not equals(products, order if r == s else 0):
                violations.append(f"row-orthogonality({r},{s})")

    for k in range(n):
        for l in range(k, n):
            if k == l and order % sizes[k]:
                violations.append(f"column-orthogonality({k},{l})")
                continue
            expected = order // sizes[k] if k == l else 0
            products = [(1, rows[r][k], conj_rows[r][l]) for r in range(n)]
            if not equals(products, expected):
                violations.append(f"column-orthogonality({k},{l})")

    for r, row in enumerate(table.irr):
        degree = row[0]
        if not degree.is_rational() or degree.as_int() < 1:
            violations.append(f"central-character-integrality(row {r})")
            continue
        d = degree.as_int()
        for k, value in enumerate(row):
            # |K| chi(g) / chi(1) is integral exactly when d divides every
            # power-basis coefficient of |K| chi(g)
            if any(sizes[k] * c % d for c in value.coeffs):
                violations.append(f"central-character-integrality(row {r}, class {k})")
    return violations


def prime_divisors(table: CharacterTable) -> list[int]:
    """Ascending primes dividing the group order."""
    return prime_divisors_of(table.group_order)


def _entry_json(v: Cyclotomic):
    return v.as_int() if v.is_rational() else str(v)


def print_table(table: CharacterTable) -> str:
    """Canonical JSON text; parse(print(t)) reproduces t bitwise."""
    doc: dict = {"name": table.name, "order": table.group_order}
    if table.provenance is not None:
        doc["provenance"] = table.provenance
    doc["classes"] = [
        {"size": c.size, "order": c.element_order}
        | ({"label": c.label} if c.label is not None else {})
        for c in table.classes
    ]
    doc["irr"] = [[_entry_json(v) for v in row] for row in table.irr]
    lines = ["{"]
    lines.append(f' "name": {json.dumps(doc["name"])},')
    lines.append(f' "order": {doc["order"]},')
    if "provenance" in doc:
        lines.append(f' "provenance": {json.dumps(doc["provenance"])},')
    lines.append(' "classes": [')
    for i, entry in enumerate(doc["classes"]):
        comma = "," if i + 1 < len(doc["classes"]) else ""
        lines.append(f"  {json.dumps(entry, separators=(', ', ': '))}{comma}")
    lines.append(" ],")
    lines.append(' "irr": [')
    for i, row in enumerate(doc["irr"]):
        comma = "," if i + 1 < len(doc["irr"]) else ""
        lines.append(f"  {json.dumps(row, separators=(', ', ': '))}{comma}")
    lines.append(" ]")
    lines.append("}")
    return "\n".join(lines) + "\n"
