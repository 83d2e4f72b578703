import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockgraph.chartab import parse_table, prime_divisors, print_table, validate
from blockgraph.corpus import corpus_names, corpus_path
from blockgraph.cyclotomic import Cyclotomic, conjugate, zeta
from blockgraph.errors import CycParseError, ValidationError

S3_DOC = {
    "name": "S3",
    "order": 6,
    "classes": [{"size": 1, "order": 1}, {"size": 3, "order": 2}, {"size": 2, "order": 3}],
    "irr": [[1, 1, 1], [1, -1, 1], [2, 0, -1]],
}
C3_DOC = {
    "name": "C3",
    "order": 3,
    "classes": [{"size": 1, "order": 1}, {"size": 1, "order": 3}, {"size": 1, "order": 3}],
    "irr": [[1, 1, 1], [1, "E(3)", "E(3)^2"], [1, "E(3)^2", "E(3)"]],
}
C2_DOC = {
    "name": "C2",
    "order": 2,
    "classes": [{"size": 1, "order": 1}, {"size": 1, "order": 2}],
    "irr": [[1, 1], [1, -1]],
}


class TestParse:
    def test_bundled_s3(self, corpus):
        table = corpus("S3")
        assert table.degrees() == (1, 1, 2)
        assert table.num_classes == 3

    def test_bundled_a5(self, corpus):
        table = corpus("A5")
        assert sorted(table.degrees()) == [1, 3, 3, 4, 5]

    def test_perturbed_entry_fails_orthogonality(self):
        doc = corpus_path("A5").read_text()
        data = json.loads(doc)
        entry = data["irr"][2][1]
        data["irr"][2][1] = entry + 1 if isinstance(entry, int) else "1+" + entry
        with pytest.raises(ValidationError) as err:
            parse_table(json.dumps(data))
        assert any("orthogonality" in v for v in err.value.violations)

    def test_malformed_document(self):
        with pytest.raises(CycParseError):
            parse_table(b"{ not json")
        with pytest.raises(CycParseError):
            parse_table(json.dumps({"name": "X", "order": 1}))
        with pytest.raises(CycParseError):
            parse_table(json.dumps(S3_DOC | {"extra": 1}))

    @pytest.mark.parametrize("doc", [
        {"name": "C1", "order": True, "classes": [{"size": 1, "order": 1}], "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": True, "order": 1}], "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": 1, "order": True}], "irr": [[1]]},
        {"name": "C1", "order": True, "classes": [{"size": True, "order": True}], "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": 1, "order": 1, "label": ["1a"]}],
         "irr": [[1]]},
        {"name": "C1", "order": 1, "classes": [{"size": 1, "order": 1}], "irr": [[1]],
         "provenance": {"source": "x"}},
    ])
    def test_malformed_fields(self, doc):
        with pytest.raises(CycParseError):
            parse_table(json.dumps(doc))

    def test_bad_entry_expression(self):
        doc = dict(S3_DOC, irr=[[1, 1, 1], [1, -1, 1], [2, 0, "E("]])
        with pytest.raises(CycParseError):
            parse_table(json.dumps(doc))

    def test_canonical_order_after_shuffle(self, corpus, all_corpus_names):
        for name in all_corpus_names:
            reference = corpus(name)
            for seed in (1, 2):
                data = json.loads(corpus_path(name).read_text())
                rng = random.Random(seed)
                rows = list(range(len(data["irr"])))
                cols = list(range(len(data["classes"])))
                rng.shuffle(rows)
                rng.shuffle(cols)
                # Unlabelled classes tied on (order, size) keep their input
                # order in the parser, so they keep their relative order here
                # (J1, L5_2 and Sz8 have such ties).
                tied = {}
                for slot, c in enumerate(cols):
                    cls = data["classes"][c]
                    if "label" not in cls:
                        tied.setdefault((cls["order"], cls["size"]), []).append(slot)
                for slots in tied.values():
                    for slot, c in zip(slots, sorted(cols[s] for s in slots)):
                        cols[slot] = c
                data["irr"] = [[data["irr"][r][c] for c in cols] for r in rows]
                data["classes"] = [data["classes"][c] for c in cols]
                shuffled = parse_table(json.dumps(data))
                assert shuffled.irr == reference.irr, (name, seed)
                assert [(c.size, c.element_order) for c in shuffled.classes] == [
                    (c.size, c.element_order) for c in reference.classes
                ], (name, seed)
                assert print_table(shuffled) == print_table(reference), (name, seed)

    def test_accepts_bytes(self):
        table = parse_table(json.dumps(S3_DOC).encode())
        assert table.group_order == 6


class TestValidate:
    def test_valid_c6_empty(self, corpus):
        assert validate(corpus("C6")) == []

    def test_size_sum_violation(self):
        doc = dict(S3_DOC, classes=[{"size": 1, "order": 1}, {"size": 2, "order": 2},
                                    {"size": 2, "order": 3}])
        with pytest.raises(ValidationError) as err:
            parse_table(json.dumps(doc))
        assert any(v.startswith("size-sum") for v in err.value.violations)

    def test_duplicate_trivial_row(self):
        doc = dict(S3_DOC, irr=[[1, 1, 1], [1, -1, 1], [1, 1, 1]])
        with pytest.raises(ValidationError) as err:
            parse_table(json.dumps(doc))
        assert any(v.startswith("row-orthogonality") for v in err.value.violations)

    def test_every_corpus_table_validates(self, corpus, all_corpus_names):
        for name in all_corpus_names:
            assert validate(corpus(name)) == [], name

    @pytest.mark.parametrize("doc, violations", [
        # an irrational degree squares to E(3)^2, not to its norm
        (dict(C3_DOC, irr=[[1, 1, 1], ["E(3)", "E(3)", "E(3)^2"], [1, "E(3)^2", "E(3)"]]),
         ["degree-sum", "conductor(row 2, class 0)", "row-orthogonality(0,2)",
          "row-orthogonality(1,2)", "column-orthogonality(0,1)", "column-orthogonality(0,2)",
          "central-character-integrality(row 2)"]),
        (dict(S3_DOC, irr=[[1, 1, 1], [1, -1, 1], [3, 0, -1]]),
         ["degree-sum", "row-orthogonality(0,2)", "row-orthogonality(1,2)",
          "row-orthogonality(2,2)", "column-orthogonality(0,0)", "column-orthogonality(0,2)",
          "central-character-integrality(row 2, class 2)"]),
        # E(3) on a class of elements of order 2
        (dict(C3_DOC, classes=[{"size": 1, "order": 1}, {"size": 1, "order": 3},
                               {"size": 1, "order": 2}]),
         ["conductor(row 1, class 1)", "conductor(row 2, class 1)"]),
        # a class of size 4 in a group of order 6
        (dict(S3_DOC, classes=[{"size": 1, "order": 1}, {"size": 4, "order": 2},
                               {"size": 2, "order": 3}]),
         ["size-sum", "row-orthogonality(0,0)", "row-orthogonality(0,1)",
          "row-orthogonality(1,1)", "column-orthogonality(1,1)"]),
        (dict(C3_DOC, irr=[[1, 1, 1], [1, "E(3)", "E(3)^2"], [1, "E(3)", "E(3)^2"]]),
         ["row-orthogonality(1,2)", "column-orthogonality(0,1)", "column-orthogonality(0,2)",
          "column-orthogonality(1,2)"]),
        # a negative degree breaks no orthogonality relation
        (dict(C2_DOC, irr=[[1, 1], [-1, 1]]), ["central-character-integrality(row 1)"]),
        (dict(S3_DOC, irr=[[1, 1, 1], [1, -1, 1], [2, 1, -1]]),
         ["row-orthogonality(0,2)", "row-orthogonality(1,2)", "row-orthogonality(2,2)",
          "column-orthogonality(0,1)", "column-orthogonality(1,1)", "column-orthogonality(1,2)",
          "central-character-integrality(row 2, class 1)"]),
        (dict(C3_DOC, irr=[[1, 1, 1], [1, "E(3)", "E(3)^2"], ["E(3)^2", 1, "E(3)"]]),
         ["degree-sum", "conductor(row 2, class 0)", "row-orthogonality(1,2)",
          "column-orthogonality(0,1)", "column-orthogonality(0,2)", "column-orthogonality(1,2)",
          "central-character-integrality(row 2)"]),
    ])
    def test_exact_violation_lists(self, doc, violations):
        with pytest.raises(ValidationError) as err:
            parse_table(json.dumps(doc))
        assert err.value.violations == violations


def reference_violations(table):
    """The validator's relations summed with plain Cyclotomic arithmetic."""
    n, order = table.num_classes, table.group_order
    sizes = [c.size for c in table.classes]
    irr = table.irr

    def equals(value, expected):
        return value == Cyclotomic(1, (expected,))

    violations = []
    if sum(sizes) != order:
        violations.append("size-sum")
    if not equals(sum(row[0] * row[0] for row in irr), order):
        violations.append("degree-sum")
    for r, row in enumerate(irr):
        for k, value in enumerate(row):
            if table.classes[k].element_order % value.conductor:
                violations.append(f"conductor(row {r}, class {k})")
    for r in range(n):
        for s in range(r, n):
            value = sum(sizes[k] * irr[r][k] * conjugate(irr[s][k]) for k in range(n))
            if not equals(value, order if r == s else 0):
                violations.append(f"row-orthogonality({r},{s})")
    for k in range(n):
        for l in range(k, n):
            if k == l and order % sizes[k]:
                violations.append(f"column-orthogonality({k},{l})")
                continue
            value = sum(irr[r][k] * conjugate(irr[r][l]) for r in range(n))
            if not equals(value, order // sizes[k] if k == l else 0):
                violations.append(f"column-orthogonality({k},{l})")
    for r, row in enumerate(irr):
        if not row[0].is_rational() or row[0].as_int() < 1:
            violations.append(f"central-character-integrality(row {r})")
            continue
        d = row[0].as_int()
        for k, value in enumerate(row):
            # the power basis is an integral basis
            if any(c % d for c in (sizes[k] * value).coeffs):
                violations.append(f"central-character-integrality(row {r}, class {k})")
    return violations


def corrupted(table, data):
    """The table with one entry, class or row spoiled."""
    n = table.num_classes
    index = st.integers(0, n - 1)
    irr = [list(row) for row in table.irr]
    classes = list(table.classes)
    r, k = data.draw(index), data.draw(index)
    kind = data.draw(st.sampled_from(["perturb", "replace", "size", "order", "duplicate"]))
    if kind == "perturb":
        m = data.draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 12, 19, 20, 35]))
        irr[r][k] += data.draw(st.integers(-2, 2)) * zeta(m, data.draw(st.integers(0, m - 1)))
    elif kind == "replace":
        irr[r][k] = irr[data.draw(index)][data.draw(index)]
    elif kind == "size":
        size = max(1, classes[k].size + data.draw(st.integers(-3, 3)))
        classes[k] = replace(classes[k], size=size)
    elif kind == "order":
        classes[k] = replace(classes[k], element_order=data.draw(st.integers(1, 40)))
    else:
        irr[data.draw(index)] = irr[r]
    return replace(table, classes=tuple(classes), irr=tuple(tuple(row) for row in irr))


class TestValidateAgainstReference:
    def test_reference_accepts_the_corpus(self, corpus):
        for name in ("S4", "A5", "SL23", "Sz8"):
            assert reference_violations(corpus(name)) == [], name

    # L5_2 is left out: the reference takes seconds on it
    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from([n for n in corpus_names() if n != "L5_2"]), data=st.data())
    def test_corrupted_corpus_tables(self, corpus, name, data):
        table = corrupted(corpus(name), data)
        assert validate(table) == reference_violations(table)


class TestIngestedTables:
    def test_degree_lists(self, corpus):
        assert corpus("J1").degrees() == (
            1, 56, 56, 76, 76, 77, 77, 77, 120, 120, 120, 133, 133, 133, 209,
        )
        assert corpus("Sz8").degrees() == (1, 14, 14, 35, 35, 35, 64, 65, 65, 65, 91)
        l52 = corpus("L5_2")
        assert l52.num_classes == 27
        assert l52.degrees()[-2:] == (1024, 1240)
        assert sum(d * d for d in l52.degrees()) == l52.group_order == 9999360

    def test_provenance_notes_present(self, corpus):
        for name in ("J1", "Sz8", "L5_2"):
            assert corpus(name).provenance


class TestPrimeDivisors:
    def test_a5(self, corpus):
        assert prime_divisors(corpus("A5")) == [2, 3, 5]

    def test_j1(self, corpus):
        table = corpus("J1")
        assert table.group_order == 175560
        assert prime_divisors(table) == [2, 3, 5, 7, 11, 19]

    def test_c2(self, corpus):
        assert prime_divisors(corpus("C2")) == [2]


class TestRoundTrip:
    def test_parse_print_bitwise_identity(self, all_corpus_names):
        for name in all_corpus_names:
            text = corpus_path(name).read_text()
            assert print_table(parse_table(text)) == text, name


class TestGaloisStability:
    def test_conjugation_permutes_rows(self, corpus):
        for name in ("A5", "L2_7", "SL23", "Sz8"):
            table = corpus(name)
            rows = set(table.irr)
            for row in table.irr:
                assert tuple(conjugate(v) for v in row) in rows

    def test_conductors_divide_element_orders(self, corpus):
        for name in ("A5", "L2_11", "J1"):
            table = corpus(name)
            for row in table.irr:
                for value, cls in zip(row, table.classes):
                    assert cls.element_order % value.conductor == 0
