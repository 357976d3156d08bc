"""Registry loading, validation, counting and question rendering."""

import json
import re
import random

import pytest

from esgpipe.errors import RegistryError
from esgpipe.metadata import (
    Category,
    Kind,
    MetadataRegistry,
    Quantity,
    bundled_registry_path,
    count_by,
    count_table,
    load_registry,
    render_question,
    validate_registry,
)

EXPECTED_COUNTS = {
    ("E", "Numerical"): 12,
    ("S", "Numerical"): 18,
    ("G", "Numerical"): 4,
    ("E", "Textual"): 14,
    ("S", "Textual"): 15,
    ("G", "Textual"): 7,
}


def test_bundled_registry_counts(registry):
    assert len(registry) == 70
    assert count_table(registry) == EXPECTED_COUNTS
    assert sum(count_table(registry).values()) == len(registry)


def test_count_by_matches_manual_scan(registry):
    manual = sum(
        1
        for s in registry.indicators
        if s.category is Category.S and s.kind is Kind.NUMERICAL
    )
    assert count_by(registry, Category.S, Kind.NUMERICAL) == manual == 18


def test_lookup_and_containment(registry):
    spec = registry.indicator("A1.1-nox")
    assert spec.kpi
    assert "A1.1-nox" in registry
    assert "no-such-id" not in registry
    with pytest.raises(RegistryError, match="no-such-id"):
        registry.indicator("no-such-id")
    with pytest.raises(RegistryError, match="no-such-expr"):
        registry.expression("no-such-expr")


def test_quantity_kind_pairing(registry):
    for spec in registry.indicators:
        if spec.kind is Kind.NUMERICAL:
            assert spec.quantity is Quantity.ABSOLUTE_VALUES
        else:
            assert spec.quantity in (Quantity.KEY_ACTIONS, Quantity.TEXTUAL)


def test_render_question_substitutes_fields(registry):
    spec = registry.indicator("A1.1-nox")
    q = render_question(spec, registry)
    assert spec.kpi in q
    assert spec.aspect in q
    assert "Nitrogen Oxides" in q
    assert "{" not in q and "}" not in q


def test_render_question_joins_multiple_topics(registry):
    spec = registry.indicator("A1.34-waste")
    q = render_question(spec, registry)
    assert "Hazardous Waste, Non-hazardous Waste" in q


def _bundled_dict() -> dict:
    return json.loads(bundled_registry_path().read_text(encoding="utf-8"))


def _write(tmp_path, doc) -> str:
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_dangling_template_reference_names_offender(tmp_path):
    doc = _bundled_dict()
    doc["indicators"][3]["prompt_template_id"] = "missing_template"
    offender = doc["indicators"][3]["id"]
    with pytest.raises(RegistryError) as err:
        load_registry(_write(tmp_path, doc))
    assert offender in str(err.value)
    assert "missing_template" in str(err.value)


def test_duplicate_indicator_id_rejected(tmp_path):
    doc = _bundled_dict()
    doc["indicators"][1]["id"] = doc["indicators"][0]["id"]
    with pytest.raises(RegistryError, match="duplicate indicator id"):
        load_registry(_write(tmp_path, doc))


def test_unknown_field_rejected(tmp_path):
    doc = _bundled_dict()
    doc["indicators"][0]["surprise"] = 1
    with pytest.raises(RegistryError, match="surprise"):
        load_registry(_write(tmp_path, doc))


def test_enum_field_of_another_type_rejected(tmp_path):
    """A list where an enum value goes, once an uncaught TypeError."""
    doc = _bundled_dict()
    doc["indicators"][2]["quantity"] = ["Textual"]
    with pytest.raises(RegistryError, match=re.escape(
        "indicators[2].quantity must be one of ['AbsoluteValues', 'KeyActions', 'Textual'], "
        "got ['Textual']"
    )):
        load_registry(_write(tmp_path, doc))


def test_registry_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "reg.json"
    path.write_bytes(b'{"standard_name": "\xff"}')
    with pytest.raises(RegistryError, match="cannot read registry file"):
        load_registry(path)


def test_unknown_answer_format_rejected(tmp_path):
    doc = _bundled_dict()
    doc["expressions"][0]["answer_format"] = "record_v999"
    with pytest.raises(RegistryError, match="record_v999"):
        load_registry(_write(tmp_path, doc))


def test_unknown_template_placeholder_rejected(tmp_path):
    doc = _bundled_dict()
    doc["expressions"][0]["question_template"] = "What about {nonsense}?"
    with pytest.raises(RegistryError, match="nonsense"):
        load_registry(_write(tmp_path, doc))


def test_bad_enum_value_rejected(tmp_path):
    doc = _bundled_dict()
    doc["indicators"][0]["category"] = "X"
    with pytest.raises(RegistryError, match="'X'"):
        load_registry(_write(tmp_path, doc))


def test_numerical_must_be_absolute_values(tmp_path):
    doc = _bundled_dict()
    numeric = next(i for i in doc["indicators"] if i["kind"] == "Numerical")
    numeric["quantity"] = "Textual"
    with pytest.raises(RegistryError, match="AbsoluteValues"):
        load_registry(_write(tmp_path, doc))


def test_missing_fields_rejected_everywhere(tmp_path):
    # dropping any single indicator field must fail loudly, never default
    rng = random.Random(20240811)
    fields = [
        "id", "aspect", "kpi", "topics", "quantity", "category",
        "kind", "knowledge", "search_terms",
        "prompt_template_id", "output_schema_id",
    ]
    for trial in range(30):
        doc = _bundled_dict()
        victim = rng.randrange(len(doc["indicators"]))
        field = fields[trial % len(fields)]
        del doc["indicators"][victim][field]
        with pytest.raises(RegistryError):
            load_registry(_write(tmp_path, doc))


def test_not_json_rejected(tmp_path):
    path = tmp_path / "reg.json"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(RegistryError, match="cannot read registry file .*: Expecting"):
        load_registry(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(RegistryError, match="cannot read"):
        load_registry(tmp_path / "nope.json")


def test_empty_topics_rejected(registry):
    import dataclasses

    spec = dataclasses.replace(registry.indicators[0], topics=())
    broken = MetadataRegistry(
        standard_name=registry.standard_name,
        indicators=(spec,) + registry.indicators[1:],
        expressions=registry.expressions,
    )
    with pytest.raises(RegistryError, match="topics"):
        validate_registry(broken)
