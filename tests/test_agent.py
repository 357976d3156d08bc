"""Prompt assembly, reply parsing, record serialization, and the extraction loop."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esgpipe.agent import (
    EXCERPT_CHARS,
    FLAG_MISSING_DISCLOSURE,
    FLAG_MISSING_TOPIC,
    FLAG_PARSE_FAILURE,
    FLAG_PROVIDER_FAILED,
    FLAG_RANGE_APPROXIMATED,
    FLAG_UNKNOWN_TOPIC,
    FLAG_VALIDATION_WARNING,
    FLAG_VALUE_COERCED,
    ExtractConfig,
    ExtractionRecord,
    _excerpt,
    build_prompt,
    extract_indicator,
    load_records,
    parse_reply,
    record_from_json,
    record_to_json,
    validate_record,
    write_records,
)
from esgpipe.errors import ConfigError, ProviderError
from esgpipe.kb import Source, build as build_kb
from esgpipe.providers import ChatProvider, HttpChatProvider, HttpEndpoint
from esgpipe.retrieval import NO_EVIDENCE_SENTINEL, EvidenceBundle, ScoredHit

from .fuzzing import random_reply


def _bundle(indicator_id, texts):
    hits = [
        ScoredHit(
            entry_id=f"e{i}",
            source=Source.TEXT,
            similarity=1.0 - i * 0.01,
            resolved_payload=text,
            anchor=f"blocks:{i}-{i}",
        )
        for i, text in enumerate(texts)
    ]
    return EvidenceBundle(
        indicator_id=indicator_id,
        hits=hits,
        total_chars=sum(len(t) for t in texts),
        truncated=False,
    )


# ---------------------------------------------------------------- build_prompt


def test_prompt_sections_knowledge_on(registry):
    spec = registry.indicator("A1.2-scope1")
    prompt = build_prompt(spec, _bundle(spec.id, ["Scope 1 was 2,500 tCO2e."]),
                          registry, knowledge_enabled=True)
    messages = prompt.to_messages()
    assert [m["role"] for m in messages] == ["system", "user"]
    user = messages[1]["content"]
    for section in ("[Reference Content]", "[Expert Knowledge]",
                    "[Question]", "[Answer Format]"):
        assert section in user
    assert "Scope 1 was 2,500 tCO2e." in user
    assert user.index("[Reference Content]") < user.index("[Expert Knowledge]")
    assert user.index("[Expert Knowledge]") < user.index("[Question]")
    assert user.index("[Question]") < user.index("[Answer Format]")


def test_prompt_knowledge_off_omits_section(registry):
    spec = registry.indicator("A1.2-scope1")
    prompt = build_prompt(spec, _bundle(spec.id, ["text"]), registry,
                          knowledge_enabled=False)
    assert prompt.expert_knowledge == ""
    assert "[Expert Knowledge]" not in prompt.to_messages()[1]["content"]


def test_prompt_empty_bundle_uses_sentinel(registry):
    spec = registry.indicator("A1.1-nox")
    empty = EvidenceBundle(indicator_id=spec.id, hits=[], total_chars=0,
                           truncated=False)
    prompt = build_prompt(spec, empty, registry)
    assert prompt.reference_content == NO_EVIDENCE_SENTINEL
    assert NO_EVIDENCE_SENTINEL in prompt.to_messages()[1]["content"]


def test_prompt_joins_hits_with_blank_line(registry):
    spec = registry.indicator("A1.1-nox")
    prompt = build_prompt(spec, _bundle(spec.id, ["first", "second"]), registry)
    assert prompt.reference_content == "first\n\nsecond"


def test_prompt_rejects_mismatched_bundle(registry):
    spec = registry.indicator("A1.1-nox")
    with pytest.raises(ConfigError, match="A1.2-scope1"):
        build_prompt(spec, _bundle("A1.2-scope1", ["x"]), registry)


def test_prompt_carries_audit_identity(registry):
    spec = registry.indicator("A1.1-nox")
    prompt = build_prompt(spec, _bundle(spec.id, ["x"]), registry,
                          doc_id="doc07")
    assert prompt.doc_id == "doc07"
    assert prompt.indicator_id == "A1.1-nox"
    # audit metadata must not leak into the rendered messages
    assert "doc07" not in prompt.to_messages()[1]["content"]


# ----------------------------------------------------------------- parse_reply


def test_parse_numeric_with_commas(registry):
    spec = registry.indicator("A1.1-nox")
    records = parse_reply(
        'Answer: {"disclosure": true, "topic": "Nitrogen Oxides",'
        ' "value": "12,500", "unit": "kg"}',
        spec,
        doc_id="d",
    )
    assert len(records) == 1
    rec = records[0]
    assert rec.disclosure is True
    assert rec.value == Decimal("12500")
    assert rec.unit == "kg"
    assert rec.flags == []


def test_parse_refusal_is_clean_non_disclosure(registry):
    spec = registry.indicator("A1.1-nox")
    records = parse_reply(
        "The requested information is not disclosed in the provided report content.",
        spec,
        doc_id="d",
    )
    assert len(records) == 1
    assert records[0].disclosure is False
    assert records[0].flags == []
    assert records[0].value is None


def test_parse_garbage_flags_failure(registry):
    spec = registry.indicator("A1.1-nox")
    records = parse_reply("]]]] no json here {{{", spec, doc_id="d")
    assert len(records) == 1
    assert records[0].disclosure is False
    assert FLAG_PARSE_FAILURE in records[0].flags


def test_parse_disclosed_numeric_without_value_warns(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"disclosure": true}', spec, doc_id="d")[0]
    assert rec.disclosure is True
    assert rec.value is None
    assert FLAG_VALIDATION_WARNING in rec.flags


def test_parse_range_takes_first_number(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"disclosure": true, "value": "10-20", "unit": "kg"}',
                      spec, doc_id="d")[0]
    assert rec.value == Decimal("10")
    assert FLAG_RANGE_APPROXIMATED in rec.flags


def test_parse_percent_implies_unit(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"disclosure": true, "value": "45%"}', spec, doc_id="d")[0]
    assert rec.value == Decimal("45")
    assert rec.unit == "%"


def test_parse_explicit_unit_beats_implied(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply(
        '{"disclosure": true, "value": "45%", "unit": "percent"}', spec, doc_id="d"
    )[0]
    assert rec.unit == "percent"


def test_parse_unknown_topic_flagged(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply(
        '{"disclosure": true, "topic": "Imaginary Gas", "value": 5, "unit": "kg"}',
        spec,
        doc_id="d",
    )[0]
    assert FLAG_UNKNOWN_TOPIC in rec.flags
    assert rec.topic == "Imaginary Gas"


def test_parse_multi_topic_first_wins(registry):
    spec = registry.indicator("A1.34-waste")  # Hazardous / Non-hazardous
    reply = json.dumps([
        {"disclosure": True, "topic": spec.topics[0], "value": 1, "unit": "t"},
        {"disclosure": True, "topic": spec.topics[0], "value": 2, "unit": "t"},
        {"disclosure": True, "topic": spec.topics[1], "value": 3, "unit": "t"},
    ])
    records = parse_reply(reply, spec, doc_id="d")
    assert len(records) == 2
    by_topic = {r.topic: r for r in records}
    assert by_topic[spec.topics[0]].value == Decimal("1")
    assert by_topic[spec.topics[1]].value == Decimal("3")


def test_parse_missing_topic_single_topic_defaults(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"disclosure": true, "value": 2, "unit": "kg"}',
                      spec, doc_id="d")[0]
    assert rec.topic == spec.topics[0]
    assert FLAG_MISSING_TOPIC not in rec.flags


def test_parse_missing_topic_multi_topic_flagged(registry):
    spec = registry.indicator("A1.34-waste")
    rec = parse_reply('{"disclosure": true, "value": 2, "unit": "t"}',
                      spec, doc_id="d")[0]
    assert FLAG_MISSING_TOPIC in rec.flags


def test_parse_missing_disclosure_with_value_assumes_true(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"value": "7", "unit": "kg"}', spec, doc_id="d")[0]
    assert rec.disclosure is True
    assert FLAG_MISSING_DISCLOSURE in rec.flags


def test_parse_non_disclosure_clears_payload(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply(
        '{"disclosure": false, "value": 9, "unit": "kg", "target": "t",'
        ' "action": "a"}',
        spec,
        doc_id="d",
    )[0]
    assert rec.disclosure is False
    assert rec.value is None and rec.unit is None
    assert rec.target is None and rec.action is None
    assert validate_record(rec)


def test_parse_prose_wrapped_json(registry):
    spec = registry.indicator("A1.1-nox")
    reply = (
        "Based on the report, here is the answer:\n"
        '{"disclosure": "yes", "value": "1e3", "unit": "kg"}\n'
        "I hope that is what you were looking for."
    )
    rec = parse_reply(reply, spec, doc_id="d")[0]
    assert rec.disclosure is True
    assert rec.value == Decimal("1e3")


def test_parse_infinity_value_dropped(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply('{"disclosure": true, "value": Infinity}', spec,
                      doc_id="d")[0]
    assert rec.value is None


def test_parse_value_coercion_flag(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply(
        '{"disclosure": true, "value": "about 320 units", "unit": "kg"}',
        spec,
        doc_id="d",
    )[0]
    assert rec.value == Decimal("320")
    assert FLAG_VALUE_COERCED in rec.flags


def test_parse_excerpt_is_normalized(registry):
    spec = registry.indicator("A1.1-nox")
    rec = parse_reply("line one\n\n  line\ttwo  " + "x" * 500, spec,
                      doc_id="d")[0]
    assert "\n" not in rec.raw_reply_excerpt
    assert len(rec.raw_reply_excerpt) <= 240
    assert rec.raw_reply_excerpt.startswith("line one line two")


# whitespace the regex and str.split agree on, and look-alikes that are not whitespace
_EXCERPT_TEXT = st.text(
    alphabet=st.sampled_from(
        " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200b\u2028\u2029"
        "\u202f\u3000\ufeffab{}\"é"
    ),
    max_size=600,
)


@settings(max_examples=150, deadline=None)
@given(text=_EXCERPT_TEXT)
def test_excerpt_matches_the_regex_oracle(text):
    assert _excerpt(text) == re.sub(r"\s+", " ", text).strip()[:EXCERPT_CHARS]


def test_split_whitespace_is_regex_whitespace_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == list(filter(str.isspace, every))
    assert " ".join(every.split()) == re.sub(r"\s+", " ", every).strip()


def test_parse_fuzz_is_total_and_invariant_clean(registry):
    rng = random.Random(20240816)
    specs = [registry.indicator(i) for i in
             ("A1.1-nox", "A1.2-scope1", "A1.policy", "A1.34-waste")]
    for trial in range(500):
        spec = specs[trial % len(specs)]
        reply = random_reply(rng)
        records = parse_reply(reply, spec, doc_id="fuzz")
        assert records, f"empty result for reply {reply!r}"
        for rec in records:
            assert validate_record(rec)
            assert rec.indicator_id == spec.id
            assert isinstance(rec.disclosure, bool)
            if rec.value is not None:
                assert rec.value.is_finite()


# ------------------------------------------------------------- record (de)ser


def _record(**overrides):
    base = dict(
        doc_id="d", indicator_id="A1.1-nox", disclosure=True,
        kpi="Nitrogen oxides emissions in total", topic="Nitrogen Oxides",
        value=Decimal("12500"), unit="kg", target=None, action=None,
        raw_reply_excerpt="excerpt", flags=["value-coerced"],
    )
    base.update(overrides)
    return ExtractionRecord(**base)


_RECORD_TEXT = st.text(max_size=20) | st.sampled_from(
    ["", "\x00\x1f\x7f", "\u2028\u2029", "caf\u00e9 \U0001f600", '"\\', "NaN"]
)


@settings(max_examples=30, deadline=None)
@given(
    fields=st.lists(
        st.tuples(
            _RECORD_TEXT, _RECORD_TEXT, st.booleans(),
            st.none() | st.decimals(allow_nan=False, allow_infinity=False)
            | st.sampled_from([Decimal("1e-7"), Decimal("1E+16"), Decimal("-0.0"),
                               Decimal(2**64 + 1), Decimal("1e400")]),
            st.none() | _RECORD_TEXT, st.lists(_RECORD_TEXT, max_size=3),
        ),
        max_size=8,
    )
)
def test_record_lines_are_json_dumps_without_ascii_escapes(fields):
    records = [
        _record(doc_id=doc_id, topic=topic, disclosure=disclosure, value=value, unit=unit,
                raw_reply_excerpt=topic + doc_id, flags=flags)
        for doc_id, topic, disclosure, value, unit, flags in fields
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        write_records(records, path)
        text = path.read_text(encoding="utf-8")
    ordered = sorted(records, key=lambda r: (r.doc_id, r.indicator_id, r.topic))
    want = [json.dumps(record_to_json(r), ensure_ascii=False) for r in ordered]
    assert text == "".join(line + "\n" for line in want)


def test_record_json_round_trip_integral():
    rec = _record()
    payload = record_to_json(rec)
    assert payload["value"] == 12500 and isinstance(payload["value"], int)
    assert record_from_json(payload) == rec


def test_record_json_round_trip_fractional():
    rec = _record(value=Decimal("3.25"))
    payload = record_to_json(rec)
    assert payload["value"] == pytest.approx(3.25)
    assert record_from_json(payload).value == Decimal("3.25")


def test_record_json_astronomical_value_falls_back_to_string():
    rec = _record(value=Decimal("1e400"))
    payload = record_to_json(rec)
    assert isinstance(payload["value"], str)
    assert record_from_json(payload).value == Decimal("1e400")


def test_record_json_none_value():
    rec = _record(disclosure=False, value=None, unit=None, flags=[])
    payload = record_to_json(rec)
    assert payload["value"] is None
    assert record_from_json(payload) == rec


def test_write_records_sorted_and_loadable(tmp_path):
    def rec(doc, ind, topic):
        return _record(doc_id=doc, indicator_id=ind, topic=topic)

    out = tmp_path / "records.jsonl"
    write_records(
        [rec("b", "x", "t"), rec("a", "y", "t"), rec("a", "x", "u"),
         rec("a", "x", "t")],
        out,
    )
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    keys = [(r.doc_id, r.indicator_id, r.topic) for r in load_records(out)]
    assert keys == [("a", "x", "t"), ("a", "x", "u"), ("a", "y", "t"),
                    ("b", "x", "t")]


def test_load_records_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": "a"}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        load_records(bad)


def test_load_records_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_records(tmp_path / "absent.jsonl")


# ------------------------------------------------------------ extract_indicator


class _FailingChat(ChatProvider):
    name = "always-down"

    def __init__(self):
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        raise ProviderError("simulated outage")


class _RecordingChat(ChatProvider):
    name = "recording"

    def __init__(self, inner):
        self.inner = inner
        self.replies = []

    def complete(self, prompt, params):
        self.replies.append(self.inner.complete(prompt, params))
        return self.replies[-1]


@pytest.fixture(scope="module")
def doc00_kb(corpus_docs, offline_providers):
    doc = corpus_docs[0]
    return doc, build_kb(doc, offline_providers.embedder)


def test_extract_golden_path(registry, offline_providers, doc00_kb):
    doc, kb = doc00_kb
    spec = registry.indicator("A1.1-nox")
    records = extract_indicator(doc.doc_id, spec, kb, registry,
                                offline_providers, ExtractConfig())
    assert len(records) == 1
    rec = records[0]
    assert rec.disclosure is True
    assert rec.value == Decimal("41000")
    assert rec.unit == "kg"
    assert rec.flags == []


def test_extract_undisclosed_indicator_refuses(registry, offline_providers,
                                               doc00_kb):
    doc, kb = doc00_kb
    spec = registry.indicator("A1.1-sox")
    records = extract_indicator(doc.doc_id, spec, kb, registry,
                                offline_providers, ExtractConfig())
    assert all(r.disclosure is False for r in records)
    assert all(FLAG_PARSE_FAILURE not in r.flags for r in records)


def test_extract_sends_a_failed_chat_call_once(registry, offline_providers, doc00_kb,
                                              sleeps):
    doc, kb = doc00_kb
    spec = registry.indicator("A1.1-nox")
    chat = _FailingChat()
    providers = dataclasses.replace(offline_providers, chat=chat)
    records = extract_indicator(doc.doc_id, spec, kb, registry, providers, ExtractConfig())
    assert chat.calls == 1
    assert sleeps == []
    assert len(records) == 1
    assert records[0].disclosure is False
    assert records[0].flags == [FLAG_PROVIDER_FAILED]
    assert records[0].raw_reply_excerpt == "simulated outage"


def test_extract_recovers_from_transient_failure(registry, offline_providers,
                                                 doc00_kb, http_server, sleeps):
    # the endpoint resends a 503; the record is that of a run without one
    doc, kb = doc00_kb
    spec = registry.indicator("A1.1-nox")
    recording = _RecordingChat(offline_providers.chat)
    expected = extract_indicator(doc.doc_id, spec, kb, registry,
                                 dataclasses.replace(offline_providers, chat=recording),
                                 ExtractConfig())
    server, base = http_server
    statuses = iter([503])
    server.responder = lambda path, payload: (
        next(statuses, 200), {"content": recording.replies[0]}
    )
    providers = dataclasses.replace(
        offline_providers, chat=HttpChatProvider(HttpEndpoint(f"{base}/chat", retries=2))
    )
    records = extract_indicator(doc.doc_id, spec, kb, registry, providers, ExtractConfig())
    assert records == expected
    assert records[0].disclosure is True
    assert records[0].value == Decimal("41000")
    assert len(server.calls) == 2
    assert sleeps == [0.5]


def test_extract_requires_chat_provider(registry, offline_providers, doc00_kb):
    doc, kb = doc00_kb
    spec = registry.indicator("A1.1-nox")
    broken = dataclasses.replace(offline_providers, chat=None)
    with pytest.raises(ConfigError):
        extract_indicator(doc.doc_id, spec, kb, registry, broken,
                          ExtractConfig())
