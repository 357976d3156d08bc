"""Prompt assembly, chat-provider calls, and reply parsing.

The prompt has five parts in fixed order: preset, reference content
(retrieved evidence), expert knowledge (the indicator's definition,
omitted in the no-knowledge ablation arm), the rendered question, and
answer-format instructions. Replies are untrusted text: parsing never
raises, and every failure mode degrades to a record with diagnostic
flags instead. Each chat request is sent once: only
`providers.HttpEndpoint.post` sends a request again, and a chat call
that fails even so yields a provider-failed record. The corpus runner
(`pipeline.run_corpus`) calls two stages here: `evidence_from_hits`
(rerank and assembly, once per retrieval group and indicator) and
`extract_indicator` (prompt, chat and parse, once per arm and
indicator). `ExtractConfig` holds only the retrieval sizes; each stage
takes the one arm switch it needs (rerank, knowledge).

Records use the seven-field shape <Disclosure, KPI, Topic, Value,
Unit, Target, Action> plus doc/indicator identity, an audit excerpt of
the raw reply, and the flag list.

`parse_reply` works in two steps. What depends on the reply text alone
(the excerpt, the fields of each JSON object that can give a record,
and the refusal test) is read once per distinct text and kept in an LRU
memo of `_MEMO_REPLIES` entries; a reply longer than `_MEMO_REPLY_CHARS`
is read without it. The per-indicator step (topic rules, identity, the
payload invariant) runs on every call and returns new records, so a
caller may mutate them: the memo holds only immutable values.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import lru_cache
from itertools import product
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from . import _read
from .errors import ConfigError, ProviderError
from .metadata import IndicatorSpec, Kind, MetadataRegistry, render_question
from .retrieval import (
    DEFAULT_BUDGET_CHARS,
    DEFAULT_RERANK_M,
    DEFAULT_TOP_K,
    NO_EVIDENCE_SENTINEL,
    EvidenceBundle,
    Hits,
    Query,
    assemble_evidence,
    rerank,
)
from .providers import ProviderSet

logger = logging.getLogger(__name__)

EXCERPT_CHARS = 240

GENERATION_PARAMS = {"temperature": 0.0}

# How negative answers tend to be phrased; matching is case-insensitive
# substring. A match means "not disclosed", not a parse failure.
REFUSAL_PATTERNS = (
    "cannot find",
    "could not find",
    "not disclosed",
    "does not disclose",
    "no information",
    "not mentioned",
    "not reported",
    "unable to locate",
    "no relevant",
)

ANSWER_FORMATS = {
    "record_v1": (
        "Reply with one JSON object per requested topic, each with exactly "
        'these keys: "disclosure" (true or false), "kpi", "topic", "value" '
        '(number or null), "unit" (string or null), "target" (string or '
        'null), "action" (string or null). Use null for anything the report '
        "does not state. Do not add any other keys or commentary."
    ),
}

FLAG_PARSE_FAILURE = "parse-failure"
FLAG_VALIDATION_WARNING = "validation-warning"
FLAG_PROVIDER_FAILED = "provider-failed"
FLAG_RANGE_APPROXIMATED = "range-approximated"
FLAG_VALUE_COERCED = "value-coerced"
FLAG_UNKNOWN_TOPIC = "unknown-topic"
FLAG_MISSING_TOPIC = "missing-topic"
FLAG_MISSING_DISCLOSURE = "missing-disclosure"


@dataclass
class Prompt:
    """Five-part prompt. doc_id/indicator_id are audit metadata only:
    they identify the extraction for tracing and for the fixture-backed
    mock provider, and are never rendered into the message text."""

    preset: str
    reference_content: str
    expert_knowledge: str
    question: str
    answer_format: str
    doc_id: str = ""
    indicator_id: str = ""

    def to_messages(self) -> list[dict[str, str]]:
        sections = [f"[Reference Content]\n{self.reference_content}"]
        if self.expert_knowledge:
            sections.append(f"[Expert Knowledge]\n{self.expert_knowledge}")
        sections.append(f"[Question]\n{self.question}")
        sections.append(f"[Answer Format]\n{self.answer_format}")
        return [
            {"role": "system", "content": self.preset},
            {"role": "user", "content": "\n\n".join(sections)},
        ]


@dataclass
class ExtractionRecord:
    doc_id: str
    indicator_id: str
    disclosure: bool
    kpi: str
    topic: str
    value: Decimal | None = None
    unit: str | None = None
    target: str | None = None
    action: str | None = None
    raw_reply_excerpt: str = ""
    flags: list[str] = field(default_factory=list)

    def enforce_invariants(self, spec: IndicatorSpec | None = None) -> None:
        """Clear payload fields on non-disclosure; warn on missing
        numeric value/unit. Mutates in place."""
        if not self.disclosure:
            self.value = None
            self.unit = None
            self.target = None
            self.action = None
            return
        if spec is not None and spec.kind is Kind.NUMERICAL:
            if (self.value is None or self.unit is None) and (
                FLAG_VALIDATION_WARNING not in self.flags
            ):
                self.flags.append(FLAG_VALIDATION_WARNING)


def validate_record(record: ExtractionRecord) -> bool:
    """True iff the disclosure/payload invariant holds."""
    if record.disclosure:
        return True
    return (
        record.value is None
        and record.unit is None
        and record.target is None
        and record.action is None
    )


def build_prompt(
    spec: IndicatorSpec,
    evidence: EvidenceBundle,
    registry: MetadataRegistry,
    knowledge_enabled: bool = True,
    doc_id: str = "",
    question: str | None = None,
) -> Prompt:
    """The five-part prompt. `question` is the rendered question
    (`render_question(spec, registry)`, rendered here when None); a
    query's first text already is it."""
    if evidence.indicator_id and evidence.indicator_id != spec.id:
        raise ConfigError(
            f"evidence bundle for {evidence.indicator_id!r} used with spec {spec.id!r}"
        )
    expression = registry.expression(spec.prompt_template_id)
    schema_id = registry.expression(spec.output_schema_id).answer_format
    return Prompt(
        preset=expression.preset,
        reference_content=evidence.reference or NO_EVIDENCE_SENTINEL,
        expert_knowledge=spec.knowledge if knowledge_enabled else "",
        question=render_question(spec, registry) if question is None else question,
        answer_format=ANSWER_FORMATS[schema_id],
        doc_id=doc_id,
        indicator_id=spec.id,
    )


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _encodable(text: str) -> str:
    """`text` with each surrogate code point, which a JSON escape like
    "\\ud800" can put in a reply but UTF-8 cannot encode, replaced by
    U+FFFD."""
    return text if text.isascii() else _SURROGATE_RE.sub("\ufffd", text)


def _excerpt(reply: str) -> str:
    """The reply's first EXCERPT_CHARS characters once each run of
    whitespace is one space and none leads or trails (str.split's
    whitespace is the regex's \\s, code point for code point), made
    encodable."""
    return _encodable(" ".join(reply.split())[:EXCERPT_CHARS])


def _is_refusal(reply: str) -> bool:
    lowered = reply.lower()
    for pattern in REFUSAL_PATTERNS:  # a loop, about twice as fast as any() of a generator
        if pattern in lowered:
            return True
    return False


_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _parse_value(raw: object, flags: list[str]) -> tuple[Decimal | None, str | None]:
    """Normalize a reply value. Returns (value, implied_unit)."""
    if raw is None or isinstance(raw, bool):
        return None, None
    if isinstance(raw, (int, float)):
        try:
            value = Decimal(str(raw))
        except InvalidOperation:
            return None, None
        return (value, None) if value.is_finite() else (None, None)
    text = str(raw).strip()
    if not text or text.lower() in {"null", "none", "n/a", "na", "-"}:
        return None, None
    implied_unit = None
    if text.endswith("%"):
        implied_unit = "%"
        text = text[:-1].strip()
    cleaned = text.replace(",", "").replace("−", "-").replace("–", "-")
    try:
        value = Decimal(cleaned)
        return (value, implied_unit) if value.is_finite() else (None, implied_unit)
    except InvalidOperation:
        pass
    numbers = _NUMBER_RE.findall(cleaned)
    if not numbers:
        return None, implied_unit
    if len(numbers) > 1:
        flags.append(FLAG_RANGE_APPROXIMATED)
    else:
        flags.append(FLAG_VALUE_COERCED)
    try:
        value = Decimal(numbers[0])
    except InvalidOperation:
        return None, implied_unit
    return (value, implied_unit) if value.is_finite() else (None, implied_unit)


def _parse_bool(raw: object) -> bool | None:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, (int, float)) and raw in (0, 1):
        return bool(raw)
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered in {"true", "yes", "disclosed", "y", "1"}:
            return True
        if lowered in {"false", "no", "not disclosed", "n", "0"}:
            return False
    return None


def _opt_str(raw: object) -> str | None:
    if raw is None:
        return None
    text = _encodable(str(raw).strip())
    return text or None


def _answer(obj: dict) -> tuple | None:
    """What the object gives a record before the indicator is known, or
    None when it gives none: (disclosure, kpi, topic, value, unit, target,
    action, flags), kpi and topic empty when not given."""
    flags: list[str] = []
    value, implied_unit = _parse_value(obj.get("value"), flags)
    disclosure = _parse_bool(obj.get("disclosure"))
    if disclosure is None:
        if "disclosure" in obj or value is None:
            return None
        disclosure = True
        flags.append(FLAG_MISSING_DISCLOSURE)
    return (
        disclosure,
        _opt_str(obj.get("kpi")),
        _opt_str(obj.get("topic")) or "",
        value,
        _opt_str(obj.get("unit")) or implied_unit,
        _opt_str(obj.get("target")),
        _opt_str(obj.get("action")),
        tuple(flags),
    )


def _record(answer: tuple, spec: IndicatorSpec, doc_id: str, excerpt: str) -> ExtractionRecord:
    disclosure, kpi, topic, value, unit, target, action, answer_flags = answer
    flags = list(answer_flags)
    if not topic:
        if len(spec.topics) == 1:
            topic = spec.topics[0]
        else:
            flags.append(FLAG_MISSING_TOPIC)
    elif topic not in spec.topics:
        flags.append(FLAG_UNKNOWN_TOPIC)
    # fields by position, as in `parse_reply`'s fallback
    record = ExtractionRecord(
        doc_id, spec.id, disclosure, kpi or spec.kpi, topic, value, unit, target, action,
        excerpt, flags,
    )
    record.enforce_invariants(spec)
    return record


_JSON_START_RE = re.compile(r"[{\[]")
_JSON_DECODER = json.JSONDecoder()


def _scan_json_values(text: str) -> list[object]:
    """All parseable top-level JSON objects/arrays in the text."""
    values: list[object] = []
    start = _JSON_START_RE.search(text)
    while start:
        i = start.start()
        try:
            value, end = _JSON_DECODER.raw_decode(text, i)
        except (ValueError, RecursionError):
            end = i + 1
        else:
            values.append(value)
        start = _JSON_START_RE.search(text, end)
    return values


def _read_reply(reply: str) -> tuple[str, tuple[tuple, ...], bool]:
    """What a reply says whatever the indicator: its excerpt, the answer
    of each JSON object in it that gives one (arrays flattened), and, when
    there is none, whether it reads as a refusal."""
    candidates: list[dict] = []
    try:
        for value in _scan_json_values(reply):
            if isinstance(value, dict):
                candidates.append(value)
            elif isinstance(value, list):
                candidates.extend(v for v in value if isinstance(v, dict))
    except Exception:  # pragma: no cover - scanner is already total
        logger.exception("reply scanner failed; treating reply as unparseable")
    answers = tuple(filter(None, map(_answer, candidates))) if candidates else ()
    return _excerpt(reply), answers, not answers and _is_refusal(reply)


# Most replies repeat: a model's stock refusal, and the one reply each
# ablation arm gets for the same document and indicator. 1,024 entries
# hold several documents' 70 indicators x 3 arms, so a repeat within a
# document always hits and a stock reply stays hot. Replies up to 2,048
# characters (several multi-topic JSON answers; a fixture reply is under
# 350) are kept, so the memo holds at most 2 Mi characters of reply text
# and the answers read from it, whatever the traffic.
_MEMO_REPLIES = 1024
_MEMO_REPLY_CHARS = 2048
_read_reply_memo = lru_cache(maxsize=_MEMO_REPLIES)(_read_reply)


def parse_reply(reply: str, spec: IndicatorSpec, doc_id: str = "") -> list[ExtractionRecord]:
    """Parse an untrusted reply into records. Total: never raises.

    Every well-formed JSON object found in the reply (arrays are
    flattened) becomes a candidate record; one record is kept per
    topic, first occurrence winning. When nothing parses, a recognized
    refusal phrase yields a clean non-disclosure record and anything
    else yields a non-disclosure record flagged as a parse failure.
    The text is read through the memo (see the module doc).
    """
    read = _read_reply_memo if len(reply) <= _MEMO_REPLY_CHARS else _read_reply
    excerpt, answers, refusal = read(reply)
    if not answers:
        # a non-disclosure with no payload, so the invariants hold as built;
        # the fields by position, as they are half the cost of keywords
        topic = spec.topics[0] if spec.topics else ""
        flags = [] if refusal else [FLAG_PARSE_FAILURE]
        return [
            ExtractionRecord(doc_id, spec.id, False, spec.kpi, topic, None, None, None, None,
                             excerpt, flags)
        ]
    records: list[ExtractionRecord] = []
    seen_topics: set[str] = set()
    for answer in answers:  # the first always gives a record
        record = _record(answer, spec, doc_id, excerpt)
        if record.topic in seen_topics:
            logger.debug(
                "dropping duplicate topic %r for %s/%s", record.topic, doc_id, spec.id
            )
            continue
        seen_topics.add(record.topic)
        records.append(record)
    return records


def _json_value(value: Decimal | None) -> int | float | str | None:
    """A record value as JSON: an int when integral, else a float
    (fixture-scale decimals round-trip exactly through the shortest
    float repr). Values too large for a float fall back to the Decimal's
    string rather than corrupting the file."""
    if value is None:
        return None
    if not isinstance(value, Decimal):
        raise TypeError(f"record value must be a Decimal or None, got {value!r}")
    if value == value.to_integral_value() and abs(value) < 10**15:
        return int(value)
    as_float = float(value)
    return as_float if abs(as_float) != float("inf") else str(value)


def record_to_json(record: ExtractionRecord) -> dict:
    """JSON-safe dict with the exact record field names; the value as
    `_json_value` gives it. A record line is `json.dumps` of it with
    `ensure_ascii=False`."""
    return {
        "doc_id": record.doc_id,
        "indicator_id": record.indicator_id,
        "disclosure": record.disclosure,
        "kpi": record.kpi,
        "topic": record.topic,
        "value": _json_value(record.value),
        "unit": record.unit,
        "target": record.target,
        "action": record.action,
        "raw_reply_excerpt": record.raw_reply_excerpt,
        "flags": record.flags,
    }


def _opt_json(text: str | None) -> str:
    return "null" if text is None else encode_basestring(text)


def _record_line(r: ExtractionRecord) -> str:
    """The bytes of `json.dumps(record_to_json(r), ensure_ascii=False)`,
    spelled as json spells each type; `encode_basestring` raises
    TypeError for a text field that is not a str."""
    value = _json_value(r.value)
    if value is None:
        value_json = "null"
    elif type(value) is str:
        value_json = encode_basestring(value)
    else:  # json's spellings: int.__repr__, float.__repr__, NaN (inf took the str branch)
        value_json = repr(value) if value == value else "NaN"
    if type(r.disclosure) is not bool:
        raise TypeError(f"record disclosure must be a bool, got {r.disclosure!r}")
    if not isinstance(r.flags, list):
        raise TypeError(f"record flags must be a list, got {r.flags!r}")
    enc = encode_basestring
    return (
        f'{{"doc_id": {enc(r.doc_id)}, "indicator_id": {enc(r.indicator_id)}, '
        f'"disclosure": {"true" if r.disclosure else "false"}, "kpi": {enc(r.kpi)}, '
        f'"topic": {enc(r.topic)}, "value": {value_json}, "unit": {_opt_json(r.unit)}, '
        f'"target": {_opt_json(r.target)}, "action": {_opt_json(r.action)}, '
        f'"raw_reply_excerpt": {enc(r.raw_reply_excerpt)}, '
        f'"flags": [{", ".join(map(enc, r.flags))}]}}'
    )


_OPT = (str, type(None))
# field of a record line -> the types of JSON value it may hold
_RECORD_TYPES = {
    "doc_id": (str,), "indicator_id": (str,), "disclosure": (bool,), "kpi": (str,),
    "topic": (str,), "value": (type(None), int, float, str), "unit": _OPT, "target": _OPT,
    "action": _OPT, "raw_reply_excerpt": (str,), "flags": (list,),
}
_record_fields = itemgetter(*_RECORD_TYPES)
# every well-typed tuple of the fields' types, so that one set lookup checks a line
_RECORD_TYPINGS = frozenset(product(*_RECORD_TYPES.values()))
# a string value: the syntax of a finite Decimal, as `str(Decimal)` writes it
_DECIMAL_TEXT_RE = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def _malformed(fields: tuple) -> ValueError:
    """The error of the first mistyped field of a line, else of its value."""
    for (key, types), raw in zip(_RECORD_TYPES.items(), fields):
        if key != "value" and not (raw is None and type(None) in types):
            read = {"disclosure": _read.flag, "flags": _read.texts}.get(key, _read.text)
            try:
                read(raw, (key,), ValueError)
            except ValueError as exc:
                return exc
    return ValueError(f"value must be null, a finite number or a numeric string, got {fields[5]!r}")


def record_from_json(obj: dict) -> ExtractionRecord:
    """The record of one records-file object, typed as `record_to_json`
    writes it: disclosure a JSON boolean, each text a string (or null
    for unit, target and action), flags a list of strings, and the value
    null, a finite number or a numeric string. A missing field raises
    KeyError, any other departure ValueError naming the field."""
    fields = _record_fields(obj)
    doc_id, indicator_id, disclosure, kpi, topic, raw, unit, target, action, excerpt, flags = fields
    if tuple(map(type, fields)) not in _RECORD_TYPINGS or (
        flags and not all(type(f) is str for f in flags)
    ):
        raise _malformed(fields)
    value = None
    if raw is not None:
        if type(raw) is str and not _DECIMAL_TEXT_RE.fullmatch(raw):
            raise _malformed(fields)
        value = Decimal(str(raw))
        if not value.is_finite():
            raise _malformed(fields)
    return ExtractionRecord(
        doc_id, indicator_id, disclosure, kpi, topic, value, unit, target, action, excerpt,
        list(flags),
    )


def write_records(records: Sequence[ExtractionRecord], path: str | Path) -> None:
    """One record object per line, ordered by (doc_id, indicator_id, topic):
    `_record_line`'s bytes of each, the exact bytes of `json.dumps` of
    `record_to_json`. A field that is not of its annotated type raises
    TypeError."""
    ordered = sorted(records, key=lambda r: (r.doc_id, r.indicator_id, r.topic))
    lines = [_record_line(r) for r in ordered]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_records(path: str | Path) -> list[ExtractionRecord]:
    """The records of a file `write_records` wrote. Lines break at "\\n"
    only: a record's text may hold U+2028 or U+0085, which json leaves
    unescaped and `str.splitlines` would break at. A malformed line is a
    ConfigError naming the file and line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read records file {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(record_from_json(_JSON_DECODER.decode(line)))
        except (ValueError, KeyError, TypeError, InvalidOperation) as exc:
            raise ConfigError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return records


@dataclass
class ExtractConfig:
    """Retrieval sizes; the switches belong to the ablation arm."""

    top_k: int = DEFAULT_TOP_K
    rerank_m: int = DEFAULT_RERANK_M
    budget_chars: int = DEFAULT_BUDGET_CHARS


def evidence_from_hits(
    spec: IndicatorSpec,
    query: Query,
    hits: Hits,
    providers: ProviderSet,
    cfg: ExtractConfig,
    use_rerank: bool,
) -> EvidenceBundle:
    """Optional rerank and budgeted assembly of one indicator's search hits."""
    if use_rerank:
        hits = rerank(hits, query.query_texts[0], providers.reranker, cfg.rerank_m)
    return assemble_evidence(hits, cfg.budget_chars, indicator_id=spec.id)


def extract_indicator(
    doc_id: str,
    spec: IndicatorSpec,
    evidence: EvidenceBundle,
    registry: MetadataRegistry,
    providers: ProviderSet,
    knowledge_enabled: bool,
    question: str | None = None,
) -> list[ExtractionRecord]:
    """Prompt -> provider -> parse for one indicator's evidence.
    `knowledge_enabled` and `question` are passed to `build_prompt`.

    The chat provider is called once, and a ProviderError from it yields
    a provider-failed non-disclosure record rather than an exception;
    resending a failed request is the provider's own business
    (`HttpEndpoint.post`).
    """
    prompt = build_prompt(
        spec,
        evidence,
        registry,
        knowledge_enabled=knowledge_enabled,
        doc_id=doc_id,
        question=question,
    )
    try:
        reply = providers.chat.complete(prompt, GENERATION_PARAMS)
    except ProviderError as exc:
        logger.error("chat provider failed for %s/%s: %s", doc_id, spec.id, exc)
        record = ExtractionRecord(
            doc_id=doc_id,
            indicator_id=spec.id,
            disclosure=False,
            kpi=spec.kpi,
            topic=spec.topics[0] if spec.topics else "",
            raw_reply_excerpt=_excerpt(str(exc)),
            flags=[FLAG_PROVIDER_FAILED],
        )
        return [record]

    records = parse_reply(reply, spec, doc_id=doc_id)
    records.sort(key=lambda r: r.topic)
    return records

