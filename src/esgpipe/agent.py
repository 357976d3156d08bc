"""Prompt assembly, chat-provider calls, and reply parsing.

The prompt has five parts in fixed order: preset, reference content
(retrieved evidence), expert knowledge (the indicator's definition,
omitted in the no-knowledge ablation arm), the rendered question, and
answer-format instructions. Replies are untrusted text: parsing never
raises, and every failure mode degrades to a record with diagnostic
flags instead. Each chat request is sent once: only
`providers.HttpEndpoint.post` sends a request again, and a chat call
that fails even so yields a provider-failed record. `ExtractConfig`
holds only the retrieval sizes; `evidence_from_hits` and
`answer_indicator` each take the one arm switch they need (rerank,
knowledge) as an argument.

Records use the seven-field shape <Disclosure, KPI, Topic, Value,
Unit, Target, Action> plus doc/indicator identity, an audit excerpt of
the raw reply, and the flag list.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, ProviderError
from .kb import KnowledgeBase
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
    build_query,
    rerank,
    search_many,
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
    reference = "\n\n".join(h.resolved_payload for h in evidence.hits)
    return Prompt(
        preset=expression.preset,
        reference_content=reference if reference else NO_EVIDENCE_SENTINEL,
        expert_knowledge=spec.knowledge if knowledge_enabled else "",
        question=render_question(spec, registry) if question is None else question,
        answer_format=ANSWER_FORMATS[schema_id],
        doc_id=doc_id,
        indicator_id=spec.id,
    )


def _excerpt(reply: str) -> str:
    """The reply's first EXCERPT_CHARS characters once each run of
    whitespace is one space and none leads or trails: str.split's
    whitespace is the regex's \\s, code point for code point."""
    return " ".join(reply.split())[:EXCERPT_CHARS]


def _is_refusal(reply: str) -> bool:
    lowered = reply.lower()
    return any(p in lowered for p in REFUSAL_PATTERNS)


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
    text = str(raw).strip()
    return text or None


def _record_from_object(
    obj: dict, spec: IndicatorSpec, doc_id: str, excerpt: str
) -> ExtractionRecord | None:
    flags: list[str] = []
    value, implied_unit = _parse_value(obj.get("value"), flags)
    disclosure = _parse_bool(obj.get("disclosure"))
    if disclosure is None:
        if "disclosure" in obj or value is None:
            return None
        disclosure = True
        flags.append(FLAG_MISSING_DISCLOSURE)

    topic = _opt_str(obj.get("topic")) or ""
    if not topic:
        if len(spec.topics) == 1:
            topic = spec.topics[0]
        else:
            flags.append(FLAG_MISSING_TOPIC)
    elif topic not in spec.topics:
        flags.append(FLAG_UNKNOWN_TOPIC)

    unit = _opt_str(obj.get("unit")) or implied_unit
    record = ExtractionRecord(
        doc_id=doc_id,
        indicator_id=spec.id,
        disclosure=disclosure,
        kpi=_opt_str(obj.get("kpi")) or spec.kpi,
        topic=topic,
        value=value,
        unit=unit,
        target=_opt_str(obj.get("target")),
        action=_opt_str(obj.get("action")),
        raw_reply_excerpt=excerpt,
        flags=flags,
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


def parse_reply(reply: str, spec: IndicatorSpec, doc_id: str = "") -> list[ExtractionRecord]:
    """Parse an untrusted reply into records. Total: never raises.

    Every well-formed JSON object found in the reply (arrays are
    flattened) becomes a candidate record; one record is kept per
    topic, first occurrence winning. When nothing parses, a recognized
    refusal phrase yields a clean non-disclosure record and anything
    else yields a non-disclosure record flagged as a parse failure.
    """
    excerpt = _excerpt(reply)
    candidates: list[dict] = []
    try:
        for value in _scan_json_values(reply):
            if isinstance(value, dict):
                candidates.append(value)
            elif isinstance(value, list):
                candidates.extend(v for v in value if isinstance(v, dict))
    except Exception:  # pragma: no cover - scanner is already total
        logger.exception("reply scanner failed; treating reply as unparseable")

    records: list[ExtractionRecord] = []
    seen_topics: set[str] = set()
    for obj in candidates:
        record = _record_from_object(obj, spec, doc_id, excerpt)
        if record is None:
            continue
        if record.topic in seen_topics:
            logger.debug(
                "dropping duplicate topic %r for %s/%s", record.topic, doc_id, spec.id
            )
            continue
        seen_topics.add(record.topic)
        records.append(record)

    if records:
        return records
    fallback = ExtractionRecord(
        doc_id=doc_id,
        indicator_id=spec.id,
        disclosure=False,
        kpi=spec.kpi,
        topic=spec.topics[0] if spec.topics else "",
        raw_reply_excerpt=excerpt,
        flags=[] if _is_refusal(reply) else [FLAG_PARSE_FAILURE],
    )
    fallback.enforce_invariants(spec)
    return [fallback]


def record_to_json(record: ExtractionRecord) -> dict:
    """JSON-safe dict with the exact record field names.

    The value serializes as a JSON number: an int when integral, else
    a float (fixture-scale decimals round-trip exactly through the
    shortest float repr). Non-finite or astronomically scaled values
    fall back to a string rather than corrupting the file.
    """
    value: object = None
    if record.value is not None:
        if record.value == record.value.to_integral_value() and abs(record.value) < 10**15:
            value = int(record.value)
        else:
            as_float = float(record.value)
            value = as_float if abs(as_float) != float("inf") else str(record.value)
    return {
        "doc_id": record.doc_id,
        "indicator_id": record.indicator_id,
        "disclosure": record.disclosure,
        "kpi": record.kpi,
        "topic": record.topic,
        "value": value,
        "unit": record.unit,
        "target": record.target,
        "action": record.action,
        "raw_reply_excerpt": record.raw_reply_excerpt,
        "flags": record.flags,
    }


def record_from_json(obj: dict) -> ExtractionRecord:
    raw_value = obj["value"]
    return ExtractionRecord(
        doc_id=obj["doc_id"],
        indicator_id=obj["indicator_id"],
        disclosure=bool(obj["disclosure"]),
        kpi=obj["kpi"],
        topic=obj["topic"],
        value=None if raw_value is None else Decimal(str(raw_value)),
        unit=obj["unit"],
        target=obj["target"],
        action=obj["action"],
        raw_reply_excerpt=obj["raw_reply_excerpt"],
        flags=list(obj["flags"]),
    )


# json.dumps(obj, ensure_ascii=False) makes an encoder per call; one serves every line
_RECORD_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_records(records: Sequence[ExtractionRecord], path: str | Path) -> None:
    """One record object per line, ordered by (doc_id, indicator_id, topic)."""
    ordered = sorted(records, key=lambda r: (r.doc_id, r.indicator_id, r.topic))
    lines = [_RECORD_ENCODER.encode(record_to_json(r)) for r in ordered]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_records(path: str | Path) -> list[ExtractionRecord]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read records file {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(record_from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, InvalidOperation) as exc:
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


def answer_indicator(
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


def extract_indicator(
    doc_id: str,
    spec: IndicatorSpec,
    kb: KnowledgeBase,
    registry: MetadataRegistry,
    providers: ProviderSet,
    cfg: ExtractConfig | None = None,
) -> list[ExtractionRecord]:
    """Retrieval -> prompt -> provider -> parse for one indicator, with
    every switch of the default arm on: search terms, rerank and the
    indicator's knowledge.

    Chat failures degrade to a flagged record (see `answer_indicator`);
    only misconfiguration (a missing provider) aborts.
    """
    if providers.chat is None or providers.embedder is None:
        raise ConfigError("extraction requires chat and embedding providers")
    cfg = cfg or ExtractConfig()
    query = build_query(spec, registry, providers.embedder)
    hits = search_many(kb, [query], cfg.top_k)[0]
    evidence = evidence_from_hits(spec, query, hits, providers, cfg, True)
    question = query.query_texts[0]
    return answer_indicator(doc_id, spec, evidence, registry, providers, True, question)
