"""Indicator metadata registry: definition, loading, validation, and queries.

A registry file is a UTF-8 JSON document with a top-level object holding
``standard_name``, ``indicators[]`` and ``expressions[]``. Field names match
the dataclasses below exactly; unknown fields are rejected so that typos in
hand-edited registries fail loudly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path

from .errors import RegistryError

# The only answer schema understood by the extraction agent: one object per
# topic with the seven record fields (disclosure, kpi, topic, value, unit,
# target, action).
ANSWER_SCHEMA_RECORD_V1 = "record_v1"
KNOWN_ANSWER_SCHEMAS = {ANSWER_SCHEMA_RECORD_V1}

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class Quantity(Enum):
    """What kind of content an indicator asks the model to extract."""

    ABSOLUTE_VALUES = "AbsoluteValues"
    KEY_ACTIONS = "KeyActions"
    TEXTUAL = "Textual"


class Category(Enum):
    E = "E"
    S = "S"
    G = "G"


class Kind(Enum):
    NUMERICAL = "Numerical"
    TEXTUAL = "Textual"


@dataclass(frozen=True)
class IndicatorSpec:
    """One registry entry: what to ask for and how to search for it."""

    id: str
    aspect: str
    kpi: str
    topics: tuple[str, ...]
    quantity: Quantity
    category: Category
    kind: Kind
    knowledge: str
    search_terms: tuple[str, ...]
    prompt_template_id: str
    output_schema_id: str


@dataclass(frozen=True)
class PromptExpression:
    """Prompt template plus the answer schema it instructs the model to emit."""

    id: str
    preset: str
    question_template: str
    answer_format: str


@dataclass(frozen=True)
class MetadataRegistry:
    standard_name: str
    indicators: tuple[IndicatorSpec, ...]
    expressions: tuple[PromptExpression, ...]
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)
    _expr_by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {s.id: s for s in self.indicators})
        object.__setattr__(self, "_expr_by_id", {e.id: e for e in self.expressions})

    def indicator(self, indicator_id: str) -> IndicatorSpec:
        try:
            return self._by_id[indicator_id]
        except KeyError:
            raise RegistryError(f"unknown indicator id: {indicator_id!r}") from None

    def expression(self, expression_id: str) -> PromptExpression:
        try:
            return self._expr_by_id[expression_id]
        except KeyError:
            raise RegistryError(f"unknown expression id: {expression_id!r}") from None

    def __contains__(self, indicator_id: str) -> bool:
        return indicator_id in self._by_id

    def __len__(self) -> int:
        return len(self.indicators)


def _parse_enum(enum_cls, raw, where: str):
    try:
        return enum_cls(raw)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise RegistryError(
            f"{where}: {raw!r} is not one of [{allowed}]"
        ) from None


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise RegistryError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise RegistryError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise RegistryError(f"{where}: missing fields {sorted(missing)}")


def _parse_str(obj: dict, key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise RegistryError(f"{where}: field {key!r} must be a string")
    return value


def _parse_str_list(obj: dict, key: str, where: str) -> tuple[str, ...]:
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise RegistryError(f"{where}: field {key!r} must be a list of strings")
    return tuple(value)


_INDICATOR_FIELDS = {f.name for f in fields(IndicatorSpec)}
_EXPRESSION_FIELDS = {f.name for f in fields(PromptExpression)}


def _parse_indicator(obj: dict, position: int) -> IndicatorSpec:
    where = f"indicators[{position}]"
    _require_keys(obj, _INDICATOR_FIELDS, _INDICATOR_FIELDS, where)
    ind_id = _parse_str(obj, "id", where)
    where = f"indicator {ind_id!r}"
    return IndicatorSpec(
        id=ind_id,
        aspect=_parse_str(obj, "aspect", where),
        kpi=_parse_str(obj, "kpi", where),
        topics=_parse_str_list(obj, "topics", where),
        quantity=_parse_enum(Quantity, obj["quantity"], where),
        category=_parse_enum(Category, obj["category"], where),
        kind=_parse_enum(Kind, obj["kind"], where),
        knowledge=_parse_str(obj, "knowledge", where),
        search_terms=_parse_str_list(obj, "search_terms", where),
        prompt_template_id=_parse_str(obj, "prompt_template_id", where),
        output_schema_id=_parse_str(obj, "output_schema_id", where),
    )


def _parse_expression(obj: dict, position: int) -> PromptExpression:
    where = f"expressions[{position}]"
    _require_keys(obj, _EXPRESSION_FIELDS, _EXPRESSION_FIELDS, where)
    return PromptExpression(
        id=_parse_str(obj, "id", where),
        preset=_parse_str(obj, "preset", where),
        question_template=_parse_str(obj, "question_template", where),
        answer_format=_parse_str(obj, "answer_format", where),
    )


def validate_registry(registry: MetadataRegistry) -> None:
    """Check every registry invariant, raising RegistryError on the first hit."""
    seen: set[str] = set()
    for spec in registry.indicators:
        if spec.id in seen:
            raise RegistryError(f"duplicate indicator id: {spec.id!r}")
        seen.add(spec.id)

    expr_ids = {e.id for e in registry.expressions}
    if len(expr_ids) != len(registry.expressions):
        raise RegistryError("duplicate expression ids in registry")

    for expr in registry.expressions:
        if expr.answer_format not in KNOWN_ANSWER_SCHEMAS:
            raise RegistryError(
                f"expression {expr.id!r}: unknown answer_format "
                f"{expr.answer_format!r} (known: {sorted(KNOWN_ANSWER_SCHEMAS)})"
            )
        for name in _PLACEHOLDER_RE.findall(expr.question_template):
            if name not in _INDICATOR_FIELDS:
                raise RegistryError(
                    f"expression {expr.id!r}: question_template placeholder "
                    f"{{{name}}} is not an indicator field"
                )

    for spec in registry.indicators:
        where = f"indicator {spec.id!r}"
        if not spec.topics:
            raise RegistryError(f"{where}: topics must be non-empty")
        if not spec.search_terms:
            raise RegistryError(f"{where}: search_terms must be non-empty")
        if spec.kind is Kind.NUMERICAL and spec.quantity is not Quantity.ABSOLUTE_VALUES:
            raise RegistryError(
                f"{where}: Numerical indicators must use quantity=AbsoluteValues"
            )
        if spec.kind is Kind.TEXTUAL and spec.quantity is Quantity.ABSOLUTE_VALUES:
            raise RegistryError(
                f"{where}: Textual indicators must use KeyActions or Textual quantity"
            )
        for ref_name in ("prompt_template_id", "output_schema_id"):
            ref = getattr(spec, ref_name)
            if ref not in expr_ids:
                raise RegistryError(
                    f"{where}: {ref_name} references missing expression {ref!r}"
                )


def load_registry(path: str | Path) -> MetadataRegistry:
    """Load and fully validate a registry file.

    Raises RegistryError for malformed JSON, unknown/missing fields, invariant
    violations, or dangling template references (naming the offender).
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise RegistryError(f"cannot read registry file {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RegistryError(f"registry file {path} is not valid JSON: {exc}") from exc

    _require_keys(
        doc,
        {"standard_name", "indicators", "expressions"},
        {"standard_name", "indicators", "expressions"},
        "registry",
    )
    if not isinstance(doc["indicators"], list) or not isinstance(doc["expressions"], list):
        raise RegistryError("registry: indicators and expressions must be lists")

    registry = MetadataRegistry(
        standard_name=_parse_str(doc, "standard_name", "registry"),
        indicators=tuple(
            _parse_indicator(obj, i) for i, obj in enumerate(doc["indicators"])
        ),
        expressions=tuple(
            _parse_expression(obj, i) for i, obj in enumerate(doc["expressions"])
        ),
    )
    validate_registry(registry)
    return registry


def count_by(registry: MetadataRegistry, category: Category, kind: Kind) -> int:
    """Number of indicators in one (category, kind) cell."""
    return sum(
        1
        for s in registry.indicators
        if s.category is category and s.kind is kind
    )


def count_table(registry: MetadataRegistry) -> dict[tuple[str, str], int]:
    """All six (category, kind) counts; values sum to len(registry)."""
    return {
        (c.value, k.value): count_by(registry, c, k)
        for c in Category
        for k in Kind
    }


def _substitute(spec: IndicatorSpec, name: str) -> str:
    value = getattr(spec, name)
    if isinstance(value, tuple):
        return ", ".join(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def render_question(spec: IndicatorSpec, registry: MetadataRegistry) -> str:
    """Render the indicator's targeted question from its prompt expression.

    Deterministic; the result contains the aspect, kpi and every topic
    verbatim (given the bundled templates). Unknown placeholders raise.
    """
    if spec.id not in registry or registry.indicator(spec.id) != spec:
        raise RegistryError(f"indicator {spec.id!r} does not belong to this registry")
    template = registry.expression(spec.prompt_template_id).question_template

    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in _INDICATOR_FIELDS:
            raise RegistryError(
                f"indicator {spec.id!r}: unresolved placeholder {{{name}}}"
            )
        return _substitute(spec, name)

    return _PLACEHOLDER_RE.sub(repl, template)


def bundled_registry_path() -> Path:
    """Path to the HKEx-style registry fixture shipped with the package."""
    return Path(resources.files("esgpipe").joinpath("data/hkex_registry.json"))
