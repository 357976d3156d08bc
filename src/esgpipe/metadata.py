"""Indicator metadata registry: definition, loading, validation, and queries.

A registry file is a UTF-8 JSON document with a top-level object holding
``standard_name``, ``indicators[]`` and ``expressions[]``. Field names match
the dataclasses below exactly; unknown fields are rejected so that typos in
hand-edited registries fail loudly. README's "Input files" table has the
type of each field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from importlib import resources
from pathlib import Path

from . import _read
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


_INDICATOR_FIELDS = frozenset(f.name for f in fields(IndicatorSpec))
_EXPRESSION_FIELDS = frozenset(f.name for f in fields(PromptExpression))
_REGISTRY_FIELDS = frozenset({"standard_name", "indicators", "expressions"})
_ENUMS = {"quantity": Quantity, "category": Category, "kind": Kind}


def _parse_entry(cls: type, names: frozenset[str], value: object, where: tuple):
    """A `cls` from its registry object, each field given and typed."""
    entry = _read.obj(value, where, RegistryError, names, names)
    args = {}
    for key, raw in entry.items():
        at = (*where, key)
        if key in _ENUMS:
            args[key] = _read.choice(raw, at, RegistryError, _ENUMS[key])
        elif key in ("topics", "search_terms"):
            args[key] = tuple(_read.texts(raw, at, RegistryError))
        else:
            args[key] = _read.text(raw, at, RegistryError)
    return cls(**args)


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

    Raises RegistryError for a file that cannot be read or is not JSON,
    unknown/missing or mistyped fields (naming the key path), invariant
    violations, or dangling template references (naming the offender).
    """
    doc = _read.load(path, RegistryError, "registry file")
    _read.obj(doc, (path,), RegistryError, _REGISTRY_FIELDS, _REGISTRY_FIELDS)
    parts = {
        key: tuple(
            _parse_entry(cls, names, value, (path, key, i))
            for i, value in enumerate(_read.array(doc[key], (path, key), RegistryError))
        )
        for key, cls, names in (
            ("indicators", IndicatorSpec, _INDICATOR_FIELDS),
            ("expressions", PromptExpression, _EXPRESSION_FIELDS),
        )
    }
    registry = MetadataRegistry(
        _read.text(doc["standard_name"], (path, "standard_name"), RegistryError), **parts
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
