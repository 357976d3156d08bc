"""Command-line entry point for the extraction pipeline.

Subcommands: ingest, build-kb, extract, evaluate, ablate, analyze, and
metadata {validate,stats}. Everything is driven by a YAML config file;
environment variables are used only for provider credentials. Every
subcommand accepts --dry-run, which prints the resolved plan and
touches nothing.

Exit codes: 0 success (data-level failures are summarized as warnings),
1 configuration error, 2 input parse error, 3 provider unreachable.

The corpus is read in path order, one document at a time, and each file
is hashed once per command. build-kb, extract and a fresh single-arm
evaluate source each document's KB through `out/kb_cache/`, keyed by the
file's bytes and, for markdown and plain text, by the name that gives
their doc_id: a hit takes the doc_id from the cached KB and never parses
the file, a miss parses, builds and caches it. build-kb then deletes
the `kb_cache/` and `kb/` files of documents no longer in the corpus
(a skipped file counts as gone). ingest, ablate and analyze parse every
file, as they need the document itself.

extract and a fresh single-arm evaluate share `extract_arm`, which writes
`records.jsonl`, in doc_id order. evaluate and ablate score each arm with
`evaluation.evaluate_arm`. extract, evaluate and ablate end with
`manifest.json`, which hashes every file they read and wrote; evaluate
refuses records that it names, as they are, with another single arm.
Every output file is written to a `.tmp` sibling and renamed into place
(`write_atomic`).

Config file shape (all keys optional unless a command needs them)::

    registry: path            # default: the bundled registry
    corpus_dir: corpus/
    output_dir: out/
    mode: offline             # offline | online
    arm: enhanced_rag_knowledge   # ablation arm, or "all"
    labels: labels.jsonl
    jobs: 1
    value_match_rel_tol: null # optional relative tolerance for Acc_DE
    retrieval: {k: 5, m: 10, budget_chars: 6000}
    chunking: {max_chars: 1200, naive_chunk_chars: 400, summary_sentences: 2}
    providers:
      embedding: {kind: offline, dim: 256}        # or kind: http, url, dim
      chat: {kind: mock, replies: replies.json}   # or kind: http, url
      rerank: {kind: offline}                     # or kind: http, url

An http section may also set timeout (seconds, default 30), retries
(default 2: resends after a connection error, a timeout, a 5xx, 408 or
429, spaced 0.5 s, 1 s, ...; nothing else resends) and token_env.
Relative paths resolve against the config file's directory. In offline
mode no provider may carry a url; in online mode embedding and chat
must. A `kind`, when given, must name the provider that runs: http for
an online section with a url, otherwise offline (mock for chat). A key
set to null takes its default. An int key takes an int or an integral
float (3.0, not 3.5), a float key any number. An unknown key, also under
`retrieval`, `chunking` or a provider section, an unknown or mismatched
kind, a malformed number (a YAML boolean or a string too) and a number
below its minimum or not finite are rejected at load.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import shutil
import sys
import urllib.parse
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import yaml

from . import __version__, agent, analytics, docmodel, evaluation, kb as kbmod, metadata
from .errors import (
    AnalyticsError,
    ConfigError,
    DocumentError,
    EvaluationError,
    KnowledgeBaseError,
    PipelineError,
    ProviderError,
    RegistryError,
)
from .pipeline import (
    ABLATION_ARMS,
    DEFAULT_ARM,
    PipelineConfig,
    ablation_arm,
    build_document_kb,
    run_corpus,
)
from .providers import (
    DEFAULT_DIM,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    HttpEndpoint,
    HttpReranker,
    JaccardReranker,
    MockChatProvider,
    ProviderSet,
)
from .retrieval import MIN_BUDGET_CHARS

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INPUT = 2
EXIT_PROVIDER = 3

CORPUS_SUFFIXES = {".json", ".md", ".markdown", ".txt"}

# the kinds a provider section may name: the first runs unless an online
# run gives the section a url
_PROVIDER_KINDS = {
    "embedding": ("offline", "http"),
    "chat": ("mock", "http"),
    "rerank": ("offline", "http"),
}


class _Key(NamedTuple):
    """A config key's type, `str`, `Path` (resolved against the config's
    directory), `int` or `float`, and what it takes when left out or
    null: `default`, that of the field it sets. A number must be finite
    and at least `least`, or above it where `strict`."""

    type: type
    default: object = None
    least: float = 0
    strict: bool = False


# the keys of each provider section that set its `HttpEndpoint`
_ENDPOINT_KEYS = {
    "url": _Key(str, ""),
    "timeout": _Key(float, HttpEndpoint.timeout, 0, strict=True),  # 0: a non-blocking socket
    "retries": _Key(int, HttpEndpoint.retries, 0),
    "token_env": _Key(str, HttpEndpoint.token_env),
}
# every key of the run config, by its dotted name
_KEYS = {
    "registry": _Key(Path),  # default: the bundled registry
    "corpus_dir": _Key(Path),
    "output_dir": _Key(Path, "out"),
    "mode": _Key(str, "offline"),
    "arm": _Key(str, DEFAULT_ARM),
    "labels": _Key(Path),
    "jobs": _Key(int, 1, 1),
    "value_match_rel_tol": _Key(float, None, 0),  # below 0 an exact value would miss
    "retrieval.k": _Key(int, agent.ExtractConfig.top_k, 1),
    "retrieval.m": _Key(int, agent.ExtractConfig.rerank_m, 0),
    "retrieval.budget_chars": _Key(int, agent.ExtractConfig.budget_chars, MIN_BUDGET_CHARS),
    "chunking.max_chars": _Key(int, kbmod.BuildConfig.max_chars, kbmod.MIN_CHUNK_CHARS),
    "chunking.summary_sentences": _Key(int, kbmod.BuildConfig.summary_sentences, 1),
    "chunking.naive_chunk_chars": _Key(int, kbmod.BuildConfig.naive_chunk_chars, 1),
    "providers.embedding.dim": _Key(int, DEFAULT_DIM, 1),
    "providers.chat.replies": _Key(Path),
    **{f"providers.{name}.kind": _Key(str) for name in _PROVIDER_KINDS},
    **{
        f"providers.{name}.{key}": spec
        for name in _PROVIDER_KINDS
        for key, spec in _ENDPOINT_KEYS.items()
    },
}
# every key, and every mapping that holds keys: retrieval, providers, providers.chat, ...
_NAMES = _KEYS.keys() | {key[:i] for key in _KEYS for i, char in enumerate(key) if char == "."}


@dataclass
class RunConfig:
    base_dir: Path
    registry_path: Path | None
    corpus_dir: Path | None
    output_dir: Path
    mode: str
    arm: str
    labels_path: Path | None
    jobs: int
    rel_tol: float | None
    pipeline: PipelineConfig  # retrieval and KB build sizes; `pipeline_config` sets the arm
    embedding_dim: int
    mock_replies: Path | None
    endpoints: dict[str, HttpEndpoint]  # one per embedding, chat and rerank section
    snapshot: dict = field(default_factory=dict)


def _given(raw: dict, path: Path, section: str = "") -> Iterator[tuple[str, object]]:
    """Each key that `raw`, the config or its `section`, sets, by its
    dotted name, with its value as written; a null section is empty."""
    prefix = f"{section}." if section else ""
    unknown = [name for name in raw if "." in str(name) or f"{prefix}{name}" not in _NAMES]
    if unknown:
        where = f"{section} " if section else ""
        raise ConfigError(f"config {path}: unknown {where}keys {sorted(unknown, key=str)}")
    for name, value in raw.items():
        key = f"{prefix}{name}"
        if key in _KEYS:
            yield key, value
        elif isinstance(value, dict):
            yield from _given(value, path, key)
        elif value is not None:
            raise ConfigError(f"config {path}: {key} must be a mapping")


def _value(key: str, value: object, base: Path, path: Path) -> object:
    """What `key` holds when the config at `path` gives it `value` (None
    where it gives none). An int key takes an int or an integral float, a
    float key any number; YAML's true and false are no numbers."""
    spec = _KEYS[key]
    if value is None or (spec.type is Path and value == ""):  # "" names no path
        value = spec.default
    if value is None or spec.type is str:
        return value if value is None else str(value)
    if spec.type is Path:
        return base / str(value)  # an absolute path stays as it is
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{value!r} is not a number")
        number = spec.type(value)  # int() of inf or nan raises
        if number != value and spec.type is int:
            raise ValueError(f"{value!r} is not an integer")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config {path}: malformed number: {exc}") from None
    if not (spec.least < number if spec.strict else spec.least <= number) or number == math.inf:
        raise ConfigError(
            f"config {path}: {key} must be {'>' if spec.strict else '>='} {spec.least} "
            f"and finite, got {number}"
        )
    return number


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")

    base = path.parent
    given = dict(_given(raw, path))
    values = {key: _value(key, given.get(key), base, path) for key in _KEYS}
    mode, arm = values["mode"], values["arm"]
    if mode not in {"offline", "online"}:
        raise ConfigError(f"config {path}: mode must be offline or online, got {mode!r}")
    for name, kinds in _PROVIDER_KINDS.items():
        url, kind = values[f"providers.{name}.url"], values[f"providers.{name}.kind"]
        if mode == "offline" and given.get(f"providers.{name}.url") is not None:
            raise ConfigError(
                f"config {path}: offline mode forbids provider urls (found one under {name!r})"
            )
        if mode == "online" and name in ("embedding", "chat") and not url:
            raise ConfigError(f"config {path}: online mode requires a url for {name!r}")
        # never echoed: the url may hold a password
        try:
            userinfo = "@" in urllib.parse.urlsplit(url).netloc
        except ValueError:  # an unclosed "[" in the host
            raise ConfigError(f"config {path}: providers.{name}.url is not a valid URL") from None
        if userinfo:
            raise ConfigError(
                f"config {path}: providers.{name}.url must not hold credentials (user info "
                f"before '@'); set providers.{name}.token_env to the variable with the token"
            )
        runs = kinds[1] if mode == "online" and url else kinds[0]
        if kind in (None, runs):
            continue
        if kind not in kinds:
            raise ConfigError(
                f"config {path}: providers.{name}.kind must be one of {list(kinds)}, "
                f"got {kind!r}"
            )
        raise ConfigError(
            f"config {path}: providers.{name}.kind is {kind!r}, but {mode} mode "
            f"{'with' if url else 'without'} a url runs {runs!r}"
        )
    if arm != "all" and arm not in ABLATION_ARMS:
        raise ConfigError(
            f"config {path}: arm must be one of {sorted(ABLATION_ARMS)} or 'all'"
        )

    return RunConfig(
        base_dir=base, registry_path=values["registry"], corpus_dir=values["corpus_dir"],
        output_dir=values["output_dir"], mode=mode, arm=arm, labels_path=values["labels"],
        jobs=values["jobs"], rel_tol=values["value_match_rel_tol"],
        pipeline=PipelineConfig(
            extract=agent.ExtractConfig(
                top_k=values["retrieval.k"], rerank_m=values["retrieval.m"],
                budget_chars=values["retrieval.budget_chars"],
            ),
            kb_build=kbmod.BuildConfig(
                max_chars=values["chunking.max_chars"],
                summary_sentences=values["chunking.summary_sentences"],
                naive_chunk_chars=values["chunking.naive_chunk_chars"],
            ),
        ),
        embedding_dim=values["providers.embedding.dim"],
        mock_replies=values["providers.chat.replies"],
        endpoints={
            name: HttpEndpoint(**{k: values[f"providers.{name}.{k}"] for k in _ENDPOINT_KEYS})
            for name in _PROVIDER_KINDS
        },
        snapshot=raw,
    )


def load_registry_for(config: RunConfig) -> metadata.MetadataRegistry:
    path = config.registry_path or metadata.bundled_registry_path()
    if not Path(path).exists():
        raise ConfigError(f"registry file not found: {path}")
    return metadata.load_registry(path)


def build_providers(config: RunConfig) -> ProviderSet:
    endpoints = config.endpoints
    if config.mode == "online":
        embedder = HttpEmbedder(endpoints["embedding"], dim=config.embedding_dim)
        chat = HttpChatProvider(endpoints["chat"])
        rerank = endpoints.get("rerank")
        reranker = HttpReranker(rerank) if rerank and rerank.url else JaccardReranker()
    else:
        embedder = HashEmbedder(dim=config.embedding_dim)
        if config.mock_replies:
            chat = MockChatProvider.from_file(config.mock_replies)
        else:
            logger.warning("no mock replies configured; chat will refuse everything")
            chat = MockChatProvider([])
        reranker = JaccardReranker()
    return ProviderSet(embedder=embedder, chat=chat, reranker=reranker)


def pipeline_config(config: RunConfig, arm_id: str) -> PipelineConfig:
    return replace(config.pipeline, arm=ablation_arm(arm_id))


def write_atomic(path: Path, write: str | Callable[[Path], object]) -> None:
    """Write `path` whole or not at all: `write`, the text or a function
    that writes the path it is given, fills a `.tmp` sibling, which then
    replaces `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(write, str):
        tmp.write_text(write, encoding="utf-8")
    else:
        write(tmp)
    os.replace(tmp, path)


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o in (math.inf, -math.inf):
        return "Infinity" if o > 0 else "-Infinity"
    return float.__repr__(o)


# the JSON text of a scalar of each type, in the order json tells them apart
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    type(None): lambda o: "null",
    bool: lambda o: "true" if o else "false",
    int: int.__repr__,
    float: _float_text,
}


def _scalar_text(o: object) -> str | None:
    """The JSON text of a scalar, of a subclass too; None for anything else."""
    for kind, text in _SCALAR_TEXT.items():
        if isinstance(o, kind):
            return text(o)
    return None


def _key_text(key: object) -> str:
    """json writes an int, float, bool or None key as its value's text, quoted."""
    text = _scalar_text(key)
    if text is None:
        kind = key.__class__.__name__
        raise TypeError(f"keys must be str, int, float, bool or None, not {kind}")
    return text if isinstance(key, str) else encode_basestring_ascii(text)


def _write_indented(o: object, newline: str, out: Callable[[str], object]) -> None:
    """Appends o's text to `out`, each item of a container on a line of its
    own after `newline` and two more spaces."""
    inner = newline + "  "
    if isinstance(o, dict) and o:
        sep = "{" + inner
        for key, value in o.items():
            sep += (encode_basestring_ascii(key) if type(key) is str else _key_text(key)) + ": "
            text = _SCALAR_TEXT.get(type(value))
            if text is None:
                out(sep)
                _write_indented(value, inner, out)
            else:
                out(sep + text(value))
            sep = "," + inner
        out(newline + "}")
    elif isinstance(o, (list, tuple)) and o:
        sep = "[" + inner
        for value in o:
            text = _SCALAR_TEXT.get(type(value))
            if text is None:
                out(sep)
                _write_indented(value, inner, out)
            else:
                out(sep + text(value))
            sep = "," + inner
        out(newline + "]")
    elif isinstance(o, (dict, list, tuple)):
        out("{}" if isinstance(o, dict) else "[]")
    elif (text := _scalar_text(o)) is not None:
        out(text)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def dumps_indented(obj: object) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, in about a third of
    its time: with an indent json runs its pure-Python encoder, one
    generator per container, while this walks the containers and turns
    each scalar into text with one call."""
    parts: list[str] = []
    _write_indented(obj, "\n", parts.append)
    return "".join(parts)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def corpus_files(config: RunConfig) -> list[Path]:
    if config.corpus_dir is None:
        raise ConfigError("config has no corpus_dir")
    if not config.corpus_dir.is_dir():
        raise ConfigError(f"corpus_dir not found: {config.corpus_dir}")
    return sorted(
        p
        for p in config.corpus_dir.iterdir()
        if p.is_file() and p.suffix.lower() in CORPUS_SUFFIXES
    )


def kb_cache_path(
    config: RunConfig, key: str, providers: ProviderSet, pcfg: PipelineConfig
) -> Path:
    """One file per (document, given by its cache key from `_fingerprint`;
    embedder; mode; the mode's build parameters in `pcfg.kb_build`, the
    ones the build reads: chunk size, plus summary length for structured
    KBs)."""
    build = pcfg.kb_build
    if pcfg.arm.use_structured_preprocessing:
        mode, params = "structured", f"{build.max_chars}-s{build.summary_sentences}"
    else:
        mode, params = "naive", str(build.naive_chunk_chars)
    name = f"{key[:16]}-{providers.embedder.name}-{mode}-{params}.json"
    return config.output_dir / "kb_cache" / name


_KB_CACHE_NAME_RE = re.compile(r"([0-9a-f]{16})-.+\.json")
# the first byte after the ASCII whitespace that `bytes.lstrip` strips
_LEAD_BYTE_RE = re.compile(rb"[ \t\n\r\x0b\x0c]*([^ \t\n\r\x0b\x0c])")


def _prune(directory: Path, stale: Callable[[str], bool]) -> int:
    """Deletes each file in `directory` whose name is `stale` and returns
    how many it deleted."""
    if not directory.is_dir():
        return 0
    paths = [path for path in directory.iterdir() if stale(path.name) and path.is_file()]
    for path in paths:
        path.unlink()
    return len(paths)


def prune_kb_cache(config: RunConfig, keys: set[str]) -> int:
    """Deletes each `kb_cache/` file whose key prefix is that of none of
    `keys`, whatever its embedder, mode and build parameters, and returns
    how many it deleted."""
    prefixes = {key[:16] for key in keys}

    def stale(name: str) -> bool:
        match = _KB_CACHE_NAME_RE.fullmatch(name)
        return bool(match) and match[1] not in prefixes

    return _prune(config.output_dir / "kb_cache", stale)


def prune_kb_dir(config: RunConfig, doc_ids: set[str]) -> int:
    """Deletes each `kb/<doc_id>.kb.json` file whose doc_id is none of
    `doc_ids` and returns how many it deleted."""
    suffix = ".kb.json"
    return _prune(
        config.output_dir / "kb",
        lambda name: name.endswith(suffix) and name[: -len(suffix)] not in doc_ids,
    )


def build_or_load_kb(
    load_doc: Callable[[], docmodel.StructuredDocument],
    key: str,
    providers: ProviderSet,
    pcfg: PipelineConfig,
    config: RunConfig,
) -> kbmod.KnowledgeBase:
    """The KB of the corpus file with cache key `key`: loaded from
    `kb_cache/`, or, on a miss or a stale file, built from `load_doc()`
    and cached. Only a miss parses the document."""
    cache = kb_cache_path(config, key, providers, pcfg)
    if cache.exists():
        try:
            return kbmod.load(cache)
        except KnowledgeBaseError as exc:
            logger.warning("stale KB cache %s: %s; rebuilding", cache.name, exc)
    built = build_document_kb(load_doc(), providers, pcfg)
    write_atomic(cache, partial(kbmod.save, built))
    return built


def write_manifest(
    config: RunConfig,
    providers: dict[str, str],
    corpus_inputs: dict[str, str],
    read: Sequence[Path],
    written: Sequence[Path],
    started: str,
    arm: str,
) -> None:
    """`manifest.json`: the run's parameters, the sha256 of every input
    (the corpus files, already hashed as they were read, the registry and
    the files in `read`) and of every file in `written`."""
    registry_path = Path(config.registry_path or metadata.bundled_registry_path())
    inputs = {
        **corpus_inputs,
        **{str(path): sha256_file(path) for path in (registry_path, *read)},
    }
    manifest = {
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "arm": arm,
        "mode": config.mode,
        "providers": providers,
        "config": config.snapshot,
        "inputs_sha256": inputs,
        "outputs_sha256": {str(path): sha256_file(path) for path in written},
    }
    write_atomic(config.output_dir / "manifest.json", dumps_indented(manifest) + "\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _print_plan(title: str, items: dict[str, object]) -> None:
    print(f"dry-run: {title}")
    for key, value in items.items():
        print(f"  {key}: {value}")


def _fingerprint(path: Path) -> tuple[str, str]:
    """A corpus file's sha256 and its KB cache key: the sha256 itself for
    JSON, which declares its doc_id; for markdown and plain text, whose
    doc_id is the file name (`docmodel.name_doc_id`), a hash of both. The
    bytes are dropped on return. The file is decoded only when the first
    byte after its leading ASCII whitespace is not enough to decide, as
    `str.lstrip` also strips `\\x1c`-`\\x1f` and non-ASCII spaces."""
    data = path.read_bytes()
    sha256 = hashlib.sha256(data).hexdigest()
    lead = _LEAD_BYTE_RE.match(data)
    head = lead.group(1) if lead else b""
    if head >= b"\x80" or b"\x1c" <= head <= b"\x1f":
        named = docmodel.name_doc_id(path, data.decode("utf-8", errors="replace"))
    else:
        named = docmodel.name_doc_id(path, head.decode("ascii"))
    if named is None:
        return sha256, sha256
    return sha256, hashlib.sha256(os.fsencode(f"{sha256}/{named}")).hexdigest()


class _Unparsed(Exception):
    """A corpus file that `docmodel.ingest` rejects; the run skips it."""


@dataclass
class CorpusDocument:
    """One corpus file that gave a document. `doc` is set when the file
    was parsed for its own sake, `kb` when its KB was sourced; a KB from
    the cache leaves `doc` None, as the file was never parsed."""

    path: Path
    sha256: str
    key: str  # of its KB in the cache: see `_fingerprint`
    doc_id: str | None = None
    doc: docmodel.StructuredDocument | None = None
    kb: kbmod.KnowledgeBase | None = None


class Corpus:
    """The corpus files of one command, read in path order, one document
    at a time, each file hashed once. A file that does not parse is
    skipped, with one message in `skipped`; a doc_id seen before raises
    DocumentError before its document is used. `inputs` maps the path of
    each file that gave a document, in path order, to its sha256; `keys`
    holds the KB cache key of every file read, parsed or not."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.skipped: list[str] = []
        self.inputs: dict[str, str] = {}
        self.keys: set[str] = set()

    def documents(self) -> list[docmodel.StructuredDocument]:
        """Every document, parsed, in doc_id order."""
        return sorted((item.doc for item in self._read(None)), key=lambda d: d.doc_id)

    def sourced(self, providers: ProviderSet, pcfg: PipelineConfig) -> Iterator[CorpusDocument]:
        """Each document with its `pcfg` KB from `build_or_load_kb`, so
        only a cache miss parses the file. A hit takes the doc_id from
        the KB's scope."""
        return self._read((providers, pcfg))

    def _read(
        self, kb_source: tuple[ProviderSet, PipelineConfig] | None
    ) -> Iterator[CorpusDocument]:
        seen: set[str] = set()

        def claim(item: CorpusDocument, doc_id: str) -> None:
            if doc_id in seen:
                raise DocumentError(f"duplicate doc_id {doc_id!r} in corpus")
            seen.add(doc_id)
            item.doc_id = doc_id

        for path in corpus_files(self.config):
            try:
                item = CorpusDocument(path, *_fingerprint(path))
            except OSError as exc:
                self._skip(path, DocumentError(f"cannot read {path}: {exc}"))
                continue
            self.keys.add(item.key)

            def ingest(item: CorpusDocument = item) -> docmodel.StructuredDocument:
                try:
                    doc = docmodel.ingest(item.path)
                except DocumentError as exc:
                    raise _Unparsed(exc) from exc
                claim(item, doc.doc_id)
                return doc

            try:
                if kb_source is None:
                    item.doc = ingest()
                else:
                    item.kb = build_or_load_kb(ingest, item.key, *kb_source, self.config)
            except _Unparsed as exc:
                self._skip(path, exc)
                continue
            if item.doc_id is None:  # the KB came from the cache
                claim(item, item.kb.scope)
            self.inputs[str(path)] = item.sha256
            yield item

    def _skip(self, path: Path, exc: Exception) -> None:
        logger.warning("skipping %s: %s", path, exc)
        self.skipped.append(f"{path.name}: {exc}")


def _take_kb(item: CorpusDocument, _cfg: PipelineConfig) -> kbmod.KnowledgeBase:
    """The KB sourced with `item`, handed over once, so that it is freed
    with the runner's other state for that document."""
    kb, item.kb = item.kb, None
    return kb


def extract_arm(
    config: RunConfig,
    registry: metadata.MetadataRegistry,
    providers: ProviderSet,
    arm_id: str,
) -> tuple[list[agent.ExtractionRecord], Corpus]:
    """`arm_id` over the corpus, for `extract` and a fresh single-arm
    `evaluate`: each KB is sourced through the disk cache as its document
    comes up, in path order, and the first document that fails aborts the
    run with its error. Writes `records.jsonl`, in doc_id order; returns
    the records and the corpus read."""
    pcfg = pipeline_config(config, arm_id)
    corpus = Corpus(config)
    records: list[agent.ExtractionRecord] = []
    for result in run_corpus(
        corpus.sourced(providers, pcfg),
        registry,
        providers,
        pcfg,
        [pcfg.arm],
        jobs=config.jobs,
        source_kb=_take_kb,
    ):
        if result.errors:
            raise result.errors[arm_id]
        records.extend(result.records[arm_id])
    _require_documents(corpus)
    write_atomic(config.output_dir / "records.jsonl", partial(agent.write_records, records))
    return records, corpus


def _require_documents(corpus: Corpus) -> None:
    if not corpus.inputs:
        raise DocumentError("no documents ingested")


def _print_skipped(skipped: Sequence[str]) -> None:
    for msg in skipped:
        print(f"skipped {msg}")
    if skipped:
        print(f"warnings: {len(skipped)} document(s) skipped")


def _write_reports(
    reports: Sequence[evaluation.EvaluationReport], paths: Sequence[Path], table_path: Path
) -> None:
    """Each report's JSON at its path, then the arms' comparison table at
    `table_path` and on stdout."""
    for report, path in zip(reports, paths):
        write_atomic(path, dumps_indented(evaluation.report_to_json(report)) + "\n")
    table = evaluation.comparison_table(reports)
    write_atomic(table_path, table + "\n")
    print(table)


# --- subcommands ---


def cmd_ingest(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    if args.dry_run:
        files = corpus_files(config)
        _print_plan("ingest", {"corpus_dir": config.corpus_dir, "files": len(files)})
        return EXIT_OK
    corpus = Corpus(config)
    docs = corpus.documents()
    out_dir = config.output_dir / "structured"
    for doc in docs:
        write_atomic(out_dir / f"{doc.doc_id}.json", docmodel.serialize(doc))
    print(f"ingested {len(docs)} documents into {out_dir}")
    _print_skipped(corpus.skipped)
    _require_documents(corpus)
    return EXIT_OK


def cmd_build_kb(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    arm_id = args.arm or (DEFAULT_ARM if config.arm == "all" else config.arm)
    files = corpus_files(config)
    providers = build_providers(config)
    pcfg = pipeline_config(config, arm_id)
    if args.dry_run:
        _print_plan(
            "build-kb",
            {
                "corpus_dir": config.corpus_dir,
                "files": len(files),
                "arm": arm_id,
                "embedder": providers.embedder.name,
            },
        )
        return EXIT_OK
    corpus = Corpus(config)
    doc_ids = set()
    for item in corpus.sourced(providers, pcfg):
        # the cache file already holds the saved, byte-reproducible form
        cached = kb_cache_path(config, item.key, providers, pcfg)
        write_atomic(
            config.output_dir / "kb" / f"{item.doc_id}.kb.json", partial(shutil.copyfile, cached)
        )
        doc_ids.add(item.doc_id)
        print(f"{item.doc_id}: {item.kb.counts()}")
    for where, pruned in (
        ("kb_cache", prune_kb_cache(config, corpus.keys)),
        ("kb/", prune_kb_dir(config, doc_ids)),
    ):
        if pruned:
            print(f"pruned {pruned} {where} file(s) of documents no longer in the corpus")
    _print_skipped(corpus.skipped)
    _require_documents(corpus)
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    arm_id = args.arm or (DEFAULT_ARM if config.arm == "all" else config.arm)
    registry = load_registry_for(config)
    providers = build_providers(config)
    records_path = config.output_dir / "records.jsonl"
    if args.dry_run:
        _print_plan(
            "extract",
            {
                "corpus_dir": config.corpus_dir,
                "arm": arm_id,
                "mode": config.mode,
                "providers": providers.names(),
                "output": records_path,
            },
        )
        return EXIT_OK
    started = _utc_now()
    records, corpus = extract_arm(config, registry, providers, arm_id)
    write_manifest(config, providers.names(), corpus.inputs, [], [records_path], started, arm_id)
    print(f"wrote {len(records)} records for {len(corpus.inputs)} documents to {records_path}")
    _print_skipped(corpus.skipped)
    return EXIT_OK


def _labels_path(config: RunConfig, args: argparse.Namespace) -> Path:
    labels = getattr(args, "labels", None) or config.labels_path
    if labels is None:
        raise EvaluationError("no labels file configured (use --labels or config 'labels')")
    labels = Path(labels)
    if not labels.exists():
        raise EvaluationError(f"labels file not found: {labels}")
    return labels


def _other_arm(config: RunConfig, records_path: Path, arm_id: str) -> str | None:
    """The single arm, other than `arm_id`, whose run wrote or read
    `records_path` as it is now, if `output_dir/manifest.json` names the
    file with its sha256."""
    try:
        manifest = json.loads((config.output_dir / "manifest.json").read_text(encoding="utf-8"))
        arm, digests = manifest["arm"], {**manifest["inputs_sha256"], **manifest["outputs_sha256"]}
    except (OSError, ValueError, TypeError, KeyError):  # no manifest of ours
        return None
    if not isinstance(arm, str) or arm not in ABLATION_ARMS or arm == arm_id:
        return None
    target = os.path.abspath(records_path)
    named = [digest for name, digest in digests.items() if os.path.abspath(name) == target]
    return arm if named and sha256_file(records_path) in named else None


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    registry = load_registry_for(config)
    arm_id = args.arm or config.arm
    if arm_id == "all":
        if getattr(args, "records", None):  # ablate has no --records
            raise ConfigError("--records holds one arm's records; it cannot go with arm 'all'")
        return _run_ablation_command(args, config, registry)
    ablation_arm(arm_id)  # an unknown arm stops here, recorded records or not
    records_path = Path(args.records) if args.records else config.output_dir / "records.jsonl"
    if args.records and not records_path.exists():
        raise ConfigError(f"records file not found: {records_path}")
    recorded = _other_arm(config, records_path, arm_id) if records_path.exists() else None
    if recorded:
        raise ConfigError(
            f"{records_path} holds the records of arm {recorded!r} (by "
            f"{config.output_dir / 'manifest.json'}), not of arm {arm_id!r}"
        )

    labels_file = _labels_path(config, args)
    if args.dry_run:
        _print_plan(
            "evaluate",
            {"labels": labels_file, "arm": arm_id, "records": args.records or "fresh run"},
        )
        return EXIT_OK
    started = _utc_now()
    labels = evaluation.load_labels(labels_file, registry)

    if records_path.exists():
        records = agent.load_records(records_path)
        if not records:
            raise EvaluationError(f"no records to evaluate in {records_path}")
        provider_name, provider_names = "recorded", {}
        corpus_inputs, skipped, read, written = {}, [], [records_path, labels_file], []
    else:
        providers = build_providers(config)
        records, corpus = extract_arm(config, registry, providers, arm_id)
        provider_name, provider_names = providers.chat.name, providers.names()
        corpus_inputs, skipped, read, written = (
            corpus.inputs, corpus.skipped, [labels_file], [records_path]
        )

    by_doc: dict[str, list[agent.ExtractionRecord]] = {}
    for r in records:
        by_doc.setdefault(r.doc_id, []).append(r)
    missing = sorted(set(by_doc) - set(labels))
    if missing:
        raise EvaluationError(f"records reference documents without labels: {missing}")
    report = evaluation.evaluate_arm(
        arm_id, provider_name, sorted(by_doc.items()), labels, registry, config.rel_tol
    )
    report_path, table_path = config.output_dir / "report.json", config.output_dir / "report.txt"
    _write_reports([report], [report_path], table_path)
    written += [report_path, table_path]
    write_manifest(config, provider_names, corpus_inputs, read, written, started, arm_id)
    _print_skipped(skipped)
    return EXIT_OK


def _run_ablation_command(
    args: argparse.Namespace, config: RunConfig, registry: metadata.MetadataRegistry
) -> int:
    labels_file = _labels_path(config, args)
    if args.dry_run:
        _print_plan(
            "ablate",
            {
                "labels": labels_file,
                "arms": sorted(ABLATION_ARMS),
                "corpus_dir": config.corpus_dir,
            },
        )
        return EXIT_OK
    started = _utc_now()
    labels = evaluation.load_labels(labels_file, registry)
    providers = build_providers(config)
    corpus = Corpus(config)
    docs = corpus.documents()
    _require_documents(corpus)

    arms = [ABLATION_ARMS[a] for a in ("benchmark", "enhanced_rag", "enhanced_rag_knowledge")]
    records_sink: dict[str, list[agent.ExtractionRecord]] = {}
    reports = evaluation.run_ablation(
        docs,
        registry,
        labels,
        arms,
        providers,
        pipeline_config(config, DEFAULT_ARM),
        records_sink=records_sink,
        rel_tol=config.rel_tol,
        jobs=config.jobs,
    )

    out = config.output_dir
    record_paths = [out / f"records-{arm_id}.jsonl" for arm_id in records_sink]
    for path, records in zip(record_paths, records_sink.values()):
        write_atomic(path, partial(agent.write_records, records))
    report_paths = [out / f"report-{report.config_id}.json" for report in reports]
    _write_reports(reports, report_paths, out / "comparison.txt")
    written = [*record_paths, *report_paths, out / "comparison.txt"]
    write_manifest(config, providers.names(), corpus.inputs, [labels_file], written, started, "all")

    for report in reports:
        for err in report.errors:
            print(f"warning [{report.config_id}]: {err}")
    _print_skipped(corpus.skipped)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    registry = load_registry_for(config)
    records_path = Path(args.records) if args.records else config.output_dir / "records.jsonl"
    if args.dry_run:
        _print_plan("analyze", {"records": records_path, "corpus_dir": config.corpus_dir})
        return EXIT_OK
    if not records_path.exists():
        raise ConfigError(f"records file not found: {records_path} (run extract first)")
    records = agent.load_records(records_path)
    docs = Corpus(config).documents()

    overall = analytics.disclosure_stats(records, registry, "overall")
    by_industry = analytics.disclosure_stats(records, registry, "by-industry", docs)
    intensity = analytics.emission_intensity(records, docs)
    industry_intensity = analytics.industry_mean_intensity(intensity, docs)
    frequencies = analytics.key_action_frequencies(records)

    payload = analytics.stats_to_json(overall + by_industry, intensity, frequencies)
    payload["industry_intensity"] = {
        industry: {"scope1": s1, "scope2": s2}
        for industry, (s1, s2) in industry_intensity.items()
    }
    out_dir = config.output_dir / "analysis"
    write_atomic(out_dir / "analysis.json", dumps_indented(payload) + "\n")

    def write_csv(name: str, rows: list[list[str]]) -> None:
        # csv quotes a cell that holds a comma, a quote or "\n", but not
        # one whose only line break is "\r": such a row has every cell quoted
        text = io.StringIO()
        plain = csv.writer(text, lineterminator="\n")
        quoted = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in rows:
            (quoted if any("\r" in cell for cell in row) else plain).writerow(row)
        write_atomic(out_dir / name, text.getvalue())

    write_csv("disclosure.csv", analytics.disclosure_csv_rows(overall + by_industry))
    write_csv("intensity.csv", analytics.intensity_csv_rows(intensity))
    write_csv("key_actions.csv", analytics.frequency_csv_rows(frequencies))
    print(f"wrote analysis for {len(records)} records to {out_dir}")
    return EXIT_OK


def cmd_metadata(args: argparse.Namespace) -> int:
    path = Path(args.registry) if args.registry else metadata.bundled_registry_path()
    if not path.exists():
        raise ConfigError(f"registry file not found: {path}")
    if args.metadata_command == "validate":
        registry = metadata.load_registry(path)
        print(f"ok: {registry.standard_name}, {len(registry)} indicators, "
              f"{len(registry.expressions)} expressions")
        return EXIT_OK
    registry = metadata.load_registry(path)
    table = metadata.count_table(registry)
    if args.json:
        payload = {
            "standard_name": registry.standard_name,
            "total": len(registry),
            "counts": {f"{cat}/{kind}": n for (cat, kind), n in sorted(table.items())},
        }
        print(dumps_indented(payload))
        return EXIT_OK
    print(f"standard: {registry.standard_name}")
    print(f"indicators: {len(registry)}")
    print(f"{'category':<10} {'kind':<10} {'count':>5}")
    for (cat, kind), n in sorted(table.items()):
        print(f"{cat:<10} {kind:<10} {n:>5}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esgpipe",
        description="Metadata-driven extraction of ESG disclosure records from reports",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--dry-run", action="store_true", help="print the plan, change nothing")

    p = sub.add_parser("ingest", help="parse corpus files into structured documents")
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-kb", help="build per-document knowledge bases")
    add_common(p)
    p.add_argument("--arm", choices=sorted(ABLATION_ARMS), help="pipeline arm")
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("extract", help="extract records for every registry indicator")
    add_common(p)
    p.add_argument("--arm", choices=sorted(ABLATION_ARMS), help="pipeline arm")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="score records against labels")
    add_common(p)
    p.add_argument("--labels", help="labels file (overrides config)")
    p.add_argument("--records", help="existing records file (default: output_dir/records.jsonl)")
    p.add_argument("--arm", help="arm id or 'all' for the three-arm comparison")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="run all three pipeline arms and compare")
    add_common(p)
    p.add_argument("--labels", help="labels file (overrides config)")
    p.set_defaults(func=cmd_evaluate, arm="all")  # ablate is evaluate over every arm

    p = sub.add_parser("analyze", help="disclosure, intensity and key-action analytics")
    add_common(p)
    p.add_argument("--records", help="records file (default: output_dir/records.jsonl)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("metadata", help="registry utilities")
    msub = p.add_subparsers(dest="metadata_command", required=True)
    for name in ("validate", "stats"):
        mp = msub.add_parser(name)
        mp.add_argument("--registry", help="registry path (default: bundled)")
        mp.add_argument("--dry-run", action="store_true")
        if name == "stats":
            mp.add_argument("--json", action="store_true", help="machine-readable output")
        mp.set_defaults(func=cmd_metadata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProviderError as exc:
        print(f"error: provider unreachable: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (DocumentError, EvaluationError, AnalyticsError, KnowledgeBaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PipelineError as exc:  # anything else from this package
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
