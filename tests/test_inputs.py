"""Each loader of untrusted input against one value of a valid file of its
kind replaced by a value of another type (`fuzzing.REPLACEMENTS`): the
loader returns the documented value or raises its documented error class,
never a bare TypeError, KeyError or AttributeError, and `cli.main` runs
the command that reads the file to an exit code, with no traceback."""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from esgpipe import agent, cli, docmodel, evaluation, kb as kbmod, metadata
from esgpipe.errors import (
    ConfigError,
    DocumentError,
    EvaluationError,
    KnowledgeBaseError,
    ProviderError,
    RegistryError,
)
from esgpipe.pipeline import DEFAULT_ARM
from esgpipe.providers import MockChatProvider
from tests import fuzzing


def _json_lines(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _write_json_lines(path: Path, values: list) -> None:
    path.write_text("".join(json.dumps(v) + "\n" for v in values), encoding="utf-8")


def _kb_header(path: Path) -> tuple[dict, bytes]:
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header), body


class _Files(tuple):
    """The workspace, the valid values and the cached KB path; its repr
    is short, as hypothesis prints the arguments of a failing example."""

    def __repr__(self) -> str:
        return f"<inputs in {self[0]}>"


@pytest.fixture(scope="module")
def one_doc(tmp_path_factory, fixture_root):
    """A workspace of the fixture's doc00 alone, with its records and a
    cached KB from one `extract`, and the valid value of each kind of file."""
    ws = tmp_path_factory.mktemp("inputs")
    (ws / "corpus").mkdir()
    layout = json.loads((fixture_root / "corpus" / "doc00.json").read_text(encoding="utf-8"))
    # in the bytes `_write` restores it to, so its KB cache file keeps its name
    (ws / "corpus" / "doc00.json").write_text(json.dumps(layout), encoding="utf-8")
    labels = [o for o in _json_lines(fixture_root / "labels.jsonl") if o["doc_id"] == "doc00"]
    _write_json_lines(ws / "labels.jsonl", labels)
    replies = json.loads((fixture_root / "mock_replies.json").read_text(encoding="utf-8"))
    replies["replies"] = [r for r in replies["replies"] if r["doc_id"] == "doc00"][:6]
    (ws / "mock_replies.json").write_text(json.dumps(replies), encoding="utf-8")
    config = {
        **yaml.safe_load((fixture_root / "config.yaml").read_text(encoding="utf-8")),
        "arm": "enhanced_rag_knowledge", "jobs": 1, "value_match_rel_tol": 0.0,
        "retrieval": {"k": 5, "m": 10, "budget_chars": 6000},
        "providers": {"embedding": {"kind": "offline", "dim": 256},
                      "chat": {"kind": "mock", "replies": "mock_replies.json", "timeout": 30.0,
                               "retries": 2, "token_env": "ESGPIPE_API_TOKEN"}},
    }
    (ws / "config.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        assert cli.main(["extract", "--config", str(ws / "config.yaml")]) == 0
    records = _json_lines(ws / "out" / "records.jsonl")
    shutil.copy(ws / "out" / "records.jsonl", ws / "records.jsonl")
    [cached] = (ws / "out" / "kb_cache").iterdir()
    structured = json.loads(docmodel.serialize(docmodel.ingest(ws / "corpus" / "doc00.json")))
    valid = {
        "layout": layout,
        "structured": structured,
        "registry": json.loads(metadata.bundled_registry_path().read_text(encoding="utf-8")),
        "labels": labels[0],
        "replies": replies,
        "config": config,
        "records": records[0],
        "kb header": _kb_header(cached)[0],
    }
    return _Files((ws, valid, cached))


def _write(ws: Path, kind: str, value: object, cached: Path) -> tuple[Path, list[str]]:
    """Writes `value` as the file of `kind` in `ws`; returns its path and
    the command that reads it."""
    cfg = str(ws / "config.yaml")
    if kind in ("layout", "structured"):
        path = ws / "corpus" / "doc00.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        return path, ["ingest", "--config", cfg]
    if kind == "registry":
        path = ws / "registry.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        return path, ["metadata", "validate", "--registry", str(path)]
    if kind == "labels":
        path = ws / "labels-mutated.jsonl"
        _write_json_lines(path, [value])
        return path, ["evaluate", "--config", cfg, "--labels", str(path),
                      "--records", str(ws / "records.jsonl")]
    if kind == "replies":
        path = ws / "mock_replies.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        return path, ["extract", "--config", cfg]
    if kind == "config":
        path = ws / "config-mutated.yaml"
        path.write_text(yaml.safe_dump(value), encoding="utf-8")
        return path, ["extract", "--dry-run", "--config", str(path)]
    if kind == "records":
        path = ws / "records-mutated.jsonl"
        good = (ws / "records.jsonl").read_text(encoding="utf-8")
        path.write_text(good + json.dumps(value) + "\n", encoding="utf-8")
        return path, ["analyze", "--config", cfg, "--records", str(path)]
    path = cached  # the KB header: the cache file that `build-kb` loads
    path.write_bytes(json.dumps(value, separators=(",", ":")).encode("utf-8") + b"\n"
                     + _kb_header(cached)[1])
    return path, ["build-kb", "--config", cfg]


def _check_document(doc: docmodel.StructuredDocument, written: dict) -> None:
    fields = (doc.doc_id, doc.company, doc.industry)
    assert fields == (written["doc_id"], written["company"], written["industry"])
    assert all(type(x) is str for x in fields)
    assert doc.market_cap_mhkd is None or type(doc.market_cap_mhkd) is float
    assert all(type(b.text) is str and type(b.page) is int for b in doc.blocks)
    for t in doc.tables:
        assert type(t.table_id) is str and all(type(c) is str for row in t.cells for c in row)
    assert all(type(n.title) is str and type(n.level) is int
               for n in docmodel.iter_nodes(doc.outline))


def _check_registry(registry: metadata.MetadataRegistry, written: dict) -> None:
    assert registry.standard_name == written["standard_name"]
    for spec, entry in zip(registry.indicators, written["indicators"]):
        assert all(getattr(spec, f) == entry[f] for f in ("id", "aspect", "kpi", "knowledge"))
        assert all(type(t) is str for t in (*spec.topics, *spec.search_terms))


def _check_labels(labels: dict, written: dict) -> None:
    [label_set] = labels.values()
    assert label_set.doc_id == written["doc_id"]
    assert label_set.disclosure_labels == written["disclosure_labels"]
    assert all(type(v) is bool for v in label_set.disclosure_labels.values())
    for entry in written["value_labels"]:
        value, unit = label_set.value_labels[entry["indicator_id"], entry["topic"].strip()]
        assert unit == entry["unit"].strip() and value.is_finite()


def _check_replies(provider: MockChatProvider, written: dict) -> None:
    assert provider.default_reply == written.get("default_reply", provider.default_reply)
    got = [r for entries in provider._by_key.values() for r in entries]
    assert [(r.doc_id, r.indicator_id, r.reply) for r in got] == [
        (e["doc_id"], e["indicator_id"], e["reply"]) for e in written["replies"]
    ]


def _check_config(config: cli.RunConfig, written: dict) -> None:
    assert type(config.jobs) is int and config.jobs >= 1
    assert config.rel_tol is None or (type(config.rel_tol) is float and config.rel_tol >= 0)
    # a null key takes its default
    assert (config.mode, config.arm) == (written["mode"] or "offline", written["arm"] or DEFAULT_ARM)
    for endpoint in config.endpoints.values():
        assert type(endpoint.url) is str and type(endpoint.token_env) is str
        assert type(endpoint.timeout) is float and type(endpoint.retries) is int


def _check_records(records: list, written: dict) -> None:
    last = records[-1]
    assert (last.doc_id, last.disclosure, last.flags) == (
        written["doc_id"], written["disclosure"], written["flags"]
    )
    assert last.value is None or (type(last.value) is Decimal and last.value.is_finite())


def _check_kb(kb: kbmod.KnowledgeBase, written: dict) -> None:
    assert (kb.scope, kb.provider_name, kb.dim) == (
        written["scope"], written["provider_name"], written["dim"]
    )
    assert kb.table_texts == written["table_texts"] and type(kb.dim) is int


# kind -> (its loader, of the written path; the error class it documents; a check of
# its value against the value written)
LOADERS = {
    "layout": (docmodel.ingest, DocumentError, _check_document),
    "structured": (docmodel.ingest, DocumentError, _check_document),
    "registry": (metadata.load_registry, RegistryError, _check_registry),
    "labels": (lambda p: evaluation.load_labels(p, metadata.load_registry(
        metadata.bundled_registry_path())), EvaluationError, _check_labels),
    "replies": (MockChatProvider.from_file, ProviderError, _check_replies),
    "config": (cli.load_run_config, ConfigError, _check_config),
    "records": (agent.load_records, ConfigError, _check_records),
    "kb header": (kbmod.load, KnowledgeBaseError, _check_kb),
}


@pytest.mark.parametrize("kind", list(LOADERS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # the shallow paths come first: small indices pick the top-level fields
    at=st.one_of(st.integers(0, 20), st.integers(0, 2**20)),
    new=st.sampled_from(fuzzing.REPLACEMENTS),
)
def test_a_loader_reads_a_replaced_value_or_rejects_it(one_doc, kind, at, new):
    ws, valid, cached = one_doc
    paths = sorted(fuzzing.value_paths(valid[kind]), key=len)
    value = fuzzing.replaced(valid[kind], paths[at % len(paths)], new)
    path, command = _write(ws, kind, value, cached)
    load, error, check = LOADERS[kind]
    try:
        try:
            check(load(path), value)
        except error:
            pass
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(command)
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
    finally:  # the corpus file of either JSON shape goes back to the layout JSON
        restore = "layout" if kind == "structured" else kind
        _write(ws, restore, valid[restore], cached)
