"""Shared fixtures: the bundled registry, the generated corpus, offline
providers, a loopback HTTP server and a recorder of backoff sleeps."""

from pathlib import Path

import pytest

from esgpipe import docmodel, evaluation, metadata
from esgpipe.providers import (
    HashEmbedder,
    JaccardReranker,
    MockChatProvider,
    ProviderSet,
)
from tests import corpusgen, loopback


@pytest.fixture(scope="session")
def registry() -> metadata.MetadataRegistry:
    return metadata.load_registry(metadata.bundled_registry_path())


@pytest.fixture(scope="session")
def fixture_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fixture")
    corpusgen.generate(root)
    return root


@pytest.fixture(scope="session")
def corpus_docs(fixture_root) -> list[docmodel.StructuredDocument]:
    paths = sorted((fixture_root / "corpus").glob("*.json"))
    return [docmodel.ingest(p) for p in paths]


@pytest.fixture(scope="session")
def corpus_labels(fixture_root, registry) -> dict[str, evaluation.LabelSet]:
    return evaluation.load_labels(fixture_root / "labels.jsonl", registry)


@pytest.fixture(scope="session")
def offline_providers(fixture_root) -> ProviderSet:
    return ProviderSet(
        embedder=HashEmbedder(),
        chat=MockChatProvider.from_file(fixture_root / "mock_replies.json"),
        reranker=JaccardReranker(),
    )


@pytest.fixture()
def http_server():
    """A loopback JSON server and its base URL (see `loopback.serving`)."""
    with loopback.serving() as served:
        yield served


@pytest.fixture()
def sleeps(monkeypatch) -> list[float]:
    """The seconds `HttpEndpoint.post` backs off, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("esgpipe.providers.time.sleep", recorded.append)
    return recorded
