"""Provider contracts and their bundled implementations.

Three pluggable services feed the pipeline: embeddings, reranking and
chat completion. Each has a deterministic offline implementation (used
by all tests and by ``mode: offline`` runs) and an HTTP client speaking
a small JSON contract:

- embedding:  POST {"texts": [...]}            -> {"vectors": [[...], ...]}
- rerank:     POST {"query": q, "candidates": [...]} -> {"scores": [...]}
- chat:       POST {"messages": [{role, content}], "params": {...}}
                                               -> {"content": "..."}

Authentication is a bearer token read from an environment variable at
call time; it is never logged. The HTTP clients speak through the
standard library: one kept-alive connection per calling thread, TLS
verified against the system's certificate authorities, and the
environment's proxies (`http_proxy`, `https_proxy`, `no_proxy`). A
redirect is an error, not followed.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import itertools
import json
import logging
import operator
import os
import re
import select
import ssl
import threading
import time
import urllib.parse
import urllib.request
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import __version__, _read
from .errors import ProviderError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from .agent import Prompt

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"\w+")
# every ASCII character that `\w` does not match, mapped to a space
_ASCII_NON_WORD = str.maketrans({c: " " for c in range(128) if not _TOKEN_RE.match(chr(c))})
# a sentence's end mark, kept by `re.split`, and the whitespace after it
_SENTENCE_END_RE = re.compile(r"([.!?])\s+")

DEFAULT_TOKEN_ENV = "ESGPIPE_API_TOKEN"
DEFAULT_DIM = 256  # `HashEmbedder`'s, and so the run config's providers.embedding.dim
# the largest providers.embedding.dim, and the largest dim a KB file may
# declare: 512 KiB a float64 vector
MAX_DIM = 2**16

BACKOFF_SECONDS = 0.5  # `HttpEndpoint.post` sleeps this * 2**n before resend n + 1

_EMBED_SLICE = 256  # texts per pass of HashEmbedder's array pipeline
_FILL_ROWS = 256  # duplicate rows `embed_matrix` fills per block


def tokenize(text: str) -> list[str]:
    """The ``\\w+`` runs of the lowercased text, in order.

    ASCII text, the common case, takes a faster path with the same
    result: among ASCII characters ``\\w`` matches exactly the letters,
    the digits and ``_``. The translation turns every other one into a
    space, so the text holds only those and spaces, and `str.split`
    cuts it at the runs of spaces into the same tokens. The test is made
    on the lowercased text, the text that is split: lowercasing can turn
    a non-ASCII letter into an ASCII one (the Kelvin sign into ``k``)."""
    text = text.lower()
    if text.isascii():
        return text.translate(_ASCII_NON_WORD).split()
    return _TOKEN_RE.findall(text)


def split_sentences(text: str, limit: int = 0) -> list[str]:
    """The sentences of the stripped text, in order: it is cut at each run
    of whitespace right after a ``.``, ``!`` or ``?``, which ends the
    sentence before it. A positive `limit` keeps the first `limit`
    sentences and cuts no further."""
    parts = _SENTENCE_END_RE.split(text.strip(), limit)
    # each body before a cut, with its end mark: never empty
    sentences = list(map(operator.add, parts[:-1:2], parts[1::2]))
    if parts[-1] and (not limit or len(sentences) < limit):
        sentences.append(parts[-1])
    return sentences


class EmbeddingProvider(ABC):
    name: str
    dim: int

    @abstractmethod
    def embed(
        self, texts: Sequence[str], out: np.ndarray | None = None
    ) -> list[list[float]] | np.ndarray:
        """One vector of length `dim` per input text, in input order: as
        lists of floats, or, when `out` is given, written into `out`, a
        float64 array of shape `(len(texts), dim)`, which is returned. A
        provider that cannot fill every row raises ProviderError."""


def embed_matrix(embedder: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray:
    """The float64 `(len(texts), dim)` matrix whose row i embeds `texts[i]`,
    filled by one `embed` call that carries each distinct text once, in
    the order of first occurrence.

    That call writes the distinct vectors into the matrix's leading rows,
    so the j-th distinct text's vector sits in row j, never after any row
    of that text. The rows from the first repeat on are then filled in
    place, from the last row backwards in blocks of at most `_FILL_ROWS`:
    a block copies the rows it needs before writing, and every row it
    reads comes before its end, where nothing has been written yet. So a
    duplicate row is a bit-for-bit copy of its text's vector, and no
    second full-size matrix is made."""
    distinct: dict[str, int] = {}
    inverse = np.fromiter(
        (distinct.setdefault(text, len(distinct)) for text in texts), np.intp, len(texts)
    )
    matrix = np.empty((len(texts), embedder.dim))
    head = matrix[: len(distinct)]
    if embedder.embed(list(distinct), out=head) is not head:
        raise ProviderError(f"embedder {embedder.name!r} did not fill the array it was given")
    if len(distinct) < len(texts):
        first = int(np.argmax(inverse != np.arange(len(texts))))  # the first repeat
        for stop in range(len(texts), first, -_FILL_ROWS):
            start = max(stop - _FILL_ROWS, first)
            matrix[start:stop] = matrix[inverse[start:stop]]
    return matrix


class Reranker(ABC):
    name: str

    @abstractmethod
    def score(self, query: str, candidates: Sequence[str]) -> list[float]:
        """One relevance score per candidate, higher = more relevant."""


class ChatProvider(ABC):
    name: str

    @abstractmethod
    def complete(self, prompt: "Prompt", params: dict) -> str:
        ...


class _Buckets(dict):
    """token -> its `HashEmbedder` bucket, hashed on first lookup."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim

    def __missing__(self, token: str) -> int:
        digest = hashlib.sha1(token.encode("utf-8")).digest()
        bucket = self[token] = int.from_bytes(digest, "big") % self.dim
        return bucket


class HashEmbedder(EmbeddingProvider):
    """Deterministic hashed bag-of-tokens embedding.

    Tokens are lowercased ``\\w+`` runs, hashed with sha1 into `dim`
    buckets; the count vector is L2-normalized. Texts with no tokens
    embed to the zero vector.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.name = f"hash-bow-{dim}"
        self._buckets = _Buckets(dim)

    def embed(
        self, texts: Sequence[str], out: np.ndarray | None = None
    ) -> list[list[float]] | np.ndarray:
        """Array operations over slices of `_EMBED_SLICE` texts, each
        slice written into its rows, so the temporaries (token lists and
        a slice-by-`dim` count matrix) do not grow with the batch; each
        distinct token is hashed once per instance, at its first lookup.
        The counts are integers, so a row's sum of squares is exact in
        any order. Its square root is the Python float `** 0.5` gives,
        and each count is divided by it as a float, so every vector is
        the one a per-text loop would make."""
        matrix = np.empty((len(texts), self.dim)) if out is None else out
        for start in range(0, len(texts), _EMBED_SLICE):
            stop = start + _EMBED_SLICE
            self._embed_slice(texts[start:stop], matrix[start:stop])
        return matrix.tolist() if out is None else out

    def _embed_slice(self, texts: Sequence[str], out: np.ndarray) -> None:
        """Writes the vectors of `texts` into `out`, one row each."""
        tokens = list(map(tokenize, texts))
        flat = list(itertools.chain.from_iterable(tokens))
        buckets = np.fromiter(map(self._buckets.__getitem__, flat), np.intp, len(flat))
        rows = np.repeat(np.arange(len(texts)), list(map(len, tokens)))
        counts = np.bincount(rows * self.dim + buckets, minlength=out.size)
        counts = counts.reshape(out.shape)
        squares = np.einsum("ij,ij->i", counts, counts).tolist()
        # a tokenless row divides its zeros by 1, so it stays exactly 0.0
        norms = np.array([s**0.5 if s else 1.0 for s in squares])
        np.divide(counts, norms[:, None], out=out)


def _token_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text))


class JaccardReranker(Reranker):
    """Offline rerank fallback: token-set Jaccard overlap.

    The same evidence payloads come back for many indicators, so each
    instance keeps the token sets of recent texts (an LRU of
    `TOKEN_CACHE_SIZE`, safe to share between threads).
    """

    name = "jaccard"
    TOKEN_CACHE_SIZE = 4096

    def __init__(self) -> None:
        self._tokens = functools.lru_cache(maxsize=self.TOKEN_CACHE_SIZE)(_token_set)

    def score(self, query: str, candidates: Sequence[str]) -> list[float]:
        q = self._tokens(query)
        scores = []
        for cand in candidates:
            c = self._tokens(cand)
            shared = len(q & c)
            union = len(q) + len(c) - shared
            scores.append(shared / union if union else 0.0)
        return scores


DEFAULT_REFUSAL = "The requested information is not disclosed in the provided report content."


@dataclass
class MockReply:
    doc_id: str
    indicator_id: str
    reply: str
    required_evidence: tuple[str, ...] = ()


_REPLY_REQUIRED = frozenset({"doc_id", "indicator_id", "reply"})
_REPLY_FIELDS = _REPLY_REQUIRED | {"required_evidence"}


class MockChatProvider(ChatProvider):
    """Deterministic chat stand-in answering from a fixture file.

    Replies are keyed by (doc_id, indicator_id), which every prompt
    carries as audit metadata. A reply entry may also demand
    `required_evidence` substrings: the reply is returned only when
    every such substring appears verbatim in the prompt's reference
    content, expert knowledge, or question. Otherwise the provider
    refuses, exactly as a grounded model without the evidence would.
    Generation params are ignored; calls are read-only and safe to
    issue concurrently. README's "Input files" table has the file format.
    """

    name = "mock-chat"

    def __init__(self, replies: Sequence[MockReply], default_reply: str = DEFAULT_REFUSAL):
        self.default_reply = default_reply
        self._by_key: dict[tuple[str, str], list[MockReply]] = {}
        for r in replies:
            self._by_key.setdefault((r.doc_id, r.indicator_id), []).append(r)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockChatProvider":
        """A file that cannot be read or is not of the format README's "Input
        files" table gives is a ProviderError naming the key path."""
        E, where = ProviderError, (f"mock replies {path}",)
        data = _read.obj(_read.load(path, E, "mock replies"), where, E, {"default_reply", "replies"})
        replies = []
        for i, entry in enumerate(_read.array(data.get("replies", []), (*where, "replies"), E)):
            at = (*where, "replies", i)
            entry = _read.obj(entry, at, E, _REPLY_FIELDS, _REPLY_REQUIRED)
            texts = {key: _read.text(entry[key], (*at, key), E) for key in _REPLY_REQUIRED}
            evidence = _read.texts(entry.get("required_evidence", []), (*at, "required_evidence"), E)
            replies.append(MockReply(**texts, required_evidence=tuple(evidence)))
        default = _read.text(data.get("default_reply", DEFAULT_REFUSAL), (*where, "default_reply"), E)
        return cls(replies, default_reply=default)

    def complete(self, prompt: "Prompt", params: dict) -> str:
        key = (prompt.doc_id, prompt.indicator_id)
        searchable = "\n".join(
            (prompt.reference_content, prompt.expert_knowledge, prompt.question)
        )
        for entry in self._by_key.get(key, []):
            if all(needle in searchable for needle in entry.required_evidence):
                return entry.reply
        return self.default_reply


def _bearer_headers(token_env: str) -> dict[str, str]:
    token = os.environ.get(token_env, "")
    return {"Authorization": f"Bearer {token}"} if token else {}


USER_AGENT = f"esgpipe/{__version__}"


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One verifying context for every HTTPS connection: loading the
    certificate authorities is the costly part of making one."""
    return ssl.create_default_context()


class _StatusError(http.client.HTTPException):
    """A reply whose status is not 2xx."""

    def __init__(self, status: int, reason: str):
        super().__init__(f"HTTP {status} {reason}")
        self.status = status


def _transient(exc: Exception) -> bool:
    """Whether a failed exchange may succeed if sent again: not after a
    status other than 5xx, 408 or 429, nor after a request that could not
    be formed or a body that is not JSON (a ValueError)."""
    if isinstance(exc, _StatusError):
        return exc.status >= 500 or exc.status in (408, 429)
    return not isinstance(exc, ValueError)


@dataclass
class HttpEndpoint:
    """One provider URL. Each calling thread keeps one kept-alive
    `http.client` connection, dropped with the thread. It goes through
    the environment's proxy for the URL's scheme unless `no_proxy`
    exempts the host: plain HTTP as absolute-form requests to the proxy,
    HTTPS through a CONNECT tunnel. HTTPS certificates and host names
    are verified."""

    url: str
    timeout: float = 30.0
    retries: int = 2
    token_env: str = DEFAULT_TOKEN_ENV
    _local: threading.local = field(
        default_factory=threading.local, init=False, repr=False, compare=False
    )

    def _connection(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """This thread's connection, with the request target and headers
        its route needs. A kept-alive socket that has turned readable
        before any request, because the peer closed it or sent what no
        request asked for, is closed first, so the request reconnects
        rather than fail on it."""
        local = self._local
        if getattr(local, "route", None) is None:
            local.route = self._open()
        sock = local.route[0].sock
        if sock is not None and select.select([sock], [], [], 0)[0]:
            local.route[0].close()
        return local.route

    def _open(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """A new connection for the URL, the request target to send on it
        and the headers its route adds: straight to the host, or to the
        environment's proxy for the scheme unless `no_proxy` exempts the
        host."""
        try:
            url = urllib.parse.urlsplit(self.url)
            host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
            if url.scheme not in ("http", "https") or not host:
                raise ValueError("not an http(s) URL")
            proxy = None
            if not urllib.request.proxy_bypass(host):
                proxy = urllib.request.getproxies().get(url.scheme)
            if proxy:
                proxy = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            addr = (proxy.hostname, proxy.port or 80) if proxy else (host, port)
        except ValueError as exc:
            raise ProviderError(f"provider url {self.url!r} is unusable: {exc}") from exc
        path = url.path or "/"
        headers = {}
        if proxy and proxy.username:
            user = urllib.parse.unquote(proxy.username)
            password = urllib.parse.unquote(proxy.password or "")
            token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            headers["Proxy-Authorization"] = f"Basic {token}"
        if url.scheme == "http":
            conn = http.client.HTTPConnection(*addr, timeout=self.timeout)
            origin = ("http", url.netloc.rpartition("@")[2]) if proxy else ("", "")
            return conn, urllib.parse.urlunsplit((*origin, path, url.query, "")), headers
        conn = http.client.HTTPSConnection(*addr, timeout=self.timeout, context=_tls_context())
        if proxy:
            conn.set_tunnel(host, port, headers)
        return conn, urllib.parse.urlunsplit(("", "", path, url.query, "")), {}

    def post(self, payload: dict) -> dict:
        """The reply's JSON object; the one place a request is sent again.
        A connection error, a timeout, a 5xx, 408 or 429 is resent up to
        `retries` times, resend n + 1 after `BACKOFF_SECONDS` * 2**n s; any
        other failure, such as a 401, a redirect or a reply that is not a
        JSON object, is not. A failed exchange closes the thread's
        connection. So a call takes at most `retries + 1` attempts, each up
        to `timeout` per connect and per read, plus the sleeps."""
        body = json.dumps(payload).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "User-Agent": USER_AGENT,
            **_bearer_headers(self.token_env),
        }
        for attempt in itertools.count():
            conn, target, route_headers = self._connection()
            try:
                conn.request("POST", target, body, {**route_headers, **headers})
                resp = conn.getresponse()
                raw = resp.read()
                if not 200 <= resp.status < 300:
                    raise _StatusError(resp.status, resp.reason)
                data = json.loads(raw)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                conn.close()
                if attempt >= self.retries or not _transient(exc):
                    raise ProviderError(f"provider at {self.url} unreachable: {exc}") from exc
                delay = BACKOFF_SECONDS * 2**attempt
                logger.warning("provider at %s failed (attempt %d of %d): %s; resending in %.1f s",
                               self.url, attempt + 1, self.retries + 1, exc, delay)
                time.sleep(delay)
                continue
            if not isinstance(data, dict):
                raise ProviderError(f"provider at {self.url} replied with a non-object")
            return data


def _floats(values: list, what: str, out: np.ndarray) -> np.ndarray:
    """`values`, a list of numbers for a 1-d `out` or a list of rows of
    them for a 2-d one, written into `out`, which is returned. Only a
    JSON number counts: a bool or a numeric string is an error like any
    other non-number. A non-finite value is an error too, and so is an
    integer too large for a float: `json.loads` accepts NaN and Infinity,
    and either would poison a similarity or a rerank order."""
    flat = itertools.chain.from_iterable(values) if out.ndim == 2 else values
    others = set(map(type, flat)) - {int, float}
    if others:
        names = ", ".join(sorted(t.__name__ for t in others))
        raise ProviderError(f"{what} provider returned a non-number ({names})")
    try:
        if values:  # an empty list cannot broadcast to shape (0, dim)
            out[...] = values
    except OverflowError as exc:
        raise ProviderError(f"{what} provider returned a non-finite number: {exc}") from exc
    if not np.isfinite(out).all():
        raise ProviderError(f"{what} provider returned a non-finite number")
    return out


class HttpEmbedder(EmbeddingProvider):
    def __init__(self, endpoint: HttpEndpoint, dim: int, name: str = "http-embedding"):
        self.endpoint = endpoint
        self.dim = dim
        self.name = name

    def embed(
        self, texts: Sequence[str], out: np.ndarray | None = None
    ) -> list[list[float]] | np.ndarray:
        data = self.endpoint.post({"texts": list(texts)})
        where = ("embedding provider reply", "vectors")
        vectors = _read.array(data.get("vectors"), where, ProviderError, len(texts))
        for i, vector in enumerate(vectors):
            _read.array(vector, (*where, i), ProviderError, self.dim)
        matrix = np.empty((len(texts), self.dim)) if out is None else out
        _floats(vectors, "embedding", matrix)
        return matrix.tolist() if out is None else out


class HttpReranker(Reranker):
    def __init__(self, endpoint: HttpEndpoint, name: str = "http-rerank"):
        self.endpoint = endpoint
        self.name = name

    def score(self, query: str, candidates: Sequence[str]) -> list[float]:
        data = self.endpoint.post({"query": query, "candidates": list(candidates)})
        where = ("rerank provider reply", "scores")
        scores = _read.array(data.get("scores"), where, ProviderError, len(candidates))
        return _floats(scores, "rerank", np.empty(len(scores))).tolist()


class HttpChatProvider(ChatProvider):
    def __init__(self, endpoint: HttpEndpoint, name: str = "http-chat"):
        self.endpoint = endpoint
        self.name = name

    def complete(self, prompt: "Prompt", params: dict) -> str:
        data = self.endpoint.post({"messages": prompt.to_messages(), "params": params})
        return _read.text(data.get("content"), ("chat provider reply", "content"), ProviderError)


@dataclass
class ProviderSet:
    """The full provider bundle one pipeline run uses."""

    embedder: EmbeddingProvider
    chat: ChatProvider
    reranker: Reranker = field(default_factory=JaccardReranker)

    def names(self) -> dict[str, str]:
        return {
            "embedding": self.embedder.name,
            "chat": self.chat.name,
            "rerank": self.reranker.name,
        }
