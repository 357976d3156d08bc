"""Loopback stand-in for the online embedding and chat providers.

Run as its own process::

    python3 perfbench/standin.py --replies mock_replies.json

It binds 127.0.0.1 on an ephemeral port, prints {"port": N} on one
line of stdout and serves until stdin closes. Endpoints (POST, JSON):

- /embed: {"texts": [...]} -> {"vectors": [...]}, the `HashEmbedder`
  vectors, so online retrieval matches offline retrieval exactly;
- /chat: {"messages": [...]} -> {"content": "..."}, after CHAT_DELAY_S.
  HTTP chat messages carry no doc id, so the reply is chosen by the
  rendered question plus each fixture reply's `required_evidence`, the
  first match in fixture order winning;
- GET /stats: request and text counts since start;
- GET /probe?start=T0&end=T1: the stand-in's `probe.probe_task` samples
  taken between those `perf_counter` times, so the benchmark can scale
  online rounds by the speed of both processes that do their work.

One thread serves every connection on an asyncio event loop and a chat
delay is a timer, not a blocked thread, so any number of keep-alive
connections is served at once and overlapping chat calls wait in
parallel, as they would on a remote provider.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import urllib.parse
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from esgpipe import metadata  # noqa: E402
from esgpipe.providers import DEFAULT_REFUSAL, HashEmbedder  # noqa: E402
from probe import PROBE_EVERY_S, probe_task  # noqa: E402

# Fixed wait before each chat reply: the delay of the loopback stand-in
# with which the online fixture `ablate` reference (16.5-19.2 s for 2,100
# chat calls on a 2-vCPU VM) was measured. It is a stand-in figure, not
# a measured provider latency.
CHAT_DELAY_S = 0.002

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


class ReplyBook:
    """Fixture replies looked up by question text and evidence."""

    def __init__(self, replies_path: Path) -> None:
        registry = metadata.load_registry(metadata.bundled_registry_path())
        self.ids_by_question: dict[str, list[str]] = {}
        for spec in registry.indicators:
            question = metadata.render_question(spec, registry)
            self.ids_by_question.setdefault(question, []).append(spec.id)
        data = json.loads(replies_path.read_text(encoding="utf-8"))
        self.default = data.get("default_reply", DEFAULT_REFUSAL)
        self.by_indicator: dict[str, list[dict]] = {}
        for entry in data["replies"]:
            self.by_indicator.setdefault(entry["indicator_id"], []).append(entry)

    def reply(self, messages: list[dict]) -> str:
        user = next(m["content"] for m in messages if m.get("role") == "user")
        searchable = user.split("\n\n[Answer Format]\n", 1)[0]
        question = searchable.rsplit("[Question]\n", 1)[-1]
        for indicator_id in self.ids_by_question.get(question, []):
            for entry in self.by_indicator.get(indicator_id, []):
                if all(needle in searchable for needle in entry.get("required_evidence", [])):
                    return entry["reply"]
        return self.default


class StandIn:
    def __init__(self, book: ReplyBook) -> None:
        self.book = book
        self.embedder = HashEmbedder()
        self.counts = {"embed_calls": 0, "embed_texts": 0, "chat_calls": 0}
        self.samples: list[tuple[float, float]] = []

    async def sample_speed(self) -> None:
        """`probe_task` on the event loop every PROBE_EVERY_S; as the loop
        runs one thing at a time, no request slows a sample down."""
        while True:
            self.samples.append(probe_task())
            await asyncio.sleep(PROBE_EVERY_S)

    async def respond(self, method: str, target: str, body: bytes) -> tuple[int, object]:
        url = urllib.parse.urlsplit(target)
        path = url.path
        if method == "GET" and path == "/stats":
            return 200, dict(self.counts)
        if method == "GET" and path == "/probe":
            query = urllib.parse.parse_qs(url.query)
            start, end = float(query["start"][0]), float(query["end"][0])
            return 200, [s for s in self.samples if start <= s[0] <= end]
        if method != "POST" or path not in ("/embed", "/chat"):
            return 404, {"error": f"no {method} {path}"}
        payload = json.loads(body or b"{}")
        if path == "/embed":
            texts = payload["texts"]
            self.counts["embed_calls"] += 1
            self.counts["embed_texts"] += len(texts)
            return 200, {"vectors": self.embedder.embed(texts)}
        self.counts["chat_calls"] += 1
        content = self.book.reply(payload["messages"])
        await asyncio.sleep(CHAT_DELAY_S)
        return 200, {"content": content}

    async def serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """HTTP/1.1 with keep-alive: requests on one connection until the
        client closes it or sends `Connection: close`."""
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                method, target, _version = request_line.decode("latin-1").split()
                headers = {}
                while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                try:
                    status, payload = await self.respond(method, target, body)
                except (KeyError, TypeError, ValueError, StopIteration) as exc:
                    status, payload = 400, {"error": repr(exc)}
                data = json.dumps(payload).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                    f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
                    .encode("latin-1") + data
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # shutdown with the connection still open: close it quietly
        finally:
            writer.close()


async def serve(book: ReplyBook) -> None:
    standin = StandIn(book)
    sampler = asyncio.create_task(standin.sample_speed())
    server = await asyncio.start_server(standin.serve_connection, "127.0.0.1", 0)
    print(json.dumps({"port": server.sockets[0].getsockname()[1]}), flush=True)
    stdin_closed = asyncio.Event()
    loop = asyncio.get_running_loop()
    fd = sys.stdin.fileno()

    def on_stdin() -> None:
        if not os.read(fd, 4096):  # the parent closes stdin to stop the server
            loop.remove_reader(fd)
            stdin_closed.set()

    loop.add_reader(fd, on_stdin)
    async with server:
        await stdin_closed.wait()
    sampler.cancel()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replies", required=True, help="mock replies fixture JSON")
    args = parser.parse_args()
    asyncio.run(serve(ReplyBook(Path(args.replies))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
