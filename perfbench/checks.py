"""Correctness checks made apart from the program.

Scores, planted values, analysis rates and search results are
recomputed here from the generated inputs and the files a run wrote;
nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

import numpy as np

from esgpipe import kb as kbmod
from esgpipe import metadata, retrieval
from esgpipe.providers import HashEmbedder
from tests import corpusgen

DATA = Path(__file__).resolve().parents[1] / "src" / "esgpipe" / "data"
TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def registry_table() -> list[dict]:
    return json.loads((DATA / "hkex_registry.json").read_text(encoding="utf-8"))["indicators"]


class Units:
    def __init__(self) -> None:
        groups = json.loads((DATA / "unit_aliases.json").read_text(encoding="utf-8"))["groups"]
        self.group = {u.strip().lower(): n for n, g in enumerate(groups) for u in g}

    def same(self, a: str | None, b: str | None) -> bool:
        a, b = (a or "").strip().lower(), (b or "").strip().lower()
        return a == b or (a in self.group and self.group[a] == self.group.get(b))


def _decimal(value) -> Decimal | None:
    return None if value is None else Decimal(str(value))


def score(records: list[dict], labels: dict[str, dict], units: Units) -> dict:
    """Per-document and mean Acc_DC / Acc_DE, recounted from scratch."""
    ids = [row["id"] for row in registry_table()]
    by_doc: dict[str, list[dict]] = {}
    for r in records:
        by_doc.setdefault(r["doc_id"], []).append(r)
    per_doc = {}
    for doc_id, recs in sorted(by_doc.items()):
        lab = labels[doc_id]
        disclosed = {r["indicator_id"] for r in recs if r["disclosure"]}
        dc = sum(lab["disclosure_labels"][i] == (i in disclosed) for i in ids) / len(ids)
        first: dict[tuple[str, str], dict] = {}
        for r in recs:
            key = (r["indicator_id"], r["topic"].strip())
            if r["disclosure"] and key not in first:
                first[key] = r
        matches = []
        for v in lab["value_labels"]:
            r = first.get((v["indicator_id"], v["topic"].strip()))
            matches.append(
                r is not None
                and r["value"] is not None
                and units.same(v["unit"], r["unit"])
                and _decimal(r["value"]) == Decimal(str(v["value"]))
            )
        de = sum(matches) / len(matches) if matches else None
        per_doc[doc_id] = (dc, de)
    des = [de for _, de in per_doc.values() if de is not None]
    return {
        "per_doc": per_doc,
        "acc_dc": sum(dc for dc, _ in per_doc.values()) / len(per_doc),
        "acc_de": sum(des) / len(des) if des else None,
    }


def _close(a: float | None, b: float | None) -> bool:
    return (a is None and b is None) or (a is not None and b is not None and abs(a - b) <= TOL)


def check_report(report_path: Path, recount: dict) -> None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    require(
        _close(report["acc_dc"], recount["acc_dc"]) and _close(report["acc_de"], recount["acc_de"]),
        f"{report_path.name}: Acc_DC/Acc_DE {report['acc_dc']}/{report['acc_de']} "
        f"!= recount {recount['acc_dc']}/{recount['acc_de']}",
    )
    for doc in report["per_document"]:
        dc, de = recount["per_doc"][doc["scope"]]
        require(
            _close(doc["acc_dc"], dc) and _close(doc["acc_de"], de),
            f"{report_path.name}: {doc['scope']} scores differ from the recount",
        )
    require(
        len(report["per_document"]) == len(recount["per_doc"]),
        f"{report_path.name}: document count differs from the records",
    )


def check_arm_ordering(recounts: dict[str, dict]) -> None:
    b, e, k = (recounts[a] for a in ("benchmark", "enhanced_rag", "enhanced_rag_knowledge"))
    require(
        b["acc_de"] < e["acc_de"] < k["acc_de"] == 1.0,
        f"Acc_DE ordering broken: {b['acc_de']}, {e['acc_de']}, {k['acc_de']}",
    )
    require(k["acc_dc"] == 1.0, f"enhanced_rag_knowledge Acc_DC {k['acc_dc']} != 1.0")


def planted_recall(records: list[dict], units: Units) -> tuple[int, int]:
    """Checks planted values and returns (recovered, planted) facts.

    Every disclosed record of a planted indicator must carry the planted
    value and unit (numeric) or no value (textual); no other indicator
    may be disclosed.
    """
    found: set[tuple[str, str]] = set()
    docs = {r["doc_id"] for r in records}
    for r in records:
        if not r["disclosure"]:
            continue
        i = int(r["doc_id"][3:])
        ind = r["indicator_id"]
        require(ind in corpusgen.DISCLOSED, f"{r['doc_id']}/{ind} disclosed but nothing was planted")
        planted = corpusgen.doc_values(i).get(ind)
        if planted is None:
            require(r["value"] is None, f"{r['doc_id']}/{ind}: textual record carries a value")
        else:
            value, unit = planted
            require(
                _decimal(r["value"]) == Decimal(value) and units.same(r["unit"], unit),
                f"{r['doc_id']}/{ind}: {r['value']} {r['unit']} != planted {value} {unit}",
            )
        found.add((r["doc_id"], ind))
    return len(found), len(docs) * len(corpusgen.DISCLOSED)


def check_analysis(analysis_path: Path, records: list[dict], corpus_dir: Path) -> None:
    """Disclosure rates in analysis.json against a recount from records."""
    numeric = [row for row in registry_table() if row["kind"] == "Numerical"]
    sets = {
        "env": {row["id"] for row in numeric if row["category"] == "E"},
        "soc": {row["id"] for row in numeric if row["category"] == "S"},
        "overall": {row["id"] for row in numeric},
    }
    disclosed: dict[str, set[str]] = {r["doc_id"]: set() for r in records}
    for r in records:
        if r["disclosure"]:
            disclosed[r["doc_id"]].add(r["indicator_id"])
    industry = {}
    for path in corpus_dir.glob("*.json"):
        layout = json.loads(path.read_text(encoding="utf-8"))
        industry[layout["doc_id"]] = layout["industry"]
    groups: dict[str, list[str]] = {"corpus": sorted(disclosed)}
    for doc_id in sorted(disclosed):
        groups.setdefault(industry[doc_id], []).append(doc_id)
    rows = json.loads(analysis_path.read_text(encoding="utf-8"))["disclosure"]
    require(len(rows) == len(groups), "analysis has a different number of disclosure groups")
    for row in rows:
        members = groups[row["scope"]]
        require(row["n_companies"] == len(members), f"analysis {row['scope']}: company count")
        for kind, ids in sets.items():
            rate = sum(len(disclosed[d] & ids) / len(ids) for d in members) / len(members)
            require(
                abs(row[f"{kind}_rate"] - rate) <= TOL,
                f"analysis {row['scope']} {kind}_rate {row[f'{kind}_rate']} != recount {rate}",
            )


def full_scan(kb: kbmod.KnowledgeBase, vectors: list[list[float]], k: int) -> list[tuple[str, float]]:
    """Exact search: top k per partition and query vector by (-cosine,
    entry_id), unioned, ranked by best cosine over the query vectors."""
    q = np.asarray(vectors, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1)
    out: list[tuple[str, float]] = []
    for source in kbmod.Source:
        entries = [e for e in kb.entries if e.source is source]
        if not entries:
            continue
        ids = np.array([e.entry_id for e in entries])
        m = np.array([e.vector for e in entries], dtype=np.float64)
        denom = np.outer(qn, np.linalg.norm(m, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            sims = np.where(denom > 0, (q @ m.T) / np.where(denom > 0, denom, 1.0), -1.0)
        sims = np.clip(sims, -1.0, 1.0)
        chosen: set[int] = set()
        for row in sims:
            chosen.update(np.lexsort((ids, -row))[:k].tolist())
        best = sims.max(axis=0)
        out.extend((str(ids[j]), float(best[j])) for j in chosen)
    out.sort(key=lambda h: (-h[1], h[0]))
    return out


def check_search(kb_dir: Path, seed: int, k: int, per_kb: int = 12) -> int:
    """retrieval.search against the full scan on sampled queries; returns
    the number of queries compared."""
    registry = metadata.load_registry(metadata.bundled_registry_path())
    rng = random.Random(seed)
    compared = 0
    for path in sorted(kb_dir.glob("*.json")):
        kb = kbmod.load(path)
        embedder = HashEmbedder(kb.dim)
        for spec in rng.sample(list(registry.indicators), per_kb):
            for terms in (True, False):
                query = retrieval.build_query(spec, registry, embedder, terms)
                got = [(h.entry_id, h.similarity) for h in retrieval.search(kb, query, k)]
                want = full_scan(kb, query.vectors, k)
                require(
                    [g[0] for g in got] == [w[0] for w in want]
                    and all(abs(g[1] - w[1]) <= 1e-12 for g, w in zip(got, want)),
                    f"search differs from the full scan on {path.name} / {spec.id}",
                )
                compared += 1
    return compared


def check_partitions(kb_dir: Path, expected: dict[str, dict[str, int]]) -> None:
    for doc_id, sizes in expected.items():
        kb = kbmod.load(kb_dir / f"{doc_id}.kb.json")
        for name, n in sizes.items():
            got = sum(1 for e in kb.entries if e.source.value == name)
            require(got == n, f"{doc_id}: {name} partition has {got} entries, expected {n}")


def disclosure_view(records: list[dict]) -> dict:
    return {
        (r["doc_id"], r["indicator_id"], r["topic"]): (
            r["disclosure"],
            _decimal(r["value"]),
            r["unit"],
        )
        for r in records
    }
