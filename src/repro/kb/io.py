"""Knowledge-base JSON serialization.

Lets downstream users persist seed KBs and extraction-augmented KBs, and
lets the CLI (``python -m repro``) load a KB from disk.  The format is a
single JSON document::

    {
      "ontology": [{"name": ..., "domain": ..., "range_kind": ...,
                    "multi_valued": ...}, ...],
      "entities": [{"id": ..., "name": ..., "type": ..., "aliases": [...]}, ...],
      "triples":  [{"s": ..., "p": ..., "o": ..., "kind": "entity"|"literal"}, ...]
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value

__all__ = ["kb_to_dict", "kb_from_dict", "save_kb", "load_kb"]


def kb_to_dict(kb: KnowledgeBase) -> dict:
    """Serialize a KB to a plain JSON-compatible dictionary."""
    return {
        "ontology": [
            {
                "name": p.name,
                "domain": p.domain,
                "range_kind": p.range_kind,
                "multi_valued": p.multi_valued,
            }
            for p in kb.ontology
        ],
        "entities": [
            {
                "id": e.id,
                "name": e.name,
                "type": e.type,
                "aliases": list(e.aliases),
            }
            for e in kb.entities.values()
        ],
        "triples": [
            {
                "s": t.subject,
                "p": t.predicate,
                "o": t.object.value,
                "kind": t.object.kind,
            }
            for t in kb.triples
        ],
    }


def kb_from_dict(data: dict) -> KnowledgeBase:
    """Deserialize a KB written by :func:`kb_to_dict`.

    Raises ``KeyError``/``ValueError`` on malformed input (unknown
    subjects, predicates outside the ontology, duplicate predicates).
    """
    ontology = Ontology(
        [
            Predicate(
                name=p["name"],
                domain=p.get("domain", ""),
                range_kind=p.get("range_kind", "entity"),
                multi_valued=bool(p.get("multi_valued", False)),
            )
            for p in data.get("ontology", [])
        ]
    )
    kb = KnowledgeBase(ontology)
    for e in data.get("entities", []):
        kb.add_entity(
            Entity(e["id"], e["name"], e.get("type", ""), tuple(e.get("aliases", ())))
        )
    for t in data.get("triples", []):
        value = (
            Value.entity(t["o"]) if t.get("kind", "entity") == "entity"
            else Value.literal(t["o"])
        )
        kb.add_fact(t["s"], t["p"], value)
    return kb


def save_kb(kb: KnowledgeBase, path: str | Path) -> None:
    """Write a KB to a UTF-8 JSON file (whatever the locale's encoding)."""
    Path(path).write_text(
        json.dumps(kb_to_dict(kb), indent=1, ensure_ascii=False),
        encoding="utf-8",
    )


def load_kb(path: str | Path) -> KnowledgeBase:
    """Read a KB from a UTF-8 JSON file (whatever the locale's encoding).

    Raises ``ValueError`` when the file is not JSON or its top level is
    not an object, and what :func:`kb_from_dict` raises on bad content.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"a KB file holds a JSON object, not {type(data).__name__}")
    return kb_from_dict(data)
