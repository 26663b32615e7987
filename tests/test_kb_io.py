"""Tests for repro.kb.io (KB JSON serialization)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kb.io import kb_from_dict, kb_to_dict, load_kb, save_kb
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value


def sample_kb() -> KnowledgeBase:
    ontology = Ontology(
        [
            Predicate("directed_by", domain="film", range_kind="entity"),
            Predicate("genre", domain="film", range_kind="string", multi_valued=True),
            Predicate("release_date", domain="film", range_kind="date"),
        ]
    )
    kb = KnowledgeBase(ontology)
    kb.add_entity(Entity("f1", "Do the Right Thing", "film", ("DTRT",)))
    kb.add_entity(Entity("p1", "Spike Lee", "person"))
    kb.add_fact("f1", "directed_by", Value.entity("p1"))
    kb.add_fact("f1", "genre", Value.literal("Drama"))
    kb.add_fact("f1", "release_date", Value.literal("1989-06-30"))
    return kb


class TestRoundTrip:
    def test_dict_roundtrip(self):
        kb = sample_kb()
        restored = kb_from_dict(kb_to_dict(kb))
        assert len(restored) == len(kb)
        assert set(restored.entities) == set(kb.entities)
        assert restored.entity("f1").aliases == ("DTRT",)
        assert restored.ontology.get("genre").multi_valued

    def test_indexes_rebuilt(self):
        restored = kb_from_dict(kb_to_dict(sample_kb()))
        assert restored.entity_ids_for_text("Spike Lee") == {"p1"}
        assert restored.entity_ids_for_text("DTRT") == {"f1"}
        # Date variants must be re-indexed on load.
        assert ("l", "1989 06 30") in restored.value_keys_for_text("June 30, 1989")

    def test_file_roundtrip(self, tmp_path):
        kb = sample_kb()
        path = tmp_path / "kb.json"
        save_kb(kb, path)
        restored = load_kb(path)
        assert len(restored) == len(kb)
        assert {t.predicate for t in restored.triples} == {
            "directed_by", "genre", "release_date",
        }

    def test_malformed_rejected(self):
        with pytest.raises(KeyError):
            kb_from_dict(
                {
                    "ontology": [{"name": "p"}],
                    "entities": [],
                    "triples": [{"s": "ghost", "p": "p", "o": "x", "kind": "literal"}],
                }
            )

    def test_empty_kb(self):
        restored = kb_from_dict({"ontology": [], "entities": [], "triples": []})
        assert len(restored) == 0


class TestEncoding:
    def test_utf8_under_an_ascii_locale(self, tmp_path):
        """KB files are UTF-8 whatever the locale: the corpus is
        multilingual, and an ASCII locale used to fail both ways."""
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
            PYTHONCOERCECLOCALE="0",
            LC_ALL="C",
        )
        env.pop("PYTHONUTF8", None)
        probe = (
            "import locale, sys\n"
            "from repro.kb.io import load_kb, save_kb\n"
            "from repro.kb.ontology import Ontology\n"
            "from repro.kb.store import KnowledgeBase\n"
            "from repro.kb.triple import Entity\n"
            "kb = KnowledgeBase(Ontology([]))\n"
            "kb.add_entity(Entity('f1', 'Am\\u00e9lie', 'film'))\n"
            "save_kb(kb, sys.argv[1])\n"
            "assert load_kb(sys.argv[1]).entity('f1').name == 'Am\\u00e9lie'\n"
            "print(locale.getpreferredencoding(False))\n"
        )
        path = tmp_path / "kb.json"
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", probe, str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "utf" not in proc.stdout.lower()  # the locale really is ASCII
        assert "Amélie".encode("utf-8") in path.read_bytes()
