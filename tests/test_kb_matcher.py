"""Tests for repro.kb.matcher (page/KB matching)."""

from repro.dom.parser import parse_html
from repro.kb.matcher import PageMatcher
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value
from repro.text.fuzzy import surface_variants


def build_kb() -> KnowledgeBase:
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("genre", range_kind="string", multi_valued=True),
            Predicate("release_date", range_kind="date"),
        ]
    )
    kb = KnowledgeBase(ontology)
    kb.add_entity(Entity("f1", "Do the Right Thing", "film"))
    kb.add_entity(Entity("p1", "Spike Lee", "person"))
    kb.add_fact("f1", "directed_by", Value.entity("p1"))
    kb.add_fact("f1", "genre", Value.literal("Drama"))
    kb.add_fact("f1", "release_date", Value.literal("1989-06-30"))
    return kb


PAGE = """
<html><body>
<h1>Do the Right Thing</h1>
<div class="credits"><span>Director</span><span>Spike Lee</span></div>
<div class="genres"><span>Drama</span></div>
<div class="release">June 30, 1989</div>
<div class="cast"><span>Spike Lee</span></div>
<p>A very long description that happens to mention Spike Lee within flowing
prose text that runs past the mention-length cutoff and should therefore not
be treated as a candidate entity mention by the matcher at all, even though
the name appears within it somewhere.</p>
</body></html>
"""


class TestPageMatcher:
    def test_entity_mentions(self):
        match = PageMatcher(build_kb()).match(parse_html(PAGE))
        assert set(match.entity_mentions) == {"f1", "p1"}
        # Spike Lee appears twice as a full field (credits + cast).
        assert len(match.entity_mentions["p1"]) == 2

    def test_long_prose_not_matched(self):
        match = PageMatcher(build_kb()).match(parse_html(PAGE))
        for node in match.entity_mentions["p1"]:
            assert len(node.text) < 50

    def test_value_keys_include_literals(self):
        match = PageMatcher(build_kb()).match(parse_html(PAGE))
        assert ("l", "drama") in match.value_keys
        assert ("l", "1989 06 30") in match.value_keys  # via date variant
        assert ("e", "p1") in match.value_keys

    def test_entities_in_field(self):
        doc = parse_html(PAGE)
        match = PageMatcher(build_kb()).match(doc)
        h1_text = doc.text_fields()[0]
        assert match.entities_in_field(h1_text) == {"f1"}

    def test_mentions_of_variants_deduplicated(self):
        """Two surfaces' variants, "spike lee" among both, find the two
        "Spike Lee" fields each once, in XPath order."""
        match = PageMatcher(build_kb()).match(parse_html(PAGE))
        variants = [*surface_variants("Spike Lee"), *surface_variants("Lee, Spike")]
        assert len(variants) > len(set(variants))
        mentions = match.mentions_of_variants(variants)
        assert [m.text for m in mentions] == ["Spike Lee", "Spike Lee"]
        assert [m.xpath for m in mentions] == sorted(m.xpath for m in mentions)

    def test_page_entity_ids(self):
        match = PageMatcher(build_kb()).match(parse_html(PAGE))
        assert match.page_entity_ids() == {"f1", "p1"}

    def test_cache_identity(self):
        matcher = PageMatcher(build_kb())
        doc = parse_html(PAGE)
        assert matcher.match(doc) is matcher.match(doc)
        matcher.clear_cache()
        assert matcher.match(doc) is not None

    def test_cache_bounded_with_eviction(self):
        matcher = PageMatcher(build_kb(), cache_size=2)
        docs = [parse_html(PAGE) for _ in range(5)]
        for doc in docs:
            matcher.match(doc)
        stats = matcher.cache_stats()
        assert stats.size == 2
        assert stats.evictions == 3
        # An evicted page is transparently re-matched with identical results.
        rematch = matcher.match(docs[0])
        assert rematch.page_entity_ids() == {"f1", "p1"}

    def test_cache_stats_hits_and_misses(self):
        matcher = PageMatcher(build_kb(), cache_size=4)
        doc = parse_html(PAGE)
        matcher.match(doc)
        matcher.match(doc)
        stats = matcher.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 1

    def test_cache_keyed_by_doc_id_not_object_identity(self):
        """Two live documents never share cache entries, and the key
        survives the document being re-created (different doc_id)."""
        matcher = PageMatcher(build_kb())
        doc_a = parse_html(PAGE)
        doc_b = parse_html("<html><body><p>Nothing known here</p></body></html>")
        match_a = matcher.match(doc_a)
        match_b = matcher.match(doc_b)
        assert match_a.page_entity_ids() == {"f1", "p1"}
        assert match_b.page_entity_ids() == set()
        assert doc_a.doc_id != doc_b.doc_id

    def test_no_matches(self):
        doc = parse_html("<html><body><p>Nothing known here</p></body></html>")
        match = PageMatcher(build_kb()).match(doc)
        assert match.page_entity_ids() == set()
        assert match.value_keys == set()
