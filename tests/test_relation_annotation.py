"""Tests for repro.core.annotation.relation (Algorithm 2)."""

from repro.core.annotation.relation import RelationAnnotator
from repro.core.annotation.topic import TopicIdentifier
from repro.core.config import CeresConfig
from repro.dom.parser import parse_html
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value


def build_kb() -> KnowledgeBase:
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("written_by", range_kind="entity"),
            Predicate("has_cast_member", range_kind="entity", multi_valued=True),
            Predicate("genre", range_kind="string", multi_valued=True),
        ]
    )
    kb = KnowledgeBase(ontology)
    return kb


def spike_lee_site(n_pages: int = 6) -> tuple[KnowledgeBase, list]:
    """Pages reproducing Example 3.1: the director also acts, and the cast
    list holds the 'acted in' mention; plus Example 3.2: genres duplicated
    in a recommendation block."""
    kb = build_kb()
    pages = []
    for i in range(n_pages):
        film = f"f{i}"
        director = f"d{i}"
        writer_is_director = i % 3 == 0  # partial overlap, like reality
        kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
        kb.add_entity(Entity(director, f"Director Person {i}", "person"))
        kb.add_entity(Entity(f"w{i}", f"Writer Person {i}", "person"))
        cast = []
        for j in range(3):
            actor = f"a{i}_{j}"
            kb.add_entity(Entity(actor, f"Actor Person {i} {j}", "person"))
            cast.append(actor)
        writer_name = (
            f"Director Person {i}" if writer_is_director else f"Writer Person {i}"
        )
        director_acts = i % 2 == 0  # the Spike Lee case, on some pages
        kb.add_fact(film, "directed_by", Value.entity(director))
        kb.add_fact(
            film, "written_by",
            Value.entity(director if writer_is_director else f"w{i}"),
        )
        if director_acts:
            kb.add_fact(film, "has_cast_member", Value.entity(director))
        for actor in cast:
            kb.add_fact(film, "has_cast_member", Value.entity(actor))
        kb.add_fact(film, "genre", Value.literal(f"GenreA{i % 2}"))
        kb.add_fact(film, "genre", Value.literal(f"GenreB{i % 3}"))

        cast_items = "".join(
            f"<li class='cast'>Actor Person {i} {j}</li>" for j in range(3)
        )
        if director_acts:
            cast_items += f"<li class='cast'>Director Person {i}</li>"
        html = (
            f"<html><body><div class='main'>"
            f"<h1>Feature Film {i} Story</h1>"
            f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
            f"<div class='credit'><span>Writer</span><span>{writer_name}</span></div>"
            f"<div class='genres'><span>GenreA{i % 2}</span><span>GenreB{i % 3}</span></div>"
            f"<ul class='castlist'>{cast_items}</ul>"
            # Recommendation block duplicating another film's genres.
            f"<div class='recs'><h4>Related Film {i}</h4>"
            f"<span>GenreA{(i + 1) % 2}</span><span>GenreB{(i + 1) % 3}</span></div>"
            f"</div></body></html>"
        )
        pages.append(parse_html(html))
    return kb, pages


def annotate(kb, pages, config=None):
    config = config or CeresConfig()
    identifier = TopicIdentifier(kb, config)
    topics = identifier.identify(pages)
    annotator = RelationAnnotator(kb, config, identifier.matcher)
    return annotator.annotate(pages, topics), topics


class TestLocalEvidence:
    def test_acted_in_resolved_to_cast_list(self):
        """Example 3.1: the director's 'has_cast_member' mention resolves to
        the cast-list occurrence, not the credit rows."""
        kb, pages = spike_lee_site()
        annotated, _ = annotate(kb, pages)
        assert annotated
        director_cast = [
            a
            for page in annotated
            if page.page_index % 2 == 0  # pages where the director acts
            for a in page.annotations
            if a.predicate == "has_cast_member"
            and a.object_text.startswith("Director")
        ]
        assert director_cast, "director's cast membership not annotated"
        for annotation in director_cast:
            assert "li" in annotation.node.xpath, (
                "expected the cast-list mention, got " + annotation.node.xpath
            )

    def test_at_most_one_mention_per_object_per_predicate(self):
        kb, pages = spike_lee_site()
        annotated, _ = annotate(kb, pages)
        for page in annotated:
            seen = set()
            for annotation in page.annotations:
                key = (annotation.predicate, annotation.object_key)
                assert key not in seen, f"object annotated twice for {key}"
                seen.add(key)

    def test_directed_by_on_director_row(self):
        kb, pages = spike_lee_site(9)
        annotated, _ = annotate(kb, pages)
        directed = [
            a
            for page in annotated
            for a in page.annotations
            if a.predicate == "directed_by"
        ]
        assert directed
        # Must NOT be the cast-list node.
        for annotation in directed:
            assert "li" not in annotation.node.xpath


class TestGlobalEvidence:
    def test_genre_annotated_in_dominant_region(self):
        """Example 3.2: duplicated genre mentions resolve to the info
        section (larger cluster), not the recommendation block."""
        kb, pages = spike_lee_site(8)
        annotated, _ = annotate(kb, pages)
        genre_nodes = [
            a.node.xpath
            for page in annotated
            for a in page.annotations
            if a.predicate == "genre"
        ]
        assert genre_nodes
        for xpath in genre_nodes:
            assert "div[3]" in xpath or "genres" in xpath or "div[4]" not in xpath

    def test_topic_node_never_annotated_as_relation(self):
        kb, pages = spike_lee_site()
        annotated, topics = annotate(kb, pages)
        for page in annotated:
            for annotation in page.annotations:
                assert annotation.node is not page.topic_node


class TestInformativenessFilter:
    def test_pages_below_min_annotations_dropped(self):
        kb, pages = spike_lee_site()
        config = CeresConfig(min_annotations_per_page=1000)
        annotated, topics = annotate(kb, pages, config)
        assert topics  # topics were found
        assert annotated == []  # but no page passes the filter


    def test_over_represented_object_outside_dominant_region_dropped(self):
        """Every film is a Drama, and a sidebar lists Drama on every page.
        Page 0 shows Drama only there: its one mention is unambiguous
        locally, but the object is over-represented and the mention sits
        outside the dominant region (the info genres), so it is not
        annotated (Section 5.5.1's all-genres hazard)."""
        kb = build_kb()
        pages = []
        for i in range(8):
            film = f"f{i}"
            kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
            kb.add_entity(Entity(f"d{i}", f"Director Person {i}", "person"))
            kb.add_fact(film, "directed_by", Value.entity(f"d{i}"))
            for j in range(3):
                kb.add_entity(Entity(f"a{i}_{j}", f"Actor Person {i} {j}", "person"))
                kb.add_fact(film, "has_cast_member", Value.entity(f"a{i}_{j}"))
            kb.add_fact(film, "genre", Value.literal("Drama"))
            kb.add_fact(film, "genre", Value.literal(f"Style{i}"))
            info_genres = f"<span>Style{i}</span>" + ("<span>Drama</span>" if i else "")
            cast = "".join(f"<li>Actor Person {i} {j}</li>" for j in range(3))
            pages.append(parse_html(
                f"<html><body><div class='main'><h1>Feature Film {i} Story</h1>"
                f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
                f"<div class='genres'>{info_genres}</div><ul class='cast'>{cast}</ul></div>"
                f"<aside><ul class='popular'><li>Drama</li></ul></aside></body></html>"
            ))
        annotated, _ = annotate(kb, pages)
        dramas = {
            page.page_index: a.node.xpath
            for page in annotated
            for a in page.annotations
            if a.object_text == "Drama"
        }
        assert 0 in {page.page_index for page in annotated}
        assert 0 not in dramas
        assert set(dramas) == set(range(1, 8))
        assert all("aside" not in xpath for xpath in dramas.values())


class TestBestLocalMentions:
    def test_single_mention_trivial(self):
        kb, pages = spike_lee_site(2)
        annotator = RelationAnnotator(kb, CeresConfig())
        field = pages[0].text_fields()[0]
        assert annotator.best_local_mentions([field], [[field]]) == [field]

    def test_mention_with_more_co_objects_wins(self):
        kb = build_kb()
        kb.add_entity(Entity("f", "The Film Title Here", "film"))
        for j in range(3):
            kb.add_entity(Entity(f"p{j}", f"Cast Member {j} Name", "person"))
            kb.add_fact("f", "has_cast_member", Value.entity(f"p{j}"))
        html = (
            "<html><body>"
            "<ul class='cast'><li>Cast Member 0 Name</li><li>Cast Member 1 Name</li>"
            "<li>Cast Member 2 Name</li></ul>"
            "<div class='mention'>Cast Member 0 Name</div>"
            "</body></html>"
        )
        doc = parse_html(html)
        annotator = RelationAnnotator(kb, CeresConfig())
        fields = doc.text_fields()
        mentions_p0 = [fields[0], fields[3]]  # list + stray mention
        co = [mentions_p0, [fields[1]], [fields[2]]]
        best = annotator.best_local_mentions(mentions_p0, co)
        assert best == [fields[0]]
