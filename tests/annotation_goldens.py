"""Annotation goldens: one sha256 per fixture of what Algorithms 1-2 and
the model's name space produce.

``tests/golden/annotation_digests.json`` pins, per fixture, a digest of
the annotation rows (page, topic entity and node, predicate, mention
XPath, object key and text) and, where the fixture trains, each cluster
model's vocabulary (names and columns), classes and frequent strings.
All of these are strings and ints, so the digests hold on any numpy or
scipy; the models' floats are compared at test time against
``reference_chain`` instead.  The fixtures are the SWDE and IMDb sets,
the annotation hot-path benchmark's scaled SWDE and all-genres
hazard fixtures (at the small sizes below), the duplicated-mention and
``min_predicate_pages`` sites, local evidence over seeded random
mention sets (a digest of the chosen mentions' XPaths), and the
cross-site global model's vocabulary (names and columns), classes and
predicates.

The digests were written on the tree that still carried the
pure-Python oracles (``legacy_annotate``, ``legacy_train``,
``legacy_best_local_mentions``): on such a tree ``--write`` computes
every fixture through both paths and writes nothing unless they agree.
Regenerate them only for an intended annotation change, and say why::

    PYTHONPATH=src python tests/annotation_goldens.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.annotation.relation import RelationAnnotator
from repro.core.annotation.topic import TopicIdentifier
from repro.core.config import CeresConfig
from repro.core.pipeline import CeresPipeline
from repro.datasets import generate_imdb, generate_swde, seed_kb_for
from repro.dom.parser import parse_html
from repro.kb.ontology import Ontology, Predicate
from repro.kb.store import KnowledgeBase
from repro.kb.triple import Entity, Value
from repro.transfer import collect_site_examples, train_global

GOLDEN = Path(__file__).parent / "golden" / "annotation_digests.json"

#: Page counts of the benchmark fixtures the goldens pin (the ``-quick``
#: entries); ``bench_annotation_hotpath.py`` runs 600 and 150.
SCALED_SWDE_QUICK_PAGES = 50
HAZARD_QUICK_PAGES = 40


def goldens() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _call(obj, name: str, legacy: bool, *args):
    """``obj.name(*args)``, or the ``legacy_`` oracle of a tree that has one."""
    return getattr(obj, f"legacy_{name}" if legacy else name)(*args)


# -- digests ------------------------------------------------------------------


def annotation_rows(annotated_pages) -> list:
    return [
        (
            page.page_index,
            page.topic_entity_id,
            page.topic_node.xpath,
            annotation.predicate,
            annotation.node.xpath,
            annotation.object_key,
            annotation.object_text,
        )
        for page in annotated_pages
        for annotation in page.annotations
    ]


def annotated_digest(annotated_pages) -> str:
    """Digest of one annotator run's rows."""
    return _digest(annotation_rows(annotated_pages))


def result_digest(result) -> str:
    """Digest of a pipeline run's rows and its models' name spaces."""
    models = [
        None
        if cluster.model is None
        else (
            sorted(cluster.model.vectorizer.vocabulary_.items()),
            [str(label) for label in cluster.model.classifier.classes_],
            sorted(cluster.model.feature_extractor.frequent_strings),
        )
        for cluster in result.cluster_results
    ]
    return _digest([annotation_rows(result.annotated_pages), models])


def global_model_digest(model) -> str:
    """Digest of a global model's name space: vocabulary, classes and
    the predicates its overlap features read."""
    return _digest(
        [
            sorted(model.vectorizer.vocabulary_.items()),
            [str(label) for label in model.classifier.classes_],
            list(model.feature_extractor.predicates),
        ]
    )


# -- fixtures ----------------------------------------------------------------


def swde_fixture(pages_per_site: int = 24):
    """SWDE movie site 1 of a seed-11 pair and its seed KB."""
    dataset = generate_swde("movie", n_sites=2, pages_per_site=pages_per_site, seed=11)
    documents = [page.document for page in dataset.sites[1].pages]
    return seed_kb_for(dataset, 11), documents


def scaled_swde_fixture(n_pages: int):
    """The annotation benchmark's cold-path fixture: a scaled SWDE site
    with a match cache that holds the whole cluster."""
    kb, documents = swde_fixture(n_pages)
    return kb, documents, CeresConfig(page_match_cache_size=max(1024, 2 * n_pages))


def global_fixture():
    """SWDE movie sites 0-2 of a seed-7 set of four, the held-out site 3's
    pages and the config: the cross-site global model's training set."""
    dataset = generate_swde("movie", n_sites=4, pages_per_site=12, seed=7)
    kb = seed_kb_for(dataset, 7)
    config = CeresConfig()
    pools = [
        collect_site_examples(site.name, kb, site.documents(), config)
        for site in dataset.sites[:3]
    ]
    return pools, kb.ontology.names(), dataset.sites[3].documents(), config


def imdb_fixture():
    dataset = generate_imdb(seed=3, n_films=20, n_people=10, n_episodes=4)
    return dataset.kb, [page.document for page in dataset.film_pages]


def duplication_kb_and_pages(n_pages=10):
    """Pages with duplicated genre/cast mentions (Examples 3.1-3.2)."""
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("has_cast_member", range_kind="entity", multi_valued=True),
            Predicate("genre", range_kind="string", multi_valued=True),
        ]
    )
    kb = KnowledgeBase(ontology)
    rng = random.Random(4)
    genres = ["Drama", "Comedy", "Action"]
    pages = []
    for i in range(n_pages):
        film = f"f{i}"
        kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
        kb.add_entity(Entity(f"d{i}", f"Director Person {i}", "person"))
        kb.add_fact(film, "directed_by", Value.entity(f"d{i}"))
        page_genres = rng.sample(genres, 2)
        for genre in page_genres:
            kb.add_fact(film, "genre", Value.literal(genre))
        for j in range(3):
            kb.add_entity(Entity(f"a{i}_{j}", f"Actor Person {i} {j}", "person"))
            kb.add_fact(film, "has_cast_member", Value.entity(f"a{i}_{j}"))
        cast_items = "".join(
            f"<li class='cast'>Actor Person {i} {j}</li>" for j in range(3)
        )
        genre_spans = "".join(f"<span>{g}</span>" for g in page_genres)
        browse = "".join(f"<li class='bg'>{g}</li>" for g in genres)
        html = (
            f"<html><body><div class='main'>"
            f"<h1>Feature Film {i} Story</h1>"
            f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
            f"<div class='genres'>{genre_spans}</div>"
            f"<ul class='castlist'>{cast_items}</ul></div>"
            f"<aside><ul class='all'>{browse}</ul></aside></body></html>"
        )
        pages.append(parse_html(html))
    return kb, pages


def all_genres_site(
    n_pages: int, seed: int = 7, max_fill: int = 40, max_depth: int = 5
) -> tuple[KnowledgeBase, list]:
    """The paper's all-genres hazard (Section 5.5.1) with template jitter.

    Every page lists the full (small) genre vocabulary in a browse list
    whose item positions, filler counts, and nesting depths jitter per
    page, alongside the film's real genres in the info section.  Every
    genre is therefore duplicated *and* over-represented, so Algorithm 2
    must cluster hundreds of distinct mention XPaths per predicate.
    """
    rng = random.Random(seed)
    ontology = Ontology(
        [
            Predicate("directed_by", range_kind="entity"),
            Predicate("has_cast_member", range_kind="entity", multi_valued=True),
            Predicate("genre", range_kind="string", multi_valued=True),
        ]
    )
    kb = KnowledgeBase(ontology)
    genres = ["Drama", "Comedy", "Action", "Documentary"]
    pages = []
    for i in range(n_pages):
        film, director = f"f{i}", f"d{i}"
        kb.add_entity(Entity(film, f"Feature Film {i} Story", "film"))
        kb.add_entity(Entity(director, f"Director Person {i}", "person"))
        cast = [f"a{i}_{j}" for j in range(4)]
        for j, actor in enumerate(cast):
            kb.add_entity(Entity(actor, f"Actor Person {i} {j}", "person"))
        kb.add_fact(film, "directed_by", Value.entity(director))
        page_genres = rng.sample(genres, 3)
        for genre in page_genres:
            kb.add_fact(film, "genre", Value.literal(genre))
        for actor in cast:
            kb.add_fact(film, "has_cast_member", Value.entity(actor))

        pad_top = "".join(
            f"<div class='pad'><span>filler {k}</span></div>"
            for k in range(rng.randint(0, 8))
        )
        cast_items = "".join(
            f"<li class='cast'>Actor Person {i} {j}</li>" for j in range(4)
        )
        genre_spans = "".join(
            f"<span class='g'>{genre}</span>" for genre in page_genres
        )
        items = []
        for genre in genres:
            depth = rng.randint(0, max_depth)
            items.append(
                "<li class='bg'>" + "<b>" * depth + genre + "</b>" * depth + "</li>"
            )
        for k in range(rng.randint(2, max_fill)):
            items.append(f"<li class='fill'>browse item {k}</li>")
        rng.shuffle(items)
        html = (
            f"<html><body><div class='main'>{pad_top}"
            f"<h1>Feature Film {i} Story</h1>"
            f"<div class='credit'><span>Director</span><span>Director Person {i}</span></div>"
            f"<div class='genres'>{genre_spans}</div>"
            f"<ul class='castlist'>{cast_items}</ul>"
            f"</div><aside class='browse'><ul class='all'>{''.join(items)}</ul></aside>"
            f"</body></html>"
        )
        pages.append(parse_html(html))
    return kb, pages


def random_mention_sets(pages, seed: int = 9):
    """Seeded ``(mentions, co-object groups)`` draws over ``pages``' text
    fields, 20 per page."""
    rng = random.Random(seed)
    draws = []
    for document in pages:
        fields = document.text_fields()
        for _ in range(20):
            mentions = rng.sample(fields, rng.randint(2, min(5, len(fields))))
            groups = [
                rng.sample(fields, rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            ]
            draws.append((mentions, groups))
    return draws


# -- what each fixture digests -------------------------------------------------


def _pipeline_digest(kb, documents, config, legacy):
    pipeline = CeresPipeline(kb, config)
    result = _call(pipeline, "annotate", legacy, documents)
    _call(pipeline, "train", legacy, documents, result)
    return result_digest(result)


def _annotator_digest(kb, pages, config, legacy):
    identifier = TopicIdentifier(kb, config)
    topics = identifier.identify(pages)
    annotator = RelationAnnotator(kb, config, identifier.matcher)
    return annotated_digest(_call(annotator, "annotate", legacy, pages, topics))


def _random_doms_digest(legacy):
    kb, pages = duplication_kb_and_pages(4)
    annotator = RelationAnnotator(kb, CeresConfig())
    chosen = [
        [node.xpath for node in _call(annotator, "best_local_mentions", legacy, *draw)]
        for draw in random_mention_sets(pages)
    ]
    return _digest(chosen)


def _global_model_digest():
    pools, predicates, _, config = global_fixture()
    return global_model_digest(train_global(pools, predicates, config))


#: fixture id -> digest through the current path (or the legacy oracle).
FIXTURES = {
    "swde": lambda legacy: _pipeline_digest(*swde_fixture(), CeresConfig(), legacy),
    "imdb": lambda legacy: _pipeline_digest(*imdb_fixture(), CeresConfig(), legacy),
    "scaled-swde-quick": lambda legacy: _pipeline_digest(
        *scaled_swde_fixture(SCALED_SWDE_QUICK_PAGES), legacy
    ),
    "hazard-quick": lambda legacy: _annotator_digest(
        *all_genres_site(HAZARD_QUICK_PAGES),
        CeresConfig(page_match_cache_size=1024),
        legacy,
    ),
    "duplicated-mentions": lambda legacy: _annotator_digest(
        *duplication_kb_and_pages(), CeresConfig(), legacy
    ),
    "min-predicate-pages": lambda legacy: _annotator_digest(
        *duplication_kb_and_pages(5), CeresConfig(min_predicate_pages=2), legacy
    ),
    "random-doms": _random_doms_digest,
    "global-model": lambda legacy: _global_model_digest(),
}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/annotation_goldens.py --write")
    cross_check = hasattr(RelationAnnotator, "legacy_annotate")
    digests = {fixture_id: digest(False) for fixture_id, digest in FIXTURES.items()}
    if cross_check:
        differ = [
            fixture_id
            for fixture_id, digest in FIXTURES.items()
            if digest(True) != digests[fixture_id]
        ]
        if differ:
            sys.exit(f"fast and legacy paths differ on {differ}; nothing written")
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    checked = "fast == legacy on every entry" if cross_check else "no legacy path"
    print(f"wrote {len(digests)} digests to {GOLDEN} ({checked})")
