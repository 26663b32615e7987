"""Matching page text fields against the knowledge base.

Bridges the DOM and KB layers: given a parsed page, produce

* the *pageSet* — all KB value keys mentioned anywhere on the page
  (Algorithm 1, line 4),
* per-text-field entity candidates (topic identification), and
* mention lookups for specific object values (relation annotation).

Matching results are cached per document: topic identification, relation
annotation, and evaluation all re-read the same matches.  The cache is a
bounded LRU keyed by ``Document.doc_id`` (process-unique, never recycled
— unlike ``id()``), so a long-lived process neither grows without bound
nor risks serving one page's matches for another.
"""

from __future__ import annotations

from collections import defaultdict

from repro.dom.node import TextNode
from repro.dom.parser import Document
from repro.kb.store import KnowledgeBase, ValueKey
from repro.runtime.cache import CacheStats, LRUCache
from repro.text.fuzzy import surface_variants
from repro.text.normalize import normalize_text

__all__ = ["PageMatch", "PageMatcher", "DEFAULT_MATCH_CACHE_SIZE"]

#: Fallback cache capacity when no config-driven size is supplied; kept in
#: sync with :attr:`repro.core.config.CeresConfig.page_match_cache_size`.
DEFAULT_MATCH_CACHE_SIZE = 512

#: Text fields longer than this are never entity mentions — they are prose
#: blurbs; matching them would be both slow and noisy.
MAX_MENTION_LENGTH = 120


class PageMatch:
    """Match results for one document."""

    def __init__(
        self,
        document: Document,
        entity_mentions: dict[str, list[TextNode]],
        field_entities: dict[int, set[str]],
        value_keys: set[ValueKey],
        fields_by_norm: dict[str, list[TextNode]],
        field_value_keys: dict[int, set[ValueKey]],
    ) -> None:
        self.document = document
        #: entity id -> text nodes mentioning it.
        self.entity_mentions = entity_mentions
        #: id(text node) -> entity ids matched in that field.
        self._field_entities = field_entities
        #: all KB value keys (entities + literals) found on the page.
        self.value_keys = value_keys
        #: normalized field text -> text nodes carrying it.
        self._fields_by_norm = fields_by_norm
        #: id(text node) -> value keys matched in that field.
        self._field_value_keys = field_value_keys

    def entities_in_field(self, node: TextNode) -> set[str]:
        """Entity ids whose surfaces match the text of ``node``."""
        return self._field_entities.get(id(node), set())

    def value_keys_in_field(self, node: TextNode) -> set[ValueKey]:
        """KB value keys (entities and literals) matching the text of ``node``."""
        return self._field_value_keys.get(id(node), set())

    def page_entity_ids(self) -> set[str]:
        """All entity ids mentioned on the page."""
        return set(self.entity_mentions.keys())

    def mentions_of_variants(self, variants) -> list[TextNode]:
        """Text nodes matching any of the normalized ``variants`` (as
        :func:`repro.text.fuzzy.surface_variants` expands them, e.g. once
        per subject in :class:`repro.kb.surfaces.SurfaceIndex`).

        Duplicates are removed (two variants can match the same field)
        and the result is sorted by XPath, so it depends only on the
        *set* of variants supplied.
        """
        seen: set[int] = set()
        found: list[TextNode] = []
        fields = self._fields_by_norm
        for variant in variants:
            nodes = fields.get(variant)
            if nodes:
                for node in nodes:
                    if id(node) not in seen:
                        seen.add(id(node))
                        found.append(node)
        found.sort(key=lambda n: n.xpath)
        return found


class PageMatcher:
    """Produces :class:`PageMatch` objects for documents against one KB."""

    def __init__(
        self, kb: KnowledgeBase, cache_size: int = DEFAULT_MATCH_CACHE_SIZE
    ) -> None:
        self.kb = kb
        self._cache: LRUCache[int, PageMatch] = LRUCache(
            cache_size, name="page_match"
        )

    def match(self, document: Document) -> PageMatch:
        """Match every text field of ``document`` against the KB (cached)."""
        cached = self._cache.get(document.doc_id)
        if cached is not None:
            return cached

        entity_mentions: dict[str, list[TextNode]] = defaultdict(list)
        field_entities: dict[int, set[str]] = {}
        value_keys: set[ValueKey] = set()
        fields_by_norm: dict[str, list[TextNode]] = defaultdict(list)
        field_value_keys: dict[int, set[ValueKey]] = {}

        kb = self.kb
        for node in document.text_fields():
            # Hoisted per-field work: strip once, normalize once, and
            # compute the surface variants once — both index probes below
            # used to redo the variant generation per lookup.
            text = node.text.strip()
            if not text:
                continue
            norm = normalize_text(text)
            if norm:
                fields_by_norm[norm].append(node)
            if len(text) > MAX_MENTION_LENGTH:
                continue
            variants = surface_variants(text)
            entity_ids = kb.entity_ids_for_variants(variants)
            if entity_ids:
                field_entities[id(node)] = entity_ids
                for entity_id in entity_ids:
                    entity_mentions[entity_id].append(node)
            keys = kb.value_keys_for_variants(variants)
            if keys:
                value_keys |= keys
                field_value_keys[id(node)] = keys

        match = PageMatch(
            document,
            dict(entity_mentions),
            field_entities,
            value_keys,
            dict(fields_by_norm),
            field_value_keys,
        )
        self._cache.put(document.doc_id, match)
        return match

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the match cache."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        self._cache.clear()
