"""Per-subject surface-variant indexes for relation annotation.

Relation annotation (Algorithm 2) retrieves, for every page topic, all KB
objects of that topic and looks their surface forms up on the page.  The
surface forms pass through :func:`repro.text.fuzzy.surface_variants`,
and expanding them per triple and page would regenerate the same cast
member's variants for each of their films, on each page mentioning one.

:class:`SurfaceIndex` precomputes, per subject, the deduplicated list of
``(predicate, object key, object text, variants)`` entries exactly once
(lazily, cached for the lifetime of the index — one index per annotator
serves a whole template cluster).  The variant lists are flattened across
an object's surfaces, so :meth:`repro.kb.matcher.PageMatch.mentions_of_variants`
can consume them directly: it deduplicates nodes and sorts them by
XPath, so only the *union* of an object's variants matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kb.store import KnowledgeBase, ValueKey
from repro.text.fuzzy import surface_variants

__all__ = ["SubjectObject", "SurfaceIndex"]


@dataclass(frozen=True)
class SubjectObject:
    """One distinct (predicate, object) of a subject, with its variants."""

    predicate: str
    object_key: ValueKey
    object_text: str
    variants: tuple[str, ...]


class SurfaceIndex:
    """Lazily caches per-subject object entries against one KB.

    The KB is treated as immutable for the index's lifetime (annotation
    never mutates it); build one index per annotation run.
    """

    def __init__(self, kb: KnowledgeBase) -> None:
        self.kb = kb
        self._by_subject: dict[str, tuple[SubjectObject, ...]] = {}
        #: (predicate, object key) -> flattened variants; objects shared
        #: across subjects (genres, people) expand once, not per subject.
        self._variant_cache: dict[tuple[str, ValueKey], tuple[str, ...]] = {}

    def entries_for_subject(self, subject_id: str) -> tuple[SubjectObject, ...]:
        """Deduplicated object entries of ``subject_id``.

        Triples in insertion order, first occurrence of each ``(predicate,
        object key)`` wins, objects with no surfaces skipped.
        """
        cached = self._by_subject.get(subject_id)
        if cached is not None:
            return cached
        kb = self.kb
        entries: list[SubjectObject] = []
        seen: set[tuple[str, ValueKey]] = set()
        for triple in kb.triples_for_subject(subject_id):
            key = (triple.predicate, triple.object.key)
            if key in seen:
                continue
            seen.add(key)
            variants = self._variants_for(key, triple)
            if not variants:
                continue
            object_text = (
                kb.entity(triple.object.value).name
                if triple.object.is_entity
                else triple.object.value
            )
            entries.append(
                SubjectObject(triple.predicate, triple.object.key, object_text, variants)
            )
        result = tuple(entries)
        self._by_subject[subject_id] = result
        return result

    def _variants_for(self, key: tuple[str, ValueKey], triple) -> tuple[str, ...]:
        """Flattened, order-preserving union of the object's surface variants."""
        cached = self._variant_cache.get(key)
        if cached is not None:
            return cached
        surfaces = self.kb.object_surfaces(triple)
        flattened: list[str] = []
        seen: set[str] = set()
        for surface in surfaces:
            for variant in surface_variants(surface):
                if variant not in seen:
                    seen.add(variant)
                    flattened.append(variant)
        result = tuple(flattened)
        self._variant_cache[key] = result
        return result
