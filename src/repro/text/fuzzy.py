"""Fuzzy string matching between webpage text and KB surface forms.

Implements the matching process the paper adopts from Gulhane et al. [18]
("Exploiting content redundancy for web information extraction"): each text
field on a page is matched against the knowledge base through an inverted
index of *normalized surface variants*.  A surface form generates several
variants:

* the normalized string itself,
* the string with a trailing parenthetical removed ("Crooklyn (1994)"),
* the comma-inverted form for person-like names ("Lee, Spike" → "spike lee").

Matching is exact on variants — the variant generation supplies the
"fuzziness".  This mirrors the high-precision matching regime the paper
needs: annotation quality depends on not hallucinating matches.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Hashable, Iterable
from typing import TypeVar

from repro.text.normalize import normalize_text, strip_parenthetical

__all__ = ["surface_variants", "StringIndex"]

V = TypeVar("V", bound=Hashable)


#: Surfaces longer than this bypass the variant memo (mirrors
#: ``repro.text.normalize``'s cache guard): one-off long strings must not
#: pin cache memory for the process lifetime.
_VARIANT_CACHE_MAX_LEN = 256


def surface_variants(text: str) -> frozenset[str]:
    """All normalized variants under which ``text`` should be indexed/looked up.

    The result is a shared, memoized frozenset — variant generation is
    pure and the same surfaces recur across every page of a site, so each
    distinct string expands once per process, not once per lookup.  Treat
    the returned set as immutable.

    >>> sorted(surface_variants("Lee, Spike"))
    ['lee spike', 'spike lee']
    """
    if len(text) <= _VARIANT_CACHE_MAX_LEN:
        return _variants_cached(text)
    return _variants(text)


def _variants(text: str) -> frozenset[str]:
    variants: set[str] = set()
    base = normalize_text(text)
    if base:
        variants.add(base)
    stripped = strip_parenthetical(text)
    if stripped and stripped != text:
        normalized = normalize_text(stripped)
        if normalized:
            variants.add(normalized)
    # Comma inversion: "Last, First" <-> "First Last".  Only applied when
    # there is exactly one comma and both sides are short name-like spans.
    # Tested on the parenthetical-stripped form: a comma inside a trailing
    # qualifier — "Gladiator (2000, UK)" — is not a name inversion, and
    # indexing its inverted form would fabricate KB matches.
    if stripped.count(",") == 1:
        last, first = (part.strip() for part in stripped.split(","))
        if last and first and len(last.split()) <= 3 and len(first.split()) <= 3:
            inverted = normalize_text(f"{first} {last}")
            if inverted:
                variants.add(inverted)
    return frozenset(variants)


_variants_cached = functools.lru_cache(maxsize=1 << 16)(_variants)


class StringIndex:
    """Inverted index from normalized surface variants to payload values.

    Payloads are typically entity identifiers (for entity mentions) or
    ``("literal", predicate)`` style keys (for literal values).  The same
    payload may be registered under many surfaces (aliases).
    """

    def __init__(self) -> None:
        self._index: dict[str, set] = defaultdict(set)

    def __len__(self) -> int:
        """Number of distinct indexed variants."""
        return len(self._index)

    def add(self, surface: str, value: V) -> None:
        """Index ``value`` under all variants of ``surface``."""
        for variant in surface_variants(surface):
            self._index[variant].add(value)

    def lookup(self, text: str) -> set:
        """Return the union of payloads for all variants of ``text``."""
        return self.lookup_variants(surface_variants(text))

    def lookup_variants(self, variants: Iterable[str]) -> set:
        """Union of payloads for precomputed ``variants``.

        Callers probing several indexes with the same text (e.g.
        :meth:`repro.kb.matcher.PageMatcher.match`) compute
        :func:`surface_variants` once and reuse it here.
        """
        result: set = set()
        for variant in variants:
            found = self._index.get(variant)
            if found:
                result |= found
        return result

    def contains(self, text: str) -> bool:
        """True if any variant of ``text`` has at least one payload."""
        return any(variant in self._index for variant in surface_variants(text))

    def update(self, surfaces: Iterable[str], value: V) -> None:
        """Index ``value`` under each surface in ``surfaces``."""
        for surface in surfaces:
            self.add(surface, value)
