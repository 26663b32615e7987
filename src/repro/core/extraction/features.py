"""DOM node features — Section 4.2 of the paper.

Two feature families represent a text node:

* **Structural features** (from the Vertex project [17]): for the node's
  element, its ancestors, and the siblings of those ancestors (width 5 on
  either side), emit a 4-tuple feature for each of the HTML attributes
  ``tag``, ``class``, ``id``, ``itemprop``, ``itemtype``, ``property``:
  ``(attribute name, attribute value, levels of ancestry, sibling number)``.

* **Node text features**: strings that appear frequently across the site
  ("Director:", "Genre") are compiled at fit time; a classified node
  receives a feature for each frequent string found nearby, consisting of
  the string and the tree path from the node to the string's element.

Every feature name carries an explicit namespace prefix (see
:mod:`repro.ml.features`): tag-topology structural features are
``xfer:`` (they transfer across sites of a vertical — the ZeroShotCeres
observation), while attribute-value structural features and
frequent-string text features are ``site:`` (CSS classes, microdata
URLs, and the string lexicon are one site's private vocabulary).  The
cross-site global model (:mod:`repro.transfer`) trains on the ``xfer:``
namespace only; per-site models consume both.

Feature extraction is the hot loop of both training and extraction, so the
nearby-string search uses a per-page registry: each frequent-string node
registers itself on its first ``text_feature_height`` ancestors with the
downward tag path; a classified node then only inspects its own first
``text_feature_height`` ancestors.

Each extractor keeps only the last page's registry, keyed by
``Document.doc_id``: callers read one page's nodes in a row, a
long-lived process retains one registry at most, and — unlike an
``id()`` — a ``doc_id`` is never recycled, so one page's registry is
never handed to another.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.core.config import CeresConfig
from repro.dom.node import ElementNode, TextNode
from repro.dom.parser import Document

__all__ = ["NodeFeatureExtractor", "FeatureNameBatcher"]

FeatureDict = dict[str, float]

#: Safety valve for the cross-page caches of :class:`FeatureNameBatcher`;
#: template clusters converge to a handful of entries, pathological sites
#: just recompute.
_BATCHER_CACHE_LIMIT = 4096


class NodeFeatureExtractor:
    """Produces the feature dictionary for a DOM text node."""

    def __init__(self, config: CeresConfig | None = None) -> None:
        self.config = config or CeresConfig()
        self.frequent_strings: set[str] = set()
        #: ``(doc_id, registry)`` of the last page seen by :meth:`registry_for`.
        self._last_registry: tuple[int | None, dict[int, list[tuple[str, str]]]] = (
            None, {}
        )

    # -- fitting -----------------------------------------------------------

    def fit(self, documents: list[Document]) -> NodeFeatureExtractor:
        """Compile the site's frequent strings (node-text feature lexicon).

        A string qualifies when it occurs on at least
        ``frequent_string_min_fraction`` of pages and is at most
        ``max_frequent_string_length`` characters; the most widespread
        ``max_frequent_strings`` are kept.
        """
        config = self.config
        document_frequency: Counter[str] = Counter()
        for document in documents:
            page_strings = {
                node.text.strip()
                for node in document.text_fields()
                if 0 < len(node.text.strip()) <= config.max_frequent_string_length
            }
            document_frequency.update(page_strings)
        if not documents:
            return self
        min_pages = max(2, int(config.frequent_string_min_fraction * len(documents)))
        qualifying = [
            (count, text)
            for text, count in document_frequency.items()
            if count >= min_pages
        ]
        qualifying.sort(key=lambda pair: (-pair[0], pair[1]))
        self.frequent_strings = {
            text for _, text in qualifying[: config.max_frequent_strings]
        }
        return self

    # -- per-page registry for nearby frequent strings ---------------------

    def registry_for(self, document: Document) -> dict[int, list[tuple[str, str]]]:
        """Map ancestor-element id -> [(frequent string, downward path)].

        Each frequent-string occurrence registers itself on its enclosing
        element and ``text_feature_height`` further ancestors; the downward
        path records the tag chain from the ancestor to the string.  The
        per-node path and :class:`FeatureNameBatcher` read this registry
        (the compiled scorer builds its own equivalent).  The last page's
        registry is kept, so one page's nodes build it once.
        """
        doc_id, registry = self._last_registry
        if doc_id == document.doc_id:
            return registry
        registry = defaultdict(list)
        height = self.config.text_feature_height
        for node in document.text_fields():
            text = node.text.strip()
            if text not in self.frequent_strings:
                continue
            down_path: list[str] = []
            element: ElementNode | None = node.parent
            level = 0
            while element is not None and level <= height:
                registry[id(element)].append((text, "/".join(reversed(down_path))))
                down_path.append(element.tag)
                element = element.parent
                level += 1
        registry = dict(registry)
        self._last_registry = (document.doc_id, registry)
        return registry

    # -- feature extraction --------------------------------------------------

    def features(self, node: TextNode, document: Document) -> FeatureDict:
        """The full feature dictionary for one text node."""
        result: FeatureDict = {}
        self._structural_features(node, result)
        self._text_features(node, document, result)
        return result

    def _structural_features(self, node: TextNode, result: FeatureDict) -> None:
        """Vertex-style 4-tuple features over ancestors and their siblings."""
        config = self.config
        element: ElementNode | None = node.parent
        level = 0
        while element is not None and level <= config.struct_ancestor_levels:
            self._attribute_features(element, level, 0, result)
            parent = element.parent
            if parent is not None:
                siblings = parent.element_children()
                # Parse-time sibling position; the identity check preserves
                # the old scan's "not actually a child" fallback for
                # hand-assembled trees without the O(siblings) cost.
                position = element.element_index
                if position >= len(siblings) or siblings[position] is not element:
                    position = -1
                if position >= 0:
                    width = config.struct_sibling_width
                    for offset in range(-width, width + 1):
                        if offset == 0:
                            continue
                        sibling_index = position + offset
                        if 0 <= sibling_index < len(siblings):
                            self._attribute_features(
                                siblings[sibling_index], level, offset, result
                            )
            element = parent
            level += 1

    def _attribute_features(
        self, element: ElementNode, level: int, sibling: int, result: FeatureDict
    ) -> None:
        # Tag topology transfers across sites; attribute values are one
        # site's private vocabulary — hence the namespace split.
        result[f"xfer:s|tag|{element.tag}|{level}|{sibling}"] = 1.0
        for attribute in self.config.struct_attributes:
            value = element.attrs.get(attribute)
            if value:
                result[f"site:s|{attribute}|{value}|{level}|{sibling}"] = 1.0

    def _text_features(
        self, node: TextNode, document: Document, result: FeatureDict
    ) -> None:
        """Nearby frequent-string features: (string, path through the tree)."""
        if not self.frequent_strings:
            return
        registry = self.registry_for(document)
        element: ElementNode | None = node.parent
        ups = 0
        while element is not None and ups <= self.config.text_feature_height:
            for text, down_path in registry.get(id(element), ()):
                result[f"site:t|{text}|u{ups}|{down_path}"] = 1.0
            element = element.parent
            ups += 1


class FeatureNameBatcher:
    """Batched feature-*name* rows for training (the cold-path analogue of
    :class:`repro.core.extraction.scoring.BatchScorer`).

    Training cannot use the compiled scorer — the vocabulary it compiles
    does not exist until the vectorizer has been fitted — but it can
    avoid rebuilding feature names node by node.  A node's feature dict
    depends only on its *parent element*: structural features read the
    parent's ancestor chain and sibling windows, text features read the
    same chain against the page registry.  Template pages repeat those
    chains, so the batcher

    * fingerprints each element once per page (tag + the structural
      attribute values — exactly the inputs the name strings are built
      from);
    * caches each sibling window's rendered names per ancestry level
      across pages, keyed by the window's fingerprint signature;
    * caches whole ancestor chains by the identity of their (cached)
      window and suffix tuples, and whole rows by the identity of their
      struct and text parts — warm template pages resolve a node's entire
      name row with a few dict probes and **zero** f-string formatting.

    Rows are returned as tuples whose *name sets* equal the key sets of
    ``NodeFeatureExtractor.features`` for the same node (struct names are
    unique by construction; duplicate text registrations may repeat and
    are deduplicated by the vectorizer exactly as ``dict`` keys were).
    Identical template rows are returned as the *same object*, which lets
    :meth:`repro.ml.features.FeatureVectorizer.transform_name_rows` sort
    each distinct row once.
    """

    def __init__(self, extractor: NodeFeatureExtractor) -> None:
        self.extractor = extractor
        config = extractor.config
        self._levels = config.struct_ancestor_levels
        self._width = config.struct_sibling_width
        self._attributes = config.struct_attributes
        self._height = config.text_feature_height
        # -- cross-page caches (template-convergent) ----------------------
        #: (tag, attr values...) -> interned fingerprint id; the parallel
        #: list is the inverse (ids are assigned densely).
        self._fingerprints: dict[tuple, int] = {}
        self._fingerprint_keys: list[tuple] = []
        #: window signature (self offset, member fps...) -> interned id,
        #: with the parallel inverse list for rendering.
        self._window_sigs: dict[tuple, int] = {}
        self._window_sig_keys: list[tuple] = []
        #: (window sig id, level) -> rendered window names tuple.
        self._window_names: dict[tuple[int, int], tuple[str, ...]] = {}
        #: (id(window names), id(suffix names)) -> combined chain tuple;
        #: values pin the keyed tuples so their ids stay valid.
        self._chain_cache: dict[tuple[int, int], tuple] = {}
        #: text-name tuple (by value) -> the shared interned tuple.
        self._text_intern: dict[tuple[str, ...], tuple[str, ...]] = {}
        #: (id(struct row), id(text row)) -> (full row, struct, text);
        #: the value pins the keyed tuples so their ids stay valid even
        #: after a guard clear drops the upstream caches that held them.
        self._row_cache: dict[tuple[int, int], tuple] = {}
        # -- per-page scratch ---------------------------------------------
        self._page_key: int | None = None
        self._page_fps: dict[int, int] = {}
        self._page_sigs: dict[int, int] = {}
        self._page_chains: dict[int, list] = {}
        self._page_rows: dict[int, tuple[str, ...]] = {}
        self._registry: dict[int, list[tuple[str, str]]] = {}

    # -- public API --------------------------------------------------------

    def row_for(self, node: TextNode, document: Document) -> tuple[str, ...]:
        """The feature-name row of ``node`` (shared tuple for template twins)."""
        if self._page_key != document.doc_id:
            self._page_key = document.doc_id
            self._page_fps = {}
            self._page_sigs = {}
            self._page_chains = {}
            self._page_rows = {}
            self._registry = (
                self.extractor.registry_for(document)
                if self.extractor.frequent_strings
                else {}
            )
        parent = node.parent
        if parent is None:
            return ()
        cached = self._page_rows.get(id(parent))
        if cached is not None:
            return cached
        struct = self._chain_names(parent, 0)
        text = self._text_names(parent)
        if text:
            row_key = (id(struct), id(text))
            entry = self._row_cache.get(row_key)
            if entry is None:
                self._cache_guard()
                # struct/text ride along in the value to pin the key ids.
                row = struct + text
                self._row_cache[row_key] = (row, struct, text)
            else:
                row = entry[0]
        else:
            row = struct
        self._page_rows[id(parent)] = row
        return row

    # -- structural names --------------------------------------------------

    def _fingerprint(self, element: ElementNode) -> int:
        found = self._page_fps.get(id(element))
        if found is not None:
            return found
        attrs = element.attrs
        key = (element.tag, *(attrs.get(a) or None for a in self._attributes))
        fp = self._fingerprints.get(key)
        if fp is None:
            fp = len(self._fingerprints)
            self._fingerprints[key] = fp
            self._fingerprint_keys.append(key)
        self._page_fps[id(element)] = fp
        return fp

    def _window_sig(self, element: ElementNode) -> int:
        """Interned signature of the element's sibling window.

        Mirrors the legacy scan exactly: no parent or a stale
        ``element_index`` (hand-assembled trees) collapses the window to
        the element alone.  Memoized per element per page — chains from
        different starting depths revisit the same ancestors at different
        levels, and the window itself is level-independent.
        """
        cached = self._page_sigs.get(id(element))
        if cached is not None:
            return cached
        parent = element.parent
        position = element.element_index
        if parent is not None:
            siblings = parent.element_children()
            if position >= len(siblings) or siblings[position] is not element:
                siblings = (element,)
                position = 0
        else:
            siblings = (element,)
            position = 0
        width = self._width
        low = position - width
        if low < 0:
            low = 0
        high = position + width + 1
        if high > len(siblings):
            high = len(siblings)
        fingerprint = self._fingerprint
        key = (
            position - low,
            *(fingerprint(siblings[i]) for i in range(low, high)),
        )
        sig = self._window_sigs.get(key)
        if sig is None:
            sig = len(self._window_sigs)
            self._window_sigs[key] = sig
            # Remember the key for rendering (sig -> key via parallel list).
            self._window_sig_keys.append(key)
        self._page_sigs[id(element)] = sig
        return sig

    def _render_window(self, sig: int, level: int) -> tuple[str, ...]:
        """Names of one window at one ancestry level (cached cross-page)."""
        cached = self._window_names.get((sig, level))
        if cached is not None:
            return cached
        key = self._window_sig_keys[sig]
        self_offset = key[0]
        names: list[str] = []
        fingerprint_keys = self._fingerprint_keys
        for index, fp in enumerate(key[1:]):
            offset = index - self_offset
            tag, *values = fingerprint_keys[fp]
            names.append(f"xfer:s|tag|{tag}|{level}|{offset}")
            for attribute, value in zip(self._attributes, values):
                if value:
                    names.append(f"site:s|{attribute}|{value}|{level}|{offset}")
        result = tuple(names)
        self._cache_guard()
        self._window_names[(sig, level)] = result
        return result

    def _chain_names(self, element: ElementNode, level: int) -> tuple[str, ...]:
        """Rendered names of the ancestor chain from ``element`` at ``level``."""
        slots = self._page_chains.get(id(element))
        if slots is None:
            slots = [None] * (self._levels + 1)
            self._page_chains[id(element)] = slots
        cached = slots[level]
        if cached is not None:
            return cached
        window = self._render_window(self._window_sig(element), level)
        parent = element.parent
        if level < self._levels and parent is not None:
            suffix = self._chain_names(parent, level + 1)
            chain_key = (id(window), id(suffix))
            chain = self._chain_cache.get(chain_key)
            if chain is None:
                self._cache_guard()
                # The value tuple holds window/suffix refs via concatenation
                # sources; pin them explicitly to keep the key ids valid.
                chain = window + suffix
                self._chain_cache[chain_key] = (chain, window, suffix)
            else:
                chain = chain[0]
        else:
            chain = window
        slots[level] = chain
        return chain

    # -- text names --------------------------------------------------------

    def _text_names(self, parent: ElementNode) -> tuple[str, ...]:
        """Nearby-frequent-string names (interned tuple, shared by value)."""
        registry = self._registry
        if not registry:
            return ()
        names: list[str] = []
        element: ElementNode | None = parent
        ups = 0
        height = self._height
        while element is not None and ups <= height:
            for text, down_path in registry.get(id(element), ()):
                names.append(f"site:t|{text}|u{ups}|{down_path}")
            element = element.parent
            ups += 1
        if not names:
            return ()
        key = tuple(names)
        interned = self._text_intern.get(key)
        if interned is None:
            self._cache_guard()
            self._text_intern[key] = key
            interned = key
        return interned

    # -- bookkeeping -------------------------------------------------------

    def _cache_guard(self) -> None:
        """Bound the cross-page caches (pathological sites only).

        Cleared together: chain and row keys embed ids of tuples kept
        alive by the upstream caches, so a partial clear could let a
        recycled id alias a stale entry.
        """
        if (
            len(self._window_names) >= _BATCHER_CACHE_LIMIT
            or len(self._chain_cache) >= _BATCHER_CACHE_LIMIT
            or len(self._text_intern) >= _BATCHER_CACHE_LIMIT
            or len(self._row_cache) >= _BATCHER_CACHE_LIMIT
        ):
            self._window_names.clear()
            self._chain_cache.clear()
            self._text_intern.clear()
            self._row_cache.clear()
            self._page_chains.clear()
            self._page_rows.clear()
