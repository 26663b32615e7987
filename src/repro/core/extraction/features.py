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

:class:`NodeFeatureExtractor` holds a site's frequent strings;
:class:`FeatureNameBatcher` is the one walker that builds the names,
once per template position, for every model: per-site training and
scoring, CERES-Baseline's node pairs, and (with no attributes and no
lexicon, so tag topology only) the cross-site global model.

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

#: Bound on each intern table of :class:`FeatureNameBatcher`; template
#: clusters converge to a handful of entries per position, pathological
#: sites reset the tables and recompute.
_BATCHER_CACHE_LIMIT = 4096

#: Scratch-record slots (``ElementNode._scoring``): the pass token, the
#: element's fingerprint id, its window signature id, its row id (as
#: the parent of text nodes), then one chain id per ancestry level.
_FINGERPRINT, _SIGNATURE, _ROW, _CHAINS = 1, 2, 3, 4


class NodeFeatureExtractor:
    """A site's node-text lexicon and the per-page registry of where its
    strings occur; :class:`FeatureNameBatcher` builds the names."""

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
        path records the tag chain from the ancestor to the string.
        :class:`FeatureNameBatcher` reads this registry.  The last page's
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


class FeatureNameBatcher:
    """The feature-row walker of both training and scoring.

    A text node's features depend only on its *parent element*: the
    structural names read the parent's ancestor chain and sibling
    windows, the text names read the same chain against the page's
    frequent-string registry.  Template pages repeat those chains, so
    the walker interns every template position as a dense int keyed by
    value:

    * element ``(tag, *attribute values)`` → fingerprint id;
    * sibling window ``(self offset, *member fingerprint ids)`` →
      signature id;
    * ``(signature, level, suffix chain id)`` → chain id, with the
      chain's rendered names;
    * the parent's frequent-string registrations, as ``(ups, text,
      down_path)`` entries → text id, with their rendered names;
    * ``(chain id, text id)`` → row id; :attr:`rows` holds each row's
      name tuple.

    Names are rendered once per chain or text id, so warm template
    pages resolve a node's row with a few dict probes and no string
    formatting.  Per-pass ids live in each element's scratch record
    (``ElementNode._scoring``), validated by a token that changes with
    every page and every reset.  Each walker checks its own token, so
    two walkers may visit one page in turn (a site model's and the
    global model's): each rebuilds the records the other wrote.

    Struct names are unique by construction; duplicate text
    registrations may repeat, and the vectorizer keeps each name once
    per row.  Template twins share one row tuple, which lets
    :meth:`repro.ml.features.FeatureVectorizer.transform_name_rows`
    sort each distinct row once, and lets the scorer
    (:meth:`repro.core.extraction.trainer.CeresModel.score_pages`)
    resolve each row id against the vocabulary once, into
    :attr:`row_columns`.
    """

    def __init__(self, extractor: NodeFeatureExtractor) -> None:
        self.extractor = extractor
        config = extractor.config
        self._levels = config.struct_ancestor_levels
        self._width = config.struct_sibling_width
        self._attributes = config.struct_attributes
        self._height = config.text_feature_height
        self._no_chains = (None,) * (self._levels + 1)
        self._page: int | None = None
        self._registry: dict[int, list[tuple[str, str]]] = {}
        self._reset()

    def _reset(self) -> None:
        """Drop every intern table, the pass token and the row columns
        together: ids are reassigned from 0, so nothing that holds an
        old id may outlive them."""
        self._token = object()
        self._fingerprints: dict[tuple, int] = {}
        self._fingerprint_keys: list[tuple] = []
        self._signatures: dict[tuple, int] = {}
        self._signature_keys: list[tuple] = []
        self._chains: dict[tuple[int, int, int], int] = {}
        self._chain_names: list[tuple[str, ...]] = []
        self._texts: dict[tuple, int] = {}
        self._text_names: list[tuple[str, ...]] = []
        self._row_ids: dict[tuple[int, int], int] = {}
        #: Row id → the row's feature names.
        self.rows: list[tuple[str, ...]] = []
        #: Row id → the scorer's column array for the row (None until
        #: the scorer resolves it).
        self.row_columns: list = []

    # -- public API --------------------------------------------------------

    def row_for(self, node: TextNode, document: Document) -> tuple[str, ...]:
        """The feature-name row of ``node`` (shared tuple for template twins)."""
        row = self.row_id(node, document)  # may reset, rebinding self.rows
        return self.rows[row]

    def row_id(self, node: TextNode, document: Document) -> int:
        """The interned row id of ``node``.

        Valid until the next call: the size bound is checked here,
        between rows, and a reset reassigns every id.
        """
        if self._page != document.doc_id:
            self._page = document.doc_id
            self._token = object()
            self._registry = (
                self.extractor.registry_for(document)
                if self.extractor.frequent_strings
                else {}
            )
        parent = node.parent
        if parent is not None:
            record = parent._scoring
            if record is not None and record[0] is self._token:
                row = record[_ROW]
                if row is not None:
                    return row
        if (
            len(self.rows) >= _BATCHER_CACHE_LIMIT
            or len(self._chain_names) >= _BATCHER_CACHE_LIMIT
            or len(self._signature_keys) >= _BATCHER_CACHE_LIMIT
            or len(self._fingerprint_keys) >= _BATCHER_CACHE_LIMIT
            or len(self._text_names) >= _BATCHER_CACHE_LIMIT
        ):
            self._reset()
        if parent is None:
            return self._row(-1, -1)
        record = self._record(parent)
        chain = self._chain(parent, record, 0)
        row = self._row(chain, self._text(parent) if self._registry else -1)
        record[_ROW] = row
        return row

    # -- structural names --------------------------------------------------

    def _record(self, element: ElementNode) -> list:
        """The element's scratch record for this pass; a fresh record
        carries the element's fingerprint id."""
        record = element._scoring
        if record is None or record[0] is not self._token:
            key = (element.tag, *map(element.attrs.get, self._attributes))
            fingerprint = self._fingerprints.get(key)
            if fingerprint is None:
                fingerprint = len(self._fingerprint_keys)
                self._fingerprints[key] = fingerprint
                self._fingerprint_keys.append(key)
            record = [self._token, fingerprint, None, None, *self._no_chains]
            element._scoring = record
        return record

    def _signature(self, element: ElementNode, record: list) -> int:
        """Interned signature of the element's sibling window.

        No parent or a stale ``element_index`` (hand-assembled trees)
        collapses the window to the element alone.  The window is
        level-independent, so it is resolved once per element per pass.
        """
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
        low = position - self._width
        if low < 0:
            low = 0
        high = position + self._width + 1
        if high > len(siblings):
            high = len(siblings)
        record_for = self._record
        key = (
            position - low,
            *[record_for(siblings[i])[_FINGERPRINT] for i in range(low, high)],
        )
        signature = self._signatures.get(key)
        if signature is None:
            signature = len(self._signature_keys)
            self._signatures[key] = signature
            self._signature_keys.append(key)
        record[_SIGNATURE] = signature
        return signature

    def _chain(self, element: ElementNode, record: list, level: int) -> int:
        """Interned id of the ancestor chain from ``element`` at ``level``."""
        chain = record[_CHAINS + level]
        if chain is not None:
            return chain
        signature = record[_SIGNATURE]
        if signature is None:
            signature = self._signature(element, record)
        parent = element.parent
        if level < self._levels and parent is not None:
            suffix = self._chain(parent, self._record(parent), level + 1)
        else:
            suffix = -1
        key = (signature, level, suffix)
        chain = self._chains.get(key)
        if chain is None:
            names = self._window_names(signature, level)
            if suffix >= 0:
                names += self._chain_names[suffix]
            chain = len(self._chain_names)
            self._chains[key] = chain
            self._chain_names.append(names)
        record[_CHAINS + level] = chain
        return chain

    def _window_names(self, signature: int, level: int) -> tuple[str, ...]:
        """Names of one sibling window at one ancestry level."""
        key = self._signature_keys[signature]
        self_offset = key[0]
        names: list[str] = []
        for index, fingerprint in enumerate(key[1:]):
            offset = index - self_offset
            tag, *values = self._fingerprint_keys[fingerprint]
            names.append(f"xfer:s|tag|{tag}|{level}|{offset}")
            for attribute, value in zip(self._attributes, values):
                if value:
                    names.append(f"site:s|{attribute}|{value}|{level}|{offset}")
        return tuple(names)

    # -- text names and rows -----------------------------------------------

    def _text(self, parent: ElementNode) -> int:
        """Interned id of the frequent strings registered on ``parent``
        and its ancestors up to ``text_feature_height`` (-1: none)."""
        registry = self._registry
        entries: list[tuple[int, str, str]] = []
        element: ElementNode | None = parent
        ups = 0
        while element is not None and ups <= self._height:
            for text, down_path in registry.get(id(element), ()):
                entries.append((ups, text, down_path))
            element = element.parent
            ups += 1
        if not entries:
            return -1
        key = tuple(entries)
        text_id = self._texts.get(key)
        if text_id is None:
            text_id = len(self._text_names)
            self._texts[key] = text_id
            self._text_names.append(
                tuple(
                    f"site:t|{text}|u{ups}|{down_path}"
                    for ups, text, down_path in entries
                )
            )
        return text_id

    def _row(self, chain: int, text: int) -> int:
        """Interned row id of a chain and text pair (-1: no chain/text)."""
        key = (chain, text)
        row = self._row_ids.get(key)
        if row is None:
            names = self._chain_names[chain] if chain >= 0 else ()
            if text >= 0:
                names += self._text_names[text]
            row = len(self.rows)
            self._row_ids[key] = row
            self.rows.append(names)
            self.row_columns.append(None)
        return row
