"""HTML → DOM tree parsing.

Built on the standard library's :class:`html.parser.HTMLParser`.  The paper
used lxml; this parser provides the same data model (see
:mod:`repro.dom.node`) for the well-formed-ish HTML that semi-structured
template engines emit.  It handles:

* void elements (``<br>``, ``<img>``, …) with or without self-closing
  slashes,
* implicit closing of ``<p>``/``<li>``/``<tr>``/``<td>``/… when a sibling
  opens,
* stray end tags (ignored) and unclosed tags at EOF (auto-closed),
* merging of adjacent text runs into a single :class:`TextNode`.

The resulting :class:`Document` exposes ``text_fields()`` — the
document-order list of visible, non-whitespace text nodes that CERES
annotates and classifies.

Hostile-input hardening: :func:`parse_html` accepts ``max_depth`` /
``max_nodes`` caps (the serving tier passes
:attr:`~repro.core.config.CeresConfig.max_parse_depth` /
:attr:`~repro.core.config.CeresConfig.max_parse_nodes`), raising
:class:`ParseLimitError` — a permanently-classified error — instead of
letting a POSTed ``<div><div><div>…`` bomb blow the recursion limit or
RAM.  Trusted corpus files parse uncapped by default.
"""

from __future__ import annotations

import itertools
from html.parser import HTMLParser

from repro.dom.node import NON_CONTENT_ELEMENTS, VOID_ELEMENTS, ElementNode, TextNode

__all__ = ["Document", "ParseLimitError", "parse_html"]


class ParseLimitError(ValueError):
    """Parsed HTML exceeded its structural budget (depth or node count).

    Classified *permanent* by
    :func:`repro.runtime.resilience.classify_error` (a ``ValueError``:
    retrying the same payload cannot help) — the serving tier answers it
    with a client-error status instead of melting down.
    """

#: Monotonic source of :attr:`Document.doc_id` values.  ``next()`` on an
#: ``itertools.count`` is atomic under the GIL, so concurrent parsing
#: threads still get distinct ids; worker processes each start their own
#: sequence, which is fine — caches never cross a process boundary.
_DOC_ID_COUNTER = itertools.count(1)

#: Key of an open element's text-child count; no tag name starts with "#".
_TEXT = "#text"

#: tag -> set of open tags it implicitly closes when encountered.
_IMPLICIT_CLOSERS: dict[str, frozenset[str]] = {
    "li": frozenset({"li"}),
    "p": frozenset({"p"}),
    "tr": frozenset({"tr", "td", "th"}),
    "td": frozenset({"td", "th"}),
    "th": frozenset({"td", "th"}),
    "option": frozenset({"option"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "thead": frozenset({"tr", "td", "th"}),
    "tbody": frozenset({"tr", "td", "th", "thead"}),
}


class Document:
    """A parsed HTML page.

    Attributes:
        root: the ``<html>`` element (or a synthetic root for fragments).
        url: optional source identifier, carried through for reporting.
        doc_id: process-unique serial assigned at construction.  Unlike
            ``id(self)``, a ``doc_id`` is never recycled after garbage
            collection, so page-scoped caches (match results, feature
            registries) can key on it without ever serving one page's
            cached state for another.
    """

    def __init__(self, root: ElementNode, url: str = "") -> None:
        self.root = root
        self.url = url
        self.doc_id: int = next(_DOC_ID_COUNTER)
        self._text_fields: list[TextNode] | None = None
        self._xpath_index: dict[str, ElementNode | TextNode] | None = None
        #: memoized structural signature; written by
        #: :func:`repro.clustering.templates.page_signature` so clustering
        #: and cluster assignment traverse the DOM once per page, not once
        #: per batch.
        self._page_signature: frozenset[str] | None = None

    def __repr__(self) -> str:
        return f"<Document url={self.url!r} fields={len(self.text_fields())}>"

    def text_fields(self) -> list[TextNode]:
        """Document-order visible text nodes with non-whitespace content.

        The list is computed once and cached; CERES iterates it many times
        (matching, annotation, feature extraction, extraction).  The walk
        is inlined (no generator) because it runs once per freshly parsed
        page on the serving hot path.
        """
        if self._text_fields is None:
            fields: list[TextNode] = []
            append_field = fields.append
            stack: list = [self.root]
            pop = stack.pop
            extend = stack.extend
            while stack:
                node = pop()
                if node.is_text:
                    if node.text.strip():
                        append_field(node)
                elif node.tag not in NON_CONTENT_ELEMENTS:
                    extend(reversed(node.children))
            self._text_fields = fields
        return self._text_fields

    def iter_elements(self):
        """Document-order iteration over all elements."""
        return self.root.iter_elements()

    def node_at(self, xpath: str):
        """Return the node at an absolute XPath, or ``None``.

        Both element paths and ``.../text()[i]`` paths are supported.  An
        index over all node XPaths is built lazily on first use.
        """
        if self._xpath_index is None:
            index: dict[str, ElementNode | TextNode] = {}
            for element in self.root.iter_elements():
                index[element.xpath] = element
                for child in element.children:
                    if child.is_text:
                        index[child.xpath] = child
            self._xpath_index = index
        return self._xpath_index.get(xpath)


class _TreeBuilder(HTMLParser):
    """Incremental DOM construction driven by HTMLParser events.

    ``max_depth`` caps how deep the open-element stack may grow and
    ``max_nodes`` caps total nodes built (elements + text); exceeding
    either raises :class:`ParseLimitError` mid-feed, before the hostile
    payload can exhaust the recursion limit (xpath/feature walks recurse
    per level) or memory.  ``None`` disables a cap.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        max_nodes: int | None = None,
    ) -> None:
        super().__init__(convert_charrefs=True)
        self.synthetic_root = ElementNode("#fragment")
        #: the open elements, innermost last.  Only they take children,
        #: so each keeps its children's counts in ``_child_counts`` (same
        #: depth): same-tag elements per tag, text nodes under ``_TEXT``.
        self._stack: list[ElementNode] = [self.synthetic_root]
        self._child_counts: list[dict[str, int]] = [{}]
        self._pending_text: list[str] = []
        self._max_depth = max_depth
        self._max_nodes = max_nodes
        self._n_nodes = 0

    def _count_node(self) -> None:
        self._n_nodes += 1
        if self._max_nodes is not None and self._n_nodes > self._max_nodes:
            raise ParseLimitError(
                f"document exceeds max_parse_nodes={self._max_nodes}: "
                f"refusing to build node {self._n_nodes}"
            )

    def _attach(self, child: ElementNode | TextNode, key: str) -> None:
        """Append ``child`` to the innermost open element; ``key`` is its
        tag (or ``_TEXT``), whose count so far gives its XPath index."""
        counts = self._child_counts[-1]
        index = counts[key] = counts.get(key, 0) + 1
        self._stack[-1].append(child, index)

    def _close_to(self, depth: int) -> None:
        """Close every open element but the outermost ``depth``."""
        del self._stack[depth:]
        del self._child_counts[depth:]

    # -- text buffering -------------------------------------------------

    def _flush_text(self) -> None:
        if not self._pending_text:
            return
        text = "".join(self._pending_text)
        self._pending_text.clear()
        parent = self._stack[-1]
        # Merge with a preceding text sibling if one exists (HTMLParser may
        # deliver one logical run as several handle_data calls).
        if parent.children and parent.children[-1].is_text:
            last = parent.children[-1]
            last.text += text
        else:
            if not text:
                return
            self._count_node()
            self._attach(TextNode(text), _TEXT)

    # -- HTMLParser callbacks --------------------------------------------

    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self._flush_text()
        closers = _IMPLICIT_CLOSERS.get(tag)
        if closers:
            while len(self._stack) > 1 and self._stack[-1].tag in closers:
                self._close_to(len(self._stack) - 1)
        if (
            self._max_depth is not None
            and tag not in VOID_ELEMENTS
            and len(self._stack) > self._max_depth
        ):
            raise ParseLimitError(
                f"document exceeds max_parse_depth={self._max_depth} "
                f"at <{tag}>"
            )
        self._count_node()
        element = ElementNode(tag, {k: (v or "") for k, v in attrs})
        self._attach(element, tag)
        if tag not in VOID_ELEMENTS:
            self._stack.append(element)
            self._child_counts.append({})

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        self._flush_text()
        self._count_node()
        self._attach(ElementNode(tag, {k: (v or "") for k, v in attrs}), tag)

    def handle_endtag(self, tag: str) -> None:
        self._flush_text()
        if tag in VOID_ELEMENTS:
            return
        # Pop to the matching open tag; ignore stray end tags entirely.
        for i in range(len(self._stack) - 1, 0, -1):
            if self._stack[i].tag == tag:
                self._close_to(i)
                return

    def handle_data(self, data: str) -> None:
        if data:
            self._pending_text.append(data)

    def handle_comment(self, data: str) -> None:
        # Comments carry no extractable content; drop them.
        self._flush_text()

    def close(self) -> None:
        super().close()
        self._flush_text()
        self._close_to(1)


def parse_html(
    html: str,
    url: str = "",
    *,
    max_depth: int | None = None,
    max_nodes: int | None = None,
) -> Document:
    """Parse an HTML string into a :class:`Document`.

    If the markup contains an ``<html>`` element it becomes the document
    root; otherwise the synthetic fragment root is used (useful in tests
    operating on snippets).

    ``max_depth`` / ``max_nodes`` cap the tree a hostile payload may
    build (raising :class:`ParseLimitError`); untrusted input — anything
    POSTed to the serving tier — should always pass the
    :class:`~repro.core.config.CeresConfig` caps.  Defaults are
    uncapped, preserving behaviour for trusted corpus files.
    """
    builder = _TreeBuilder(max_depth=max_depth, max_nodes=max_nodes)
    builder.feed(html)
    builder.close()
    root = builder.synthetic_root
    for child in root.element_children():
        if child.tag == "html":
            # Detach so the <html> element is a true root with depth 0 and
            # an xpath of /html[1].
            child.parent = None
            child.tag_index = 1
            return Document(child, url=url)
    return Document(root, url=url)


def strip_non_content(document: Document) -> int:
    """Remove script/style subtrees in place; returns number removed.

    Parsing keeps non-content elements (their presence can matter for
    sibling indices); this helper exists for callers who want physically
    smaller trees, e.g. before serializing corpora to disk.
    """
    removed = 0
    for element in list(document.root.iter_elements()):
        kept = []
        for child in element.children:
            if isinstance(child, ElementNode) and child.tag in NON_CONTENT_ELEMENTS:
                removed += 1
            else:
                kept.append(child)
        if len(kept) != len(element.children):
            element.children = kept
            element.reindex_children()
    if removed:
        # The structural signature (and any cached signature-derived state)
        # no longer reflects the tree.
        document._page_signature = None
    return removed
