"""HTML → DOM tree parsing.

One loop tokenizes the markup and builds the tree (the data model of
:mod:`repro.dom.node`; the paper used lxml).  The tokenizing rules are a
port of CPython 3.11.7's :mod:`html.parser` (``Lib/html/parser.py`` and
``Lib/_markupbase.py``, Copyright Python Software Foundation, PSF License
Version 2): its regexes and branch order for start and end tags,
comments, ``<!DOCTYPE``, ``<?…>``, ``<![…]>`` and bogus comments,
script/style raw text and ``convert_charrefs`` unescaping.  The tree is
the one a builder driven by ``html.parser`` 3.11 makes, and it no longer
depends on which Python patch release is installed (later security
releases changed how ``html.parser`` treats unterminated markup).
``tests/golden/dom_digests.json`` pins that tree for ~3,400 pages and
mutated inputs.  Two departures, neither visible in the tree:

* **A fast path.**  One compiled regex matches the common tokens first:
  text runs, start tags whose attributes are bare names or double-quoted
  values, and plain ``</name>`` end tags.  Its grammar is a subset of the
  general rules', so a token it matches gets the same result from both.
* **A linear worst case.**  ``html.parser`` re-scans the rest of the
  input for every ``<`` that no ``>`` follows, which is quadratic (on a
  2-core host 36 KB of ``<a x="1" `` took 3.9 s, 72 KB 18 s).  Past the
  last ``>`` nothing can become markup, so here the tail becomes text in
  one pass.  ``html.parser`` also re-scans the rest for every comment or
  ``<![…]`` section that never closes (120 KB of ``<!--x>`` took
  6.8 s); here one failed scan settles every later one.

The builder handles:

* void elements (``<br>``, ``<img>``, …) with or without self-closing
  slashes,
* implicit closing of ``<p>``/``<li>``/``<tr>``/``<td>``/… when a sibling
  opens,
* stray end tags (ignored) and unclosed tags at EOF (auto-closed),
* merging of adjacent text runs into a single :class:`TextNode`.

The resulting :class:`Document` exposes ``text_fields()`` — the
document-order list of visible, non-whitespace text nodes that CERES
annotates and classifies.

**Release contract.**  A parsed tree is a reference cycle (each node's
``parent`` points back at the element whose ``children`` hold it), so
only the cyclic garbage collector can free it, and every full
collection pays for walking it first.  A document has one owner — the
serving tier's batch worker, the corpus runner's site attempt — and
that owner calls :meth:`Document.release` once nothing will read the
tree again.  Without its parent links the tree frees by reference
counting the moment its last reference goes.  A released document
refuses further use (its ``root`` is ``None``) rather than hand out
nodes whose ``xpath`` lost its ancestors.

Hostile-input hardening: :func:`parse_html` accepts ``max_depth`` /
``max_nodes`` caps (the serving tier passes
:attr:`~repro.core.config.CeresConfig.max_parse_depth` /
:attr:`~repro.core.config.CeresConfig.max_parse_nodes`), raising
:class:`ParseLimitError` — a permanently-classified error — instead of
letting a POSTed ``<div><div><div>…`` bomb blow the recursion limit or
RAM.  Trusted corpus files parse uncapped by default.  A ``<![`` section
``_markupbase`` cannot read raises :class:`MarkedSectionError`; both are
``ValueError`` subclasses: the client's error, not the parser's.
"""

from __future__ import annotations

import itertools
import re
import sys
from html import unescape

from repro.dom.node import NON_CONTENT_ELEMENTS, VOID_ELEMENTS, ElementNode, TextNode

__all__ = ["Document", "MarkedSectionError", "ParseLimitError", "parse_html"]


class ParseLimitError(ValueError):
    """Parsed HTML exceeded its structural budget (depth or node count).

    Classified *permanent* by
    :func:`repro.runtime.resilience.classify_error` (a ``ValueError``:
    retrying the same payload cannot help) — the serving tier answers it
    with a client-error status instead of melting down.
    """


class MarkedSectionError(ValueError):
    """A ``<![`` section whose keyword ``_markupbase`` cannot read: no
    name token, or a status keyword it does not know (``<![foo]>``).

    ``html.parser`` 3.11 raises ``AssertionError`` there; reading the
    section as html5's bogus comment would change trees, so the port
    keeps the refusal and gives it a name.  A ``ValueError``, so
    :func:`~repro.runtime.resilience.classify_error` calls it permanent
    and the serving tier answers 422.
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
        root: the ``<html>`` element (or a synthetic root for fragments);
            ``None`` once :meth:`release` ran.
        url: optional source identifier, carried through for reporting.
        doc_id: process-unique serial assigned at construction.  Unlike
            ``id(self)``, a ``doc_id`` is never recycled after garbage
            collection, so page-scoped caches (match results, feature
            registries) can key on it without ever serving one page's
            cached state for another.
    """

    def __init__(self, root: ElementNode, url: str = "") -> None:
        self.root: ElementNode | None = root
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
        if self.root is None:
            return f"<Document url={self.url!r} released>"
        return f"<Document url={self.url!r} fields={len(self.text_fields())}>"

    def release(self) -> None:
        """Free the tree by reference counting: drop every node's
        ``parent`` link and the document's own hold on its root.

        The owner of a document calls this once nothing will read the
        tree again (see the module's release contract).  The document
        is unusable afterwards: ``text_fields()``, ``node_at()`` and
        ``iter_elements()`` raise ``RuntimeError``.  Nodes a caller
        still holds keep their cached ``xpath`` but no longer know their
        ancestors.  Idempotent.
        """
        root = self.root
        if root is None:
            return
        self.root = None
        self._text_fields = None
        self._xpath_index = None
        _unlink(root)

    def _tree(self) -> ElementNode:
        """The root, or a loud error for a released document."""
        if self.root is None:
            raise RuntimeError(f"document {self.url!r} was released")
        return self.root

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
            stack: list = [self._tree()]
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
        return self._tree().iter_elements()

    def node_at(self, xpath: str):
        """Return the node at an absolute XPath, or ``None``.

        Both element paths and ``.../text()[i]`` paths are supported.  An
        index over all node XPaths is built lazily on first use.
        """
        if self._xpath_index is None:
            index: dict[str, ElementNode | TextNode] = {}
            for element in self._tree().iter_elements():
                index[element.xpath] = element
                for child in element.children:
                    if child.is_text:
                        index[child.xpath] = child
            self._xpath_index = index
        return self._xpath_index.get(xpath)


def _unlink(root: ElementNode) -> None:
    """Drop the ``parent`` link of every node below ``root``."""
    stack = [root]
    pop = stack.pop
    extend = stack.extend
    while stack:
        element = pop()
        for child in element.children:
            child.parent = None
        extend(element._element_children)


# -- tokens ------------------------------------------------------------------

#: Token kinds, numbered as the fast-path regex's last matched group.
_DATA, _START, _END = 1, 4, 5

#: The fast path: a text run, a start tag whose attributes are bare names
#: or double-quoted values (group 3; group 4 is the self-closing slash),
#: or a plain end tag.  Names are lower case, so they need no folding, and
#: a tag name ends at whitespace ``html.parser`` also ends it at, so every
#: match reads the same under the general rules.
_FAST_TOKEN = re.compile(
    r"([^<]+)"
    r"|<([a-z][a-z0-9]*)"
    r"((?:[\t\n\r\f ]+[a-z_:][-a-z0-9_:.]*(?:=\"[^\"]*\")?)*)"
    r"[\t\n\r\f ]*(/?)>"
    r"|</([a-z][a-z0-9]*)>"
)
_FAST_ATTR = re.compile(r"[\t\n\r\f ]+([a-z_:][-a-z0-9_:.]*)(?:=\"([^\"]*)\")?")

# The general rules: CPython 3.11 html.parser's and _markupbase's regexes.
_STARTTAGOPEN = re.compile(r"<[a-zA-Z]")
_COMMENTCLOSE = re.compile(r"--\s*>")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_LOCATESTARTTAGEND = re.compile(
    r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""",
    re.VERBOSE,
)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
#: Where script/style raw text ends.
_RAW_TEXT_END = {tag: re.compile(rf"</\s*{tag}\s*>", re.I) for tag in ("script", "style")}
#: With no ``>`` left in the input, the one start tag ``html.parser``
#: still ends: a name cut by a NUL that the attribute rules cannot take
#: over (its last character is no quote or space).  It stays raw text.
_CUT_START_TAG = re.compile(r"<[a-zA-Z][^\t\n\r\f />\x00]*(?<![\'\"\s])(?=\x00)")


def _section_close(html: str, i: int) -> re.Pattern | None:
    """``_markupbase``'s reading of the ``<![`` section at ``i``: the
    pattern that closes it, or ``None`` if its name runs to the end of the
    input.  Raises :class:`MarkedSectionError` where ``_markupbase``
    asserts, with its message."""
    start = i + 3
    name = _DECLNAME.match(html, start)
    if name is None:
        if start == len(html):
            return None
        raise MarkedSectionError(f"expected name token at {html[i:i + 20]!r}")
    if name.end() == len(html):
        return None
    close = _SECTION_CLOSE.get(name.group().strip().lower())
    if close is None:
        raise MarkedSectionError(
            f"unknown status keyword {html[start:name.end()]!r} in marked section"
        )
    return close


def _start_tag(html: str, i: int) -> tuple:
    """``HTMLParser.parse_starttag`` at ``i`` (``<`` + letter)."""
    j = _LOCATESTARTTAGEND.match(html, i).end()
    after = html[j:j + 1]
    if after == ">":
        end = j + 1
    elif after == "/":
        if not html.startswith("/>", j):
            return ()
        end = j + 2
    elif not after or after in "abcdefghijklmnopqrstuvwxyz=/ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        return ()
    else:
        end = j
    match = _TAGFIND.match(html, i + 1)
    k = match.end()
    attrs: dict[str, str] = {}
    while k < end:
        match_attr = _ATTRFIND.match(html, k)
        if not match_attr:
            break
        name, rest, value = match_attr.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        attrs[name.lower()] = unescape(value) if value else ""
        k = match_attr.end()
    closing = html[k:end].strip()
    if closing not in (">", "/>"):
        return end, _DATA, html[i:end], None, False  # raw: not unescaped
    return end, _START, match.group(1).lower(), attrs, closing == "/>"


def _end_tag(html: str, i: int) -> tuple:
    """``HTMLParser.parse_endtag`` at ``i`` (``</``), outside raw text."""
    gt = html.find(">", i + 1)
    if gt < 0:
        return ()
    match = _ENDTAGFIND.match(html, i)
    if match:
        return gt + 1, _END, match.group(1).lower(), None, False
    match = _TAGFIND.match(html, i + 2)
    if match:  # junk between the name and the ">" is ignored
        return gt + 1, _END, match.group(1).lower(), None, False
    if html.startswith("</>", i):
        return i + 3, None, None, None, False
    return gt + 1, None, None, None, False  # a bogus comment


def _search_close(html: str, start: int, close: re.Pattern, unclosed: dict) -> re.Match | None:
    """``close.search(html, start)``, remembering a miss in ``unclosed``:
    with no match from ``start`` there is none from a later start either,
    so unclosed comments cost one scan, not one per ``<!--``."""
    if start >= unclosed.get(close, len(html) + 1):
        return None
    match = close.search(html, start)
    if match is None:
        unclosed[close] = start
    return match


def _markup(html: str, i: int, unclosed: dict) -> tuple:
    """One token at ``i`` by ``HTMLParser.goahead``'s rules, as ``(end,
    kind, tag or text, attrs, self_closing)``; kind ``None`` is markup
    the tree ignores.  ``i`` is not past the last ``>`` in ``html``;
    ``unclosed`` is the parse's memo for :func:`_search_close`."""
    if html[i] != "<":
        j = html.find("<", i)
        j = len(html) if j < 0 else j
        return j, _DATA, unescape(html[i:j]), None, False
    if _STARTTAGOPEN.match(html, i):
        token = _start_tag(html, i)
    elif html.startswith("</", i):
        token = _end_tag(html, i)
    elif html.startswith("<!--", i):
        match = _search_close(html, i + 4, _COMMENTCLOSE, unclosed)
        token = (match.end(), None, None, None, False) if match else ()
    elif html.startswith("<?", i):
        gt = html.find(">", i + 2)
        token = (gt + 1, None, None, None, False) if gt >= 0 else ()
    elif html.startswith("<![", i):
        close = _section_close(html, i)
        match = close and _search_close(html, i + 3, close, unclosed)
        token = (match.end(), None, None, None, False) if match else ()
    elif html.startswith("<!", i):  # <!DOCTYPE …> or a bogus comment
        gt = html.find(">", i + 9 if html[i:i + 9].lower() == "<!doctype" else i + 2)
        token = (gt + 1, None, None, None, False) if gt >= 0 else ()
    else:
        return i + 1, _DATA, "<", None, False
    if token:
        return token
    # Unterminated: up to the next ">" becomes text (there is one).
    end = html.find(">", i + 1) + 1
    return end, _DATA, unescape(html[i:end]), None, False


def _tail_text(html: str, i: int) -> list[str]:
    """The text ``html.parser`` makes of ``html[i:]`` when no ``>``
    follows ``i``, in one pass instead of one re-scan per ``<``.

    Each ``<`` there starts a construct that never closes, so it reads as
    text up to the next ``<``; the pieces are unescaped (a character
    reference never spans a ``<``).  The exceptions are kept: a NUL-cut
    start tag stays raw, and an unknown ``<![`` keyword still raises.
    """
    pieces = []
    start = i
    p = html.find("<", i)
    while p >= 0:
        if html.startswith("<![", p):
            _section_close(html, p)
        else:
            cut = _CUT_START_TAG.match(html, p)
            if cut:
                pieces += unescape(html[start:p]), cut.group()
                start = cut.end()
        p = html.find("<", max(p + 1, start))
    pieces.append(unescape(html[start:]))
    return [piece for piece in pieces if piece]


# -- the tree ----------------------------------------------------------------


def _too_many_nodes(max_nodes: int | None, n_nodes: int) -> ParseLimitError:
    return ParseLimitError(
        f"document exceeds max_parse_nodes={max_nodes}: refusing to build node {n_nodes}"
    )


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
    build: more than ``max_depth`` open elements, or more than
    ``max_nodes`` nodes (elements + text), raise :class:`ParseLimitError`
    before the payload can exhaust the recursion limit (xpath/feature
    walks recurse per level) or memory.  Untrusted input — anything
    POSTed to the serving tier — should always pass the
    :class:`~repro.core.config.CeresConfig` caps.  Defaults are uncapped,
    preserving behaviour for trusted corpus files.
    """
    depth_cap = sys.maxsize if max_depth is None else max_depth
    node_cap = sys.maxsize if max_nodes is None else max_nodes
    fragment = ElementNode("#fragment")
    #: the open elements, innermost (``top``) last.  Only they take
    #: children, so each keeps its children's counts in ``counts`` (same
    #: depth; ``top_counts`` is top's): same-tag elements per tag, text
    #: nodes under ``_TEXT``.
    top = fragment
    top_counts: dict[str, int] = {}
    stack = [top]
    counts = [top_counts]
    #: text read since the last node was attached; it becomes one node.
    pending: list[str] = []
    n_nodes = 0
    raw_text_end = None  # inside script/style: the pattern that ends it
    unclosed: dict = {}
    fast_token = _FAST_TOKEN.match
    fast_attrs = _FAST_ATTR.findall
    closers_of = _IMPLICIT_CLOSERS.get
    void = VOID_ELEMENTS
    last_gt = html.rfind(">")
    n = len(html)
    i = 0
    while i < n:
        if raw_text_end is not None:
            match = raw_text_end.search(html, i)
            if match is None:
                break  # an unclosed script/style drops the rest
            if match.start() > i:
                pending.append(html[i:match.start()])
            i = match.end()
            kind, tag = _END, top.tag
            raw_text_end = None
        else:
            match = fast_token(html, i)
            if match is not None:
                i = match.end()
                kind = match.lastindex
                if kind == _DATA:
                    text = match.group(1)
                    if "&" in text:
                        text = unescape(text)
                        if not text:
                            continue
                    pending.append(text)
                    continue
                if kind == _START:
                    tag, attr_text, slash = match.group(2, 3, 4)
                    self_closing = slash == "/"
                    if not attr_text:
                        attrs = {}
                    elif "&" in attr_text:
                        attrs = {name: unescape(value) for name, value in fast_attrs(attr_text)}
                    else:
                        attrs = dict(fast_attrs(attr_text))
                else:
                    tag = match.group(5)
            elif i > last_gt:
                pending += _tail_text(html, i)
                break
            else:
                i, kind, tag, attrs, self_closing = _markup(html, i, unclosed)
                if kind == _DATA:
                    if tag:
                        pending.append(tag)
                    continue
                if kind is None:
                    continue
        if kind == _END:
            # Pop to the matching open tag; ignore stray end tags (void
            # ones included: they are never open) entirely.
            depth = len(stack) - 1
            while depth and stack[depth].tag != tag:
                depth -= 1
            if not depth:
                continue
        else:
            depth = 0
        if pending:
            n_nodes += 1
            if n_nodes > node_cap:
                raise _too_many_nodes(max_nodes, n_nodes)
            node = TextNode("".join(pending))
            pending = []
            node.text_index = top_counts[_TEXT] = top_counts.get(_TEXT, 0) + 1
            node.parent = top
            top.children.append(node)
        if depth:
            del stack[depth:]
            del counts[depth:]
            top = stack[-1]
            top_counts = counts[-1]
            continue
        if not self_closing:
            closers = closers_of(tag)
            if closers and top.tag in closers:
                while len(stack) > 1 and stack[-1].tag in closers:
                    stack.pop()
                    counts.pop()
                top = stack[-1]
                top_counts = counts[-1]
            if len(stack) > depth_cap and tag not in void:
                raise ParseLimitError(
                    f"document exceeds max_parse_depth={max_depth} at <{tag}>"
                )
        n_nodes += 1
        if n_nodes > node_cap:
            raise _too_many_nodes(max_nodes, n_nodes)
        node = ElementNode(tag, attrs)
        node.tag_index = top_counts[tag] = top_counts.get(tag, 0) + 1
        node.parent = top
        elements = top._element_children
        node.element_index = len(elements)
        elements.append(node)
        top.children.append(node)
        if not self_closing and tag not in void:
            top = node
            top_counts = {}
            stack.append(top)
            counts.append(top_counts)
            raw_text_end = _RAW_TEXT_END.get(tag)
    if pending:
        n_nodes += 1
        if n_nodes > node_cap:
            raise _too_many_nodes(max_nodes, n_nodes)
        node = TextNode("".join(pending))
        node.text_index = top_counts[_TEXT] = top_counts.get(_TEXT, 0) + 1
        node.parent = top
        top.children.append(node)
    for child in fragment.element_children():
        if child.tag == "html":
            # The <html> element becomes a true root with depth 0 and an
            # xpath of /html[1].  The rest of the fragment (text and stray
            # elements outside <html>) is dropped, unlinked so that it
            # frees by refcount rather than as a cycle; out of the
            # element children, <html> loses only its own parent link.
            fragment._element_children.remove(child)
            _unlink(fragment)
            child.tag_index = 1
            return Document(child, url=url)
    return Document(fragment, url=url)
