"""DOM tree node types.

The paper represents each webpage as a DOM tree in which "a node in the
tree can be uniquely defined by an absolute XPath" (Section 2.1).  Two node
kinds exist:

* :class:`ElementNode` — an HTML element with a tag, attributes, and
  children.
* :class:`TextNode` — a run of visible text.  Text nodes are the unit of
  annotation and classification in CERES: "most entity names correspond to
  full texts in a DOM tree node".

Absolute XPaths use 1-based sibling indices counted per tag name, e.g.
``/html[1]/body[1]/div[2]/span[1]`` and ``.../span[1]/text()[1]`` for text
nodes.  The parser sets each node's index as it attaches the node, from
per-parent counts, so building a wide parent stays linear.  XPaths are
computed lazily and cached; trees are treated as immutable once built by
the parser.

Each node's ``parent`` link closes a reference cycle with its parent's
``children``, which only the cyclic garbage collector can break.  The
owner of a parsed tree therefore ends its life with
:meth:`repro.dom.parser.Document.release`, which drops every ``parent``
link so the tree frees by reference counting.  A node held past that
point keeps the ``xpath`` it had already cached, but ``parent`` is
``None``: its ancestors (and an ``xpath`` not yet computed) are gone.
"""

from __future__ import annotations

from collections.abc import Iterator

__all__ = ["ElementNode", "TextNode", "Node"]

#: HTML void elements: no closing tag, never have children.
VOID_ELEMENTS = frozenset(
    {
        "area", "base", "br", "col", "embed", "hr", "img", "input",
        "link", "meta", "param", "source", "track", "wbr",
    }
)

#: Elements whose text content is never a visible text field.
NON_CONTENT_ELEMENTS = frozenset({"script", "style", "noscript", "template"})


class ElementNode:
    """An HTML element in the DOM tree."""

    __slots__ = (
        "tag",
        "attrs",
        "parent",
        "children",
        "tag_index",
        "element_index",
        "_element_children",
        "_xpath",
        "_depth",
        "_scoring",
    )

    def __init__(self, tag: str, attrs: dict[str, str] | None = None) -> None:
        self.tag = tag
        self.attrs: dict[str, str] = attrs or {}
        self.parent: ElementNode | None = None
        self.children: list[Node] = []
        #: 1-based index among same-tag siblings (the XPath step index).
        self.tag_index: int = 1
        #: 0-based position among *element* siblings, assigned as the
        #: parser attaches the node, so feature extraction never runs an
        #: O(siblings) index scan.
        self.element_index: int = 0
        self._element_children: list[ElementNode] = []
        self._xpath: str | None = None
        self._depth: int | None = None
        #: Scratch record for the feature-row walker
        #: (:class:`repro.core.extraction.features.FeatureNameBatcher`):
        #: a token-validated list of this element's interned ids for the
        #: current pass of the walker that wrote it; another walker
        #: rebuilds it.  Opaque to everything else; one thread per
        #: document at a time.
        self._scoring: list | None = None

    def __repr__(self) -> str:
        return f"<ElementNode {self.xpath}>"

    @property
    def is_text(self) -> bool:
        return False

    @property
    def xpath(self) -> str:
        """Absolute XPath of this element, e.g. ``/html[1]/body[1]/div[2]``."""
        if self._xpath is None:
            if self.parent is None:
                self._xpath = f"/{self.tag}[{self.tag_index}]"
            else:
                self._xpath = f"{self.parent.xpath}/{self.tag}[{self.tag_index}]"
        return self._xpath

    @property
    def depth(self) -> int:
        """Number of ancestors (the root has depth 0)."""
        if self._depth is None:
            self._depth = 0 if self.parent is None else self.parent.depth + 1
        return self._depth

    @property
    def root(self) -> ElementNode:
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self, include_self: bool = False) -> Iterator[ElementNode]:
        """Yield ancestors from the parent upward (optionally self first)."""
        node: ElementNode | None = self if include_self else self.parent
        while node is not None:
            yield node
            node = node.parent

    def iter_elements(self) -> Iterator[ElementNode]:
        """Depth-first, document-order iteration over element descendants,
        including this node."""
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, ElementNode):
                yield node
                stack.extend(reversed(node.children))

    def iter_text_nodes(self) -> Iterator[TextNode]:
        """Depth-first, document-order iteration over descendant text nodes.

        Text inside non-content elements (``script``/``style``/…) is skipped.
        """
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, TextNode):
                yield node
            elif node.tag not in NON_CONTENT_ELEMENTS:
                stack.extend(reversed(node.children))

    def element_children(self) -> list[ElementNode]:
        """Child nodes that are elements, in document order.

        Filled in as :func:`repro.dom.parser.parse_html` attaches each
        child (trees are immutable once parsed), so this is O(1); the
        returned list is internal state and must not be mutated.  Each
        child's position in it is its ``element_index``.
        """
        return self._element_children

    def text_content(self, separator: str = " ") -> str:
        """Concatenated text of all descendant text nodes."""
        return separator.join(t.text for t in self.iter_text_nodes())

    def get(self, attr: str, default: str = "") -> str:
        """Attribute value lookup with a default."""
        return self.attrs.get(attr, default)

    def contains(self, other: Node) -> bool:
        """True if ``other`` is this node or a descendant of it."""
        node: Node | None = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False


class TextNode:
    """A run of visible text within an element."""

    __slots__ = ("text", "parent", "text_index", "_xpath")

    def __init__(self, text: str) -> None:
        self.text = text
        self.parent: ElementNode | None = None
        #: 1-based index among text-node siblings (the ``text()[i]`` index).
        self.text_index: int = 1
        self._xpath: str | None = None

    def __repr__(self) -> str:
        preview = self.text if len(self.text) <= 30 else self.text[:27] + "..."
        return f"<TextNode {preview!r}>"

    @property
    def is_text(self) -> bool:
        return True

    @property
    def xpath(self) -> str:
        """Absolute XPath, e.g. ``/html[1]/body[1]/p[1]/text()[1]``."""
        if self._xpath is None:
            parent_path = "" if self.parent is None else self.parent.xpath
            self._xpath = f"{parent_path}/text()[{self.text_index}]"
        return self._xpath

    @property
    def element(self) -> ElementNode:
        """The enclosing element (raises if detached)."""
        if self.parent is None:
            raise ValueError("detached text node has no enclosing element")
        return self.parent

    @property
    def depth(self) -> int:
        return 0 if self.parent is None else self.parent.depth + 1

    def ancestors(self, include_self: bool = False) -> Iterator[ElementNode]:
        """Yield ancestor elements from the parent upward.

        ``include_self`` is accepted for interface parity with
        :class:`ElementNode` but ignored (a text node is not an element).
        """
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


Node = ElementNode | TextNode
