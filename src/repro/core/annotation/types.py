"""Shared data types for the annotation stage."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dom.node import TextNode
from repro.dom.parser import Document

__all__ = ["TopicResult", "Annotation", "AnnotatedPage"]

ValueKey = tuple[str, str]


@dataclass
class TopicResult:
    """Outcome of topic identification for one page."""

    page_index: int
    entity_id: str
    node: TextNode  # the text field holding the topic name
    score: float  # the Jaccard score that selected the entity


@dataclass
class Annotation:
    """A single positive training label: this node expresses ``predicate``.

    ``object_key`` identifies the KB value the mention was matched to,
    ``object_text`` is the canonical object string used when reporting
    annotation quality.
    """

    predicate: str
    node: TextNode
    object_key: ValueKey
    object_text: str


@dataclass
class AnnotatedPage:
    """A page that passed topic identification and annotation filtering."""

    page_index: int
    document: Document
    topic_entity_id: str
    topic_node: TextNode
    annotations: list[Annotation] = field(default_factory=list)
