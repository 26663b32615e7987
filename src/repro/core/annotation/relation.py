"""Relation annotation — Algorithm 2 of the paper.

Given the topic entity of each page, annotate *at most one* mention of
each KB object per predicate ("we emphasize precision over recall for
annotation").  Ambiguity — an object with several mentions, or an object
participating in several relations — is resolved by:

* **Local evidence** (Section 3.2.1): prefer the mention whose enclosing
  subtree holds the most co-objects of the same predicate (multi-valued
  objects are laid out together: cast lists, genre rows).

* **Global evidence** (Section 3.2.2): agglomerative clustering of the
  predicate's mention XPaths across all pages (Levenshtein distance over
  XPath steps); prefer mentions falling in the largest cluster.  Used only
  when (1) local evidence ties and the predicate is frequently duplicated,
  or (2) the object is over-represented across pages (informativeness:
  the all-genres-on-every-page hazard).

The hot path:

* mention gathering reads the per-subject surface variants a
  :class:`repro.kb.surfaces.SurfaceIndex` expands once per subject;
* local evidence packs each mention's ancestor set into an int bitset and
  forms the per-mention blocked set from prefix/suffix unions, so it is
  O(M·depth) in the number of mentions M;
* XPath clustering runs the interned-token batched Levenshtein matrix
  (:mod:`repro.text.distance`).

``tests/golden/annotation_digests.json`` pins the annotations these
produce, as written by the pure-Python implementations they replaced.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.annotation.types import AnnotatedPage, Annotation, TopicResult
from repro.core.config import CeresConfig
from repro.dom.node import TextNode
from repro.dom.parser import Document
from repro.dom.xpath import xpath_steps
from repro.kb.matcher import PageMatcher
from repro.kb.store import KnowledgeBase
from repro.kb.surfaces import SurfaceIndex
from repro.ml.cluster import cluster_xpaths

__all__ = ["RelationAnnotator", "ObjectMentions"]

ValueKey = tuple[str, str]


@dataclass
class ObjectMentions:
    """All mentions of one object of one predicate on one page."""

    predicate: str
    object_key: ValueKey
    object_text: str
    mentions: list[TextNode]


class RelationAnnotator:
    """Implements full-page relation annotation (Algorithm 2)."""

    def __init__(
        self,
        kb: KnowledgeBase,
        config: CeresConfig | None = None,
        matcher: PageMatcher | None = None,
    ) -> None:
        self.kb = kb
        self.config = config or CeresConfig()
        self.matcher = matcher or PageMatcher(kb)
        #: Per-subject precomputed surface variants; lazily filled, shared
        #: by every page of every cluster this annotator processes.
        self.surface_index = SurfaceIndex(kb)

    # -- mention gathering --------------------------------------------------

    def collect_object_mentions(
        self, document: Document, topic: TopicResult
    ) -> dict[str, list[ObjectMentions]]:
        """Mentions of every KB object of the topic, grouped by predicate.

        The topic node itself is excluded — it expresses the ``name``
        relation, never an object mention.  Surface variants come
        precomputed from the :class:`~repro.kb.surfaces.SurfaceIndex`.
        """
        match = self.matcher.match(document)
        by_predicate: dict[str, list[ObjectMentions]] = defaultdict(list)
        topic_node = topic.node
        for entry in self.surface_index.entries_for_subject(topic.entity_id):
            mentions = [
                node
                for node in match.mentions_of_variants(entry.variants)
                if node is not topic_node
            ]
            if not mentions:
                continue
            by_predicate[entry.predicate].append(
                ObjectMentions(
                    entry.predicate, entry.object_key, entry.object_text, mentions
                )
            )
        return dict(by_predicate)

    # -- local evidence (BestLocalMention) -----------------------------------

    def best_local_mentions(
        self,
        mentions: list[TextNode],
        co_object_mentions: list[list[TextNode]],
    ) -> list[TextNode]:
        """``BestLocalMention`` of Algorithm 2 — bitset implementation.

        For each mention, climb to the highest ancestor containing no other
        mention of the same object, count how many distinct co-objects of
        the predicate fall under that ancestor, and return the mentions
        with the maximal count (singleton = unambiguous).

        Each distinct ancestor element gets one bit; a mention's ancestor
        set is an int mask, the blocked set for mention ``m`` is the union
        of every *other* mention's mask — prefix/suffix unions make that
        O(M) masks total — and a co-object group blocks an anchor iff the
        OR of its members' masks has the anchor's bit set.
        """
        if len(mentions) == 1:
            return list(mentions)
        bit_of: dict[int, int] = {}
        masks: list[int] = []
        for mention in mentions:
            mask = 0
            for ancestor in mention.ancestors():
                key = id(ancestor)
                bit = bit_of.get(key)
                if bit is None:
                    bit = len(bit_of)
                    bit_of[key] = bit
                mask |= 1 << bit
            masks.append(mask)

        count = len(mentions)
        prefix = [0] * (count + 1)
        for index in range(count):
            prefix[index + 1] = prefix[index] | masks[index]
        suffix = [0] * (count + 1)
        for index in range(count - 1, -1, -1):
            suffix[index] = suffix[index + 1] | masks[index]

        group_masks: list[int] = []
        for group in co_object_mentions:
            group_mask = 0
            for node in group:
                for ancestor in node.ancestors():
                    key = id(ancestor)
                    bit = bit_of.get(key)
                    if bit is None:
                        bit = len(bit_of)
                        bit_of[key] = bit
                    group_mask |= 1 << bit
            group_masks.append(group_mask)

        best_count = -1
        best: list[TextNode] = []
        for index, mention in enumerate(mentions):
            blocked = prefix[index] | suffix[index + 1]
            ancestor = mention.element
            parent = ancestor.parent
            while parent is not None:
                parent_bit = bit_of.get(id(parent))
                if parent_bit is not None and (blocked >> parent_bit) & 1:
                    break
                ancestor = parent
                parent = ancestor.parent
            anchor_mask = 1 << bit_of[id(ancestor)]
            neighbor_count = 0
            for group_mask in group_masks:
                if group_mask & anchor_mask:
                    neighbor_count += 1
            if neighbor_count > best_count:
                best_count = neighbor_count
                best = [mention]
            elif neighbor_count == best_count:
                best.append(mention)
        return best

    # -- global statistics ----------------------------------------------------

    def _compute_global_stats(
        self, page_mentions: dict[int, dict[str, list[ObjectMentions]]]
    ):
        """Duplication and over-representation statistics across the site."""
        pages_with_predicate: Counter[str] = Counter()
        object_page_counts: Counter[tuple[str, ValueKey]] = Counter()
        instances: Counter[str] = Counter()
        duplicated_instances: Counter[str] = Counter()
        for per_page in page_mentions.values():
            for predicate, objects in per_page.items():
                pages_with_predicate[predicate] += 1
                for obj in objects:
                    object_page_counts[(predicate, obj.object_key)] += 1
                    instances[predicate] += 1
                    if len(obj.mentions) > 1:
                        duplicated_instances[predicate] += 1

        frequently_duplicated = {
            predicate
            for predicate in instances
            if duplicated_instances[predicate] / instances[predicate]
            > self.config.duplicated_predicate_fraction
        }
        over_represented = {
            (predicate, object_key)
            for (predicate, object_key), count in object_page_counts.items()
            if pages_with_predicate[predicate] >= self.config.min_predicate_pages
            and count
            > self.config.over_represented_object_fraction
            * pages_with_predicate[predicate]
        }
        return frequently_duplicated, over_represented

    def _cluster_predicate(
        self,
        predicate: str,
        page_mentions: dict[int, dict[str, list[ObjectMentions]]],
    ) -> tuple[dict[int, int], Counter]:
        """Cluster all mention XPaths of a predicate across the site.

        Returns ``(labels_by_node_id, cluster_sizes)``.  The number of
        clusters is the maximum number of mentions of a single object on a
        single page (Section 3.2.2).
        """
        nodes: list[TextNode] = []
        max_mentions = 1
        for per_page in page_mentions.values():
            for obj in per_page.get(predicate, ()):
                nodes.extend(obj.mentions)
                max_mentions = max(max_mentions, len(obj.mentions))
        if not nodes:
            return {}, Counter()
        paths = [xpath_steps(node) for node in nodes]
        labels = cluster_xpaths(
            paths,
            n_clusters=max_mentions,
            max_items=self.config.max_cluster_items,
        )
        labels_by_node = {id(node): label for node, label in zip(nodes, labels)}
        return labels_by_node, Counter(labels)

    # -- main entry point --------------------------------------------------------

    def annotate(
        self,
        documents: list[Document],
        topics: dict[int, TopicResult],
    ) -> list[AnnotatedPage]:
        """Annotate all pages of one template cluster.

        Pages failing the informativeness filter (fewer than
        ``min_annotations_per_page`` relation annotations) are dropped,
        completing Algorithm 1's final step.
        """
        config = self.config

        # Pass 1: gather mentions for every page with a topic.
        page_mentions: dict[int, dict[str, list[ObjectMentions]]] = {}
        for page_index, topic in topics.items():
            page_mentions[page_index] = self.collect_object_mentions(
                documents[page_index], topic
            )

        frequently_duplicated, over_represented = self._compute_global_stats(
            page_mentions
        )

        # Lazily computed per-predicate clusterings.
        cluster_cache: dict[str, tuple[dict[int, int], Counter]] = {}

        def clusters_for(predicate: str) -> tuple[dict[int, int], Counter]:
            if predicate not in cluster_cache:
                cluster_cache[predicate] = self._cluster_predicate(
                    predicate, page_mentions
                )
            return cluster_cache[predicate]

        # Pass 2: per-object decisions.
        annotated_pages: list[AnnotatedPage] = []
        for page_index in sorted(topics):
            topic = topics[page_index]
            annotations: list[Annotation] = []
            for predicate, objects in sorted(page_mentions[page_index].items()):
                co_mentions = [obj.mentions for obj in objects]
                for obj in objects:
                    chosen = self._choose_mention(
                        obj,
                        co_mentions,
                        frequently_duplicated,
                        over_represented,
                        clusters_for,
                    )
                    if chosen is not None:
                        annotations.append(
                            Annotation(predicate, chosen, obj.object_key, obj.object_text)
                        )
            if len(annotations) >= config.min_annotations_per_page:
                annotated_pages.append(
                    AnnotatedPage(
                        page_index=page_index,
                        document=documents[page_index],
                        topic_entity_id=topic.entity_id,
                        topic_node=topic.node,
                        annotations=annotations,
                    )
                )
        return annotated_pages

    def _choose_mention(
        self,
        obj: ObjectMentions,
        co_mentions: list[list[TextNode]],
        frequently_duplicated: set[str],
        over_represented: set[tuple[str, ValueKey]],
        clusters_for,
    ) -> TextNode | None:
        """Decide which mention (if any) of ``obj`` to annotate."""
        best = self.best_local_mentions(obj.mentions, co_mentions)
        predicate = obj.predicate
        if len(best) == 1:
            mention = best[0]
            if (predicate, obj.object_key) in over_represented:
                # Informativeness: a suspiciously common object must sit in
                # the dominant (largest-cluster) page region to be trusted.
                labels, sizes = clusters_for(predicate)
                if not sizes:
                    return None
                if sizes.get(labels.get(id(mention)), 0) < max(sizes.values()):
                    return None
            return mention
        # Local tie: fall back to global evidence only for predicates whose
        # objects are frequently duplicated (Algorithm 2, lines 24-29).
        if predicate not in frequently_duplicated:
            return None
        labels, sizes = clusters_for(predicate)
        mention_sizes = [sizes.get(labels.get(id(m)), 0) for m in best]
        top = max(mention_sizes)
        winners = [m for m, size in zip(best, mention_sizes) if size == top]
        if len(winners) == 1:
            return winners[0]
        return None
