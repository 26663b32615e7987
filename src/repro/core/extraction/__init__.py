"""Training and extraction (Section 4 of the paper)."""

from repro.core.extraction.extractor import (
    CeresExtractor,
    ClusterExtractorPool,
    Extraction,
    PageCandidates,
)
from repro.core.extraction.features import FeatureNameBatcher, NodeFeatureExtractor
from repro.core.extraction.trainer import CeresModel, CeresTrainer

__all__ = [
    "CeresExtractor",
    "ClusterExtractorPool",
    "Extraction",
    "FeatureNameBatcher",
    "PageCandidates",
    "NodeFeatureExtractor",
    "CeresModel",
    "CeresTrainer",
]
