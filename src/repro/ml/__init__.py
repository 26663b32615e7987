"""Machine-learning substrate: vectorizer, classifier, clustering, metrics."""

from repro.ml.cluster import agglomerative_cluster, cluster_xpaths
from repro.ml.features import FeatureVectorizer
from repro.ml.logistic import SoftmaxRegression
from repro.ml.metrics import PRF, f1_score, mean_prf

__all__ = [
    "agglomerative_cluster",
    "cluster_xpaths",
    "FeatureVectorizer",
    "SoftmaxRegression",
    "PRF",
    "f1_score",
    "mean_prf",
]
