"""Intrinsic-popularity ranking from post metadata.

Pipeline: filter raw post records into a candidate pool (`corpus`), mine
popularity-discriminable pairs under a paired-comparison model of log-likes
(`mining`), train a shared-weight pairwise ranking scorer over per-post
feature vectors (`ranker`, `mlp`), and evaluate with pairwise accuracy and
noise ablations (`evaluate`). `baseline` holds the
absolute-popularity regression baseline and `synthgen` generates corpora
with known ground truth. `cli` ties it together behind subcommands.
"""

__version__ = "0.1.0"
