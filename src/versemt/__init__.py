"""Toolkit for low-resource translation pipelines over verse-aligned corpora.

Covers family-labeled multilingual pair generation, BPE preprocessing,
EM word alignment with a diagonal prior, parallel named-entity lexicon
construction, order-preserving placeholder tagging/restoration, ablation
sampling with generalization-loss early stopping, and BLEU/rubric evaluation.
"""

__version__ = "0.1.0"
