"""Curriculum and bandit task sampling for meta-learned initializations.

A small fully-connected net with exact gradients and Hessian-vector
products, a family of binary tasks over a synthetic three-class source,
four task samplers, the meta-training and fine-tuning loops, and an
experiment harness with a command line interface.
"""

__version__ = "0.1.0"
