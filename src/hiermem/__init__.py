"""hiermem: a small decoder-only transformer whose knowledge lives in a
hierarchically clustered bank of parametric memory blocks.

Subpackages are intentionally flat modules:

- numcore:  numpy tensors + tape autodiff (exactly the op set the model needs)
- embed:    hashed character n-gram text embedder
- cluster:  balanced hierarchical k-means tree + greedy assignment
- membank:  memory bank storage, fetch, masking, size accounting
- model:    anchor transformer + memory attachments
- train:    byte tokenizer, cluster-wise packing, sparse-update training
- tiersim:  storage-tier latency model for memory fetches
- evals:    synthetic long-tail corpus, fact-recall evaluation
- refcheck: independent oracles used only by the test suite
- cli:      command-line entry points
"""

__version__ = "0.1.0"
