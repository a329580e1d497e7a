"""Scene-graph + knowledge-graph symbolic image classification.

Two GCN towers encode a per-image scene graph and a commonsense knowledge
graph; their sum readouts are fused (concatenation+product or norm-softmax
attention) and classified by an MLP head (softmax, or a sigmoid per label),
trained with plain SGD on a taped reverse-mode autodiff core.
"""

from .embeddings import EmbeddingTable, load_embeddings
from .evaluation import MetricsReport, ThresholdPolicy, f_scores, predict_labels
from .graphs import (DEFAULT_RELATIONS, FactStore, GraphEdge, GraphNode,
                     LabeledGraph, RelationWhitelist, build_knowledge_graph,
                     build_knowledge_graphs, load_scene_graph, validate_graph)
from .model import (Batch, GraphBatch, ModelConfig, ModelParams, attention_fuse,
                    classify, encode_nodes, forward, forward_batch, forward_logits,
                    fuse_concat, gcn_layer, init_params, pack_batch, param_count,
                    readout_sum, take)
from .tensor import Parameter, Tape, Tensor, backward, sgd_step
from .training import (Example, PackedSplit, RunLog, TrainConfig, pack_split, train,
                       train_epoch)

__version__ = "0.1.0"
