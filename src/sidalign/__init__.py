"""Speaker embedding space alignment backends for asymmetric SID."""

from .align import (
    Checkpoint,
    NegativeBank,
    NessaConfig,
    PairBatch,
    PairedData,
    load_checkpoint,
    loss_m1,
    loss_m2,
    loss_m3,
    map_profiles,
    map_runtime,
    sample_negative_bank,
    save_checkpoint,
    side_maps,
    train,
)
from .data import (
    Corpus,
    EmbeddingRecord,
    Trial,
    TrialSet,
    build_all_profiles,
    load_embeddings,
    load_trials,
    profile_corpus,
    save_embeddings,
    save_scores,
    save_trials,
)
from .logit import (
    FusionTransform,
    WeightMatrix,
    build_weight_matrix,
    compute_fusion_transform,
    fusion_maps,
    logit_score_direct,
    logit_score_fused_batch,
)
from .metrics import (
    RocCurve,
    eer,
    evaluate,
    frr_at_far,
    gap_recovery,
    relative_impact,
    roc,
    score_trials,
)
from .mlp import (
    AdamState,
    Mlp,
    adam_step,
    backward,
    forward,
    mlp_init,
)
from .numerics import (
    Prng,
    cholesky_upper,
    cosine_similarity,
    length_normalize,
)
from .synth import GroundTruth, SynthConfig, generate, make_trials

__version__ = "0.1.0"
