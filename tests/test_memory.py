"""The memory that synthesis, corpus IO, profile building, aligner maps and
trial scoring need beyond their inputs and results stays bounded by their
block size as the corpus or trial list grows."""

import json
import tracemalloc

import pytest

from sidalign.align import Checkpoint, map_runtime
from sidalign.data import (
    Corpus,
    TrialSet,
    build_all_profiles,
    load_embeddings,
    save_embeddings,
)
from sidalign.logit import (
    WeightMatrix,
    compute_fusion_transform,
    logit_score_fused_batch,
)
from sidalign.metrics import cosine_scorer, score_trials
from sidalign.mlp import mlp_init
from sidalign.numerics import Prng
from sidalign.synth import SynthConfig, generate

N = 1024
DIM = 32


def transient_bytes(call) -> int:
    """The tracemalloc peak of call() less what is still allocated when it
    returns: its result and anything else it keeps."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return (peak - before) - (held - before)


def corpus_of(n: int) -> Corpus:
    prng = Prng(n)
    return Corpus([f"spk{i // 8:05d}" for i in range(n)], [f"utt{i:06d}" for i in range(n)],
                  ["model-x"] * n, ["enroll" if i % 8 < 4 else "runtime" for i in range(n)],
                  prng.standard_normal(n, DIM))


def save_call(n: int, tmp_path):
    corpus = corpus_of(n)
    return lambda: save_embeddings(corpus, tmp_path / f"save{n}.jsonl")


def load_call(n: int, tmp_path):
    path = tmp_path / f"load{n}.jsonl"
    save_embeddings(corpus_of(n), path)
    return lambda: load_embeddings(path)


def dumps_load_call(n: int, tmp_path):
    """load_call on the same records as json.dumps writes them, keys in another
    order: a layout the bulk reader refuses, so every line is read alone."""
    path = tmp_path / f"dumps{n}.jsonl"
    path.write_text("".join(
        json.dumps({"vector": r.vector.tolist(), "split": r.split, "model_id": r.model_id,
                    "utterance_id": r.utterance_id, "speaker_id": r.speaker_id}) + "\n"
        for r in corpus_of(n).records))
    return lambda: load_embeddings(path)


def score_call(n: int, tmp_path, scorer=cosine_scorer):
    prng = Prng(n)
    prof = {f"s{i}": prng.standard_normal(DIM) for i in range(64)}
    run = {f"u{i}": prng.standard_normal(DIM) for i in range(256)}
    trials = TrialSet.of_columns([f"s{i}" for i in prng.integers(0, 64, n)],
                                 [f"u{i}" for i in prng.integers(0, 256, n)],
                                 ["target", "imposter"] * (n // 2))
    return lambda: score_trials(trials, scorer, prof, run)


def fused_score_call(n: int, tmp_path):
    """score_call with a scorer that multiplies matrices: the logit fusion
    of two 64-speaker weight matrices."""
    prng = Prng(1)
    speakers = [f"s{i}" for i in range(64)]
    fusion = compute_fusion_transform(WeightMatrix(speakers, prng.standard_normal(64, DIM)),
                                      WeightMatrix(speakers, prng.standard_normal(64, DIM)))
    return score_call(n, tmp_path, lambda p, r: logit_score_fused_batch(p, r, fusion))


def generate_call(n: int, tmp_path):
    """Both views of n rows each: n / 8 speakers of 8 utterances, through the
    nonlinear map, whose hidden layer is the widest temporary."""
    config = SynthConfig(n_speakers=n // 8, n_enroll_utts=4, n_runtime_utts=4,
                         latent_dim=DIM, embed_dim=DIM, distortion_x="mlp_nonlinear",
                         distortion_y="mlp_nonlinear", seed=n)
    return lambda: generate(config)


def profiles_call(n: int, tmp_path):
    corpus = corpus_of(n)
    return lambda: build_all_profiles(corpus, "model-x")


def map_runtime_call(n: int, tmp_path):
    """An m1 network of hidden width 256 on n rows: each hidden activation of
    one call on all rows would be 8 times the mapped rows."""
    ckpt = Checkpoint("m1", mlp_init([DIM, 256, 256, DIM], seed=0), None, None,
                      1.0, 0.5, 0.1, 0, 1)
    vectors = Prng(n).standard_normal(n, DIM)
    return lambda: map_runtime(ckpt, vectors)


@pytest.mark.parametrize("make_call", [save_call, load_call, dumps_load_call, score_call,
                                       fused_score_call, generate_call, profiles_call,
                                       map_runtime_call],
                         ids=["save_embeddings", "load_embeddings", "load_embeddings_json_dumps",
                              "score_trials", "score_trials_fused", "generate",
                              "build_all_profiles", "map_runtime"])
def test_transient_memory_grows_less_than_twice_at_eight_times_the_size(tmp_path,
                                                                        make_call):
    small, large = (transient_bytes(make_call(n, tmp_path)) for n in (N, 8 * N))
    assert large < 2 * small, (small, large)
