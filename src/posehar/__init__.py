"""Action recognition from 2D pose sequences.

The pipeline turns per-frame landmark detections into action labels:
missing-data treatment and normalization, optional augmentation, PCA plus
self-organizing-map prototype libraries, distance-channel embeddings, and a
small convolutional/recurrent classifier, evaluated under standard
cross-validation protocols.
"""

from .augment import AugmentConfig, augment_set, flip, noise
from .classifier import (
    ClassifierConfig,
    ClassifierModel,
    accuracy,
    init_model,
    load_model,
    pad_batch,
    predict,
    predict_proba,
    save_model,
    train,
)
from .embed import (
    EmbeddingChannels,
    baseline_channels,
    channel_names,
    embed_frame,
    embed_sequence,
)
from .errors import (
    AbsentHip,
    AbsentRoot,
    ConfigError,
    DataError,
    EmptySequence,
    InsufficientData,
    NumericError,
    ParseError,
    PoseHarError,
)
from .evaluate import (
    EvalReport,
    PipelineConfig,
    Protocol,
    accuracy_scores,
    confusion_matrix,
    make_folds,
    run_experiment,
)
from .io import (
    load_dataset,
    load_manifest,
    load_normalized_dataset,
    read_detector_clip,
    read_normalized,
    read_sample,
    write_manifest,
    write_normalized,
    write_sample,
)
from .pca import PcaModel, fit_pca, project, reroll, unroll
from .pose import (
    MIRROR,
    N_LANDMARKS,
    ROOT,
    SUBSETS,
    VIEWPOINTS,
    Sample,
)
from .preprocess import (
    LabeledSequence,
    NormalizedSequence,
    normalize,
    preprocess_sample,
    treat_missing,
)
from .som import (
    ModelBundle,
    PoseLibrary,
    SomConfig,
    SomFit,
    build_bundle,
    build_library,
    load_bundle,
    quantization_error,
    save_bundle,
    train_som,
)
from .synth import ARCHETYPES, MotionSpec, generate, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "ARCHETYPES",
    "AbsentHip",
    "AbsentRoot",
    "AugmentConfig",
    "ClassifierConfig",
    "ClassifierModel",
    "ConfigError",
    "DataError",
    "EmbeddingChannels",
    "EmptySequence",
    "EvalReport",
    "InsufficientData",
    "LabeledSequence",
    "MIRROR",
    "MotionSpec",
    "ModelBundle",
    "N_LANDMARKS",
    "NormalizedSequence",
    "NumericError",
    "ParseError",
    "PcaModel",
    "PipelineConfig",
    "PoseHarError",
    "PoseLibrary",
    "Protocol",
    "ROOT",
    "SUBSETS",
    "Sample",
    "SomConfig",
    "SomFit",
    "VIEWPOINTS",
    "accuracy",
    "accuracy_scores",
    "augment_set",
    "baseline_channels",
    "build_bundle",
    "build_library",
    "channel_names",
    "confusion_matrix",
    "embed_frame",
    "embed_sequence",
    "fit_pca",
    "flip",
    "generate",
    "generate_corpus",
    "init_model",
    "load_bundle",
    "load_dataset",
    "load_manifest",
    "load_model",
    "load_normalized_dataset",
    "make_folds",
    "noise",
    "normalize",
    "pad_batch",
    "predict",
    "predict_proba",
    "preprocess_sample",
    "project",
    "quantization_error",
    "read_detector_clip",
    "read_normalized",
    "read_sample",
    "reroll",
    "run_experiment",
    "save_bundle",
    "save_model",
    "train",
    "train_som",
    "treat_missing",
    "unroll",
    "write_manifest",
    "write_normalized",
    "write_sample",
]
