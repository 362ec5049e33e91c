"""Second-order HMM toolkit for closed-set talking-condition identification."""

from .audio import AudioClip, FeatureSequence, FrameParams, decode_pcm16_wav, \
    extract_features, load_features, save_features
from .classify import ConditionBank, EvaluationReport, IdentificationResult, \
    evaluate, identify, improvement_rate, improvement_table, train_bank
from .config import TrainConfig
from .corpus import ManifestEntry, SynthSpec, apply_split_protocol, \
    generate_synthetic_corpus, parse_manifest
from .errors import DataError, FormatError, Hmm2tcError, NumericError
from .gmm import GaussianMixture
from .hmm1 import Hmm1Model, baum_welch1, forward1, viterbi1
from .hmm2 import Hmm2Model, Trellis2, backward2, baum_welch2, forward2, \
    lift_hmm1, path_log_prob2, sample_hmm2, viterbi2
from .init import init_hmm2
from .model_io import load_model, save_model

__version__ = "0.1.0"
