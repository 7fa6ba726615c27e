"""Deterministic core of a long-form speech pipeline.

Audio conditioning, silence-aware chunk planning, music-presence detection,
speaker-embedding clustering, timeline post-processing, annotation repair,
and exact WER/DER evaluation. Neural components (ASR, source separation,
segmentation, embedding extraction) are consumed via documented file
formats, never executed here.
"""

__version__ = "0.1.0"

from .audio import (
    FrameSeries,
    MusicDetectConfig,
    MusicPresence,
    Waveform,
    downmix_mono,
    frame_rms_db,
    highpass,
    music_presence,
    peak_normalize,
    resample,
    spectral_flux,
    split_on_silence,
)
from .chunking import (
    BoundaryAudit,
    ChunkConfig,
    ChunkPlan,
    boundary_error_audit,
    chunk_to_samples,
    fixed_interval_plan,
    plan_chunks,
)
from .clustering import (
    ClusteringConfig,
    ClusterResult,
    GmmModel,
    PcaBasis,
    ahc_centroid,
    cluster_embeddings,
    estimate_k_silhouette,
    gmm_fit,
    kmeans,
    pca_fit,
    pca_inverse_transform,
    pca_transform,
    select_k_gmm,
    silhouette_score,
    smooth_labels_temporal,
)
from .errors import (
    ConfigError,
    FormatError,
    ParameterError,
    PipelineError,
    StructuralError,
    UndefinedMetricError,
)
from .interchange import (
    DecodeConfig,
    EmbeddingSet,
    ScheduledWindow,
    TranscriptRecord,
    read_embeddings,
    read_embeddings_file,
    read_transcripts_jsonl,
    window_schedule,
    write_embeddings,
    write_embeddings_file,
    write_transcripts_jsonl,
)
from .metrics import (
    DerReport,
    WerReport,
    der,
    merge_der_reports,
    merge_wer_reports,
    normalize_text,
    optimal_assignment,
    wer,
)
from .repair import (
    RepairReport,
    RowOutcome,
    format_seconds,
    parse_segments_csv,
    repair_rows,
    rows_to_csv,
    write_segments_csv,
)
from .spans import TimeSpan
from .timeline import (
    SpeakerSegment,
    SpeakerTimeline,
    merge_adjacent_windows,
    parse_rttm,
    suppress_gaps,
    write_rttm,
)
from .wavefile import load_mono, read_wav, wav_bytes, write_wav
