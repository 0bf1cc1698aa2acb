"""Executable ideal convergence: ideals on N, interval witnesses of
meagerness, the Laflamme game with winning strategies, generic
subsequence/permutation builders, and Monte Carlo statistics over random
subsequences."""

__version__ = "0.1.0"

from .convergence import (
    PointSet,
    PreserveOutcome,
    accumulation_points,
    cluster_points,
    hausdorff,
    limit_points,
    preserve_outcome,
)
from .errors import (
    DslParseError,
    ExhaustedIndices,
    HorizonCapExceeded,
    HorizonTooSmall,
    IdealGamesError,
    InvalidMove,
    OracleViolation,
    OutsideFragment,
    SpaceMismatch,
    SteeringStuck,
)
from .games import (
    Ball,
    Round,
    Transcript,
    build_perm_game,
    build_subseq_game,
    build_subseq_witness,
    play_laflamme,
    steer_series,
    validate_transcript,
)
from .ideals import (
    Ideal,
    MaximalIdealStub,
    SoundnessReport,
    Verdict,
    VerdictValue,
    classify,
    classify_horizon,
    classify_symbolic,
    density0,
    fin,
    fubini_odd,
    summable,
    talagrand_witness,
    witness_soundness_report,
)
from .mc import (
    McReport,
    dyadic_cylinder_mass,
    estimate_preservation,
    merge_reports,
    wilson_interval,
)
from .seqspace import (
    AlternatingPair,
    Cylinder,
    ExplicitTail,
    Perm,
    PiecewiseOnSet,
    RationalEnum,
    SeqDescriptor,
    SignedRationalEnum,
    Space,
    Subseq,
    TermRule,
    Transformed,
    eval_term,
    sample_subseq,
)
from .series import (
    ideal_bounded,
    partial_sums,
    subseq_sums_bounded,
)
from .setexpr import (
    ArithProg,
    Compl,
    Finite,
    Generator,
    Inter,
    IntervalSchedule,
    SetExpr,
    Tail,
    Union,
    generator,
    indicator,
    interval,
    member,
    prefix,
)
