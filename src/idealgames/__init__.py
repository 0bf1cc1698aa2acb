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
    preserves,
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
    talagrand_strategy,
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
    cylinder_contains,
    eval_term,
    perm_apply,
    sample_subseq,
    subseq_apply,
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
    count,
    generator,
    indicator,
    interval,
    member,
    prefix,
    schedule_all,
    schedule_even,
    schedule_explicit,
)
