"""Static tape-IR analysis: the recorded train step as an inspectable program.

The D²STGNN train step is structurally static — every step runs the same
ops on the same shapes — so one recorded forward+backward *is* the
program.  This package records it symbolically
and analyzes it without running it:

* :mod:`~repro.check.tape.ir` — :func:`record_program` lowers one step
  into a flat SSA-like :class:`TapeProgram` (values, instructions,
  aliasing, saved-version stamps);
* :mod:`~repro.check.tape.lifetime` — first-def/last-use intervals and a
  greedy arena plan with projected peak bytes;
* :mod:`~repro.check.tape.hazards` — mutation hazards against
  saved-for-backward values (T002) and dead-value proof (T003);
* :mod:`~repro.check.tape.fusion` — fusable matmul-epilogue and
  elementwise chains, ranked by profiler time (T004);
* :mod:`~repro.check.tape.audit` — the driver: record, measure with
  :class:`repro.obs.MemoryWatermark`/:class:`repro.obs.Profiler`,
  cross-check (T001), and report.

Entry points: ``repro check tape`` on the command line, ``make
check-tape`` in CI, :func:`audit_models` from code.  See
``docs/tape-analysis.md``.
"""

from .audit import (
    TAPE_RULES,
    TAPE_SCHEMA,
    TapeAudit,
    TapeFinding,
    audit_model,
    audit_models,
    format_tape_report,
    tape_report_dict,
)
from .fusion import ACTIVATION_OPS, ELEMENTWISE_OPS, FusionCandidate, find_fusion_candidates
from .hazards import DeadComponent, MutationHazard, find_dead_values, find_mutation_hazards
from .ir import Instruction, TapeProgram, Value, record_program
from .lifetime import ArenaPlan, Lifetime, compute_lifetimes, plan_arena

__all__ = [
    "ACTIVATION_OPS",
    "ArenaPlan",
    "DeadComponent",
    "ELEMENTWISE_OPS",
    "FusionCandidate",
    "Instruction",
    "Lifetime",
    "MutationHazard",
    "TAPE_RULES",
    "TAPE_SCHEMA",
    "TapeAudit",
    "TapeFinding",
    "TapeProgram",
    "Value",
    "audit_model",
    "audit_models",
    "compute_lifetimes",
    "find_dead_values",
    "find_fusion_candidates",
    "find_mutation_hazards",
    "format_tape_report",
    "plan_arena",
    "record_program",
    "tape_report_dict",
]
