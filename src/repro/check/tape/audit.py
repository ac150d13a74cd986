"""The tape audit: record, analyze, cross-check, report (rules T001–T004).

:func:`audit_model` runs one (model, dataset) probe train step three times
— identically seeded, all under ``reference_backward()`` semantics:

1. under a :class:`~repro.tensor.GraphTracer`, lowering the step into a
   :class:`~repro.check.tape.ir.TapeProgram`;
2. under a :class:`repro.obs.MemoryWatermark`, measuring what the engine
   actually allocates (total and peak live bytes, same accounting as the
   IR);
3. under a :class:`repro.obs.Profiler`, for per-op bytes/time to
   cross-reference.

Then it runs the static analyses and emits lint-style findings:

========  ========  =====================================================
rule      severity  meaning
========  ========  =====================================================
``T001``  error     byte accounting drift: the IR's owned bytes disagree
                    with the watermark's measured allocations by more
                    than the tolerance (default 10%) — the recorded
                    program does not faithfully cover what ran
``T002``  error     mutation hazard: a value saved for backward is
                    mutated before its backward read
                    (:func:`find_mutation_hazards`)
``T003``  error     dead value: a recorded op contributes to neither the
                    loss nor any parameter gradient nor an export
                    (:func:`find_dead_values`)
``T004``  info      fusion candidate, ranked by profiler time share
                    (:func:`find_fusion_candidates`)
========  ========  =====================================================

:func:`audit_models` sweeps the neural zoo × dataset presets at probe
size (the PR 2 analyzer's grid); ``repro check tape`` is the CLI front
end and ``make check-tape`` the CI gate (zero T001/T002/T003 across the
zoo).  The JSON report (schema :data:`TAPE_SCHEMA`) carries the arena
plan and fusion candidates — the input contract for a tape-to-program
compiler (deferred; see ROADMAP.md, "Deferred").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...data import PRESETS, build_forecasting_data, load_dataset
from ...models import NEURAL, build_model, canonical_model
from ...nn.module import Module
from ...obs import MemoryWatermark, Profiler
from ...tensor import functional as F
from ...tensor.ops_registry import OP_NAMES
from ...tensor.tensor import Tensor, reference_backward
from ...utils.seed import set_seed
from .fusion import FusionCandidate, find_fusion_candidates
from .hazards import DeadComponent, MutationHazard, find_dead_values, find_mutation_hazards
from .ir import TapeProgram, record_program
from .lifetime import compute_lifetimes, plan_arena

__all__ = [
    "TAPE_SCHEMA",
    "TAPE_RULES",
    "TapeFinding",
    "TapeAudit",
    "audit_model",
    "audit_models",
    "tape_report_dict",
    "format_tape_report",
]

TAPE_SCHEMA = "repro.check.tape/v1"

TAPE_RULES = {
    "T001": "IR byte accounting must agree with measured allocations",
    "T002": "no mutation of a value saved for backward before its backward read",
    "T003": "every recorded op must contribute to the loss, a gradient, or an export",
    "T004": "fusion candidate (informational)",
}


@dataclass
class TapeFinding:
    """One lint-style diagnostic (``model@dataset: T00x message``)."""

    rule: str
    severity: str  # "error" | "info"
    message: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "severity": self.severity, "message": self.message}


@dataclass
class TapeAudit:
    """Everything the audit learned about one (model, dataset) pair."""

    model: str
    dataset: str
    program: TapeProgram
    arena: dict
    consistency: dict
    hazards: list[MutationHazard] = field(default_factory=list)
    dead_values: list[DeadComponent] = field(default_factory=list)
    fusion: list[FusionCandidate] = field(default_factory=list)
    fusion_top: int = 3

    @property
    def ok(self) -> bool:
        """True when the pair produced no error-severity findings."""
        return not any(f.severity == "error" for f in self.findings())

    def findings(self) -> list[TapeFinding]:
        """Lint-style diagnostics: T001–T003 errors plus top T004 infos."""
        found: list[TapeFinding] = []
        if not self.consistency["within_tolerance"]:
            found.append(
                TapeFinding(
                    "T001",
                    "error",
                    f"IR owned bytes {self.consistency['ir_owned_bytes']} vs "
                    f"measured {self.consistency['measured_total_bytes']} "
                    f"(ratio {self.consistency['ratio']:.3f}, tolerance "
                    f"{self.consistency['tolerance']:.0%})",
                )
            )
        for hazard in self.hazards:
            found.append(TapeFinding("T002", "error", hazard.message()))
        for component in self.dead_values:
            found.append(TapeFinding("T003", "error", component.message(self.program)))
        for candidate in self.fusion[: self.fusion_top]:
            found.append(TapeFinding("T004", "info", candidate.message()))
        return found

    def to_dict(self) -> dict:
        """JSON-ready record for the ``repro.check.tape/v1`` report."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "ok": self.ok,
            "program": self.program.to_dict(),
            "arena": self.arena,
            "consistency": self.consistency,
            "hazards": [h.to_dict() for h in self.hazards],
            "dead_values": [d.to_dict() for d in self.dead_values],
            "fusion": [c.to_dict() for c in self.fusion[:10]],
            "fusion_candidates": len(self.fusion),
            "findings": [f.to_dict() for f in self.findings()],
        }


def audit_model(
    model: Module,
    *,
    name: str,
    dataset: str,
    x: np.ndarray,
    tod: np.ndarray,
    dow: np.ndarray,
    y: np.ndarray,
    std: float = 1.0,
    mean: float = 0.0,
    tolerance: float = 0.10,
    fusion_top: int = 3,
) -> TapeAudit:
    """Record and statically audit one probe train step (see module docs).

    The step is the trainer's: forward, de-normalise, masked-MAE loss,
    backward.  ``std``/``mean`` come from the dataset scaler so the loss
    matches what ``repro profile`` measures.
    """

    def step() -> Tensor:
        prediction = model(x, tod, dow) * std + mean
        return F.masked_mae_loss(prediction, Tensor(y))

    names = {id(param): pname for pname, param in model.named_parameters()}

    model.zero_grad()
    program = record_program(step, names=names)

    model.zero_grad()
    with reference_backward(), MemoryWatermark() as watermark:
        step().backward()

    model.zero_grad()
    with reference_backward(), Profiler() as profiler:
        step().backward()
    model.zero_grad()

    lifetimes = compute_lifetimes(program)
    plan = plan_arena(program, lifetimes)
    measured_peak = watermark.peak_bytes
    arena = plan.to_dict()
    arena["measured_peak_bytes"] = measured_peak
    arena["measured_total_bytes"] = watermark.total_bytes
    arena["peak_reduction"] = (
        round(measured_peak / plan.arena_bytes, 2) if plan.arena_bytes else 1.0
    )

    ir_owned = program.owned_bytes()
    measured_total = watermark.total_bytes
    profiler_forward = sum(
        stat.bytes
        for (op, phase), stat in profiler.ops.items()
        if phase == "forward" and op in OP_NAMES
    )
    ratio = ir_owned / measured_total if measured_total else 1.0
    consistency = {
        "ir_owned_bytes": ir_owned,
        "measured_total_bytes": measured_total,
        "ratio": round(ratio, 4),
        "tolerance": tolerance,
        "within_tolerance": abs(ratio - 1.0) <= tolerance,
        "nominal_forward_bytes": program.nominal_bytes("op"),
        "profiler_forward_bytes": profiler_forward,
    }

    op_seconds = {
        op: stat.time / stat.count
        for (op, phase), stat in profiler.ops.items()
        if phase == "forward" and op in OP_NAMES and stat.count
    }
    return TapeAudit(
        model=name,
        dataset=dataset,
        program=program,
        arena=arena,
        consistency=consistency,
        hazards=find_mutation_hazards(program),
        dead_values=find_dead_values(program),
        fusion=find_fusion_candidates(program, op_seconds),
        fusion_top=fusion_top,
    )


def audit_models(
    models: list[str] | None = None,
    datasets: list[str] | None = None,
    *,
    num_nodes: int = 6,
    num_steps: int = 420,
    hidden: int = 8,
    layers: int = 1,
    batch_size: int = 2,
    seed: int = 0,
    tolerance: float = 0.10,
) -> list[TapeAudit]:
    """Audit registered neural models against dataset presets.

    Same probe grid as :func:`repro.check.analyze_models` — every neural
    model × every preset at probe size, seconds per pair.  Statistical
    models carry no tape and are rejected.
    """
    names = [canonical_model(name) for name in models] if models else list(NEURAL)
    for name in names:
        if name not in NEURAL:
            raise ValueError(f"{name} is a statistical model: it records no tape")
    audits = []
    for dataset_name in datasets or list(PRESETS):
        data = build_forecasting_data(
            load_dataset(dataset_name, num_nodes=num_nodes, num_steps=num_steps)
        )
        batch = next(iter(data.loader("train", batch_size=batch_size, shuffle=False)))
        for name in names:
            set_seed(seed)
            model, _ = build_model(name, data, hidden=hidden, layers=layers)
            audits.append(
                audit_model(
                    model,
                    name=name,
                    dataset=dataset_name,
                    x=batch.x,
                    tod=batch.tod,
                    dow=batch.dow,
                    y=batch.y,
                    std=float(data.scaler.std),
                    mean=float(data.scaler.mean),
                    tolerance=tolerance,
                )
            )
    return audits


def tape_report_dict(audits: list[TapeAudit]) -> dict:
    """Machine-readable report (schema :data:`TAPE_SCHEMA`)."""
    findings = [f for audit in audits for f in audit.findings()]
    return {
        "schema": TAPE_SCHEMA,
        "generated_by": "repro check tape",
        "rules": TAPE_RULES,
        "audits": [audit.to_dict() for audit in audits],
        "findings_total": sum(1 for f in findings if f.severity == "error"),
        "info_total": sum(1 for f in findings if f.severity == "info"),
    }


def format_tape_report(audits: list[TapeAudit]) -> str:
    """Human-readable table plus one lint-style line per finding."""
    lines = [
        f"{'model':<14} {'dataset':<14} {'instrs':>7} {'arena':>10} "
        f"{'measured':>10} {'reuse':>6} {'status'}"
    ]
    for audit in audits:
        errors = sum(1 for f in audit.findings() if f.severity == "error")
        status = "ok" if not errors else f"{errors} finding(s)"
        counts = audit.program.counts()["instructions"]
        total = sum(counts.values())
        lines.append(
            f"{audit.model:<14} {audit.dataset:<14} {total:>7,} "
            f"{audit.arena['arena_bytes']:>10,} "
            f"{audit.arena['measured_peak_bytes']:>10,} "
            f"{audit.arena['reuse_ratio']:>6.1f} {status}"
        )
    for audit in audits:
        for finding in audit.findings():
            marker = "" if finding.severity == "error" else " (info)"
            lines.append(
                f"  {audit.model}@{audit.dataset}: {finding.rule}{marker} "
                f"{finding.message}"
            )
    errors = sum(
        1 for audit in audits for f in audit.findings() if f.severity == "error"
    )
    infos = sum(
        1 for audit in audits for f in audit.findings() if f.severity == "info"
    )
    lines.append(f"tape: {errors} finding(s), {infos} fusion note(s)")
    return "\n".join(lines)
