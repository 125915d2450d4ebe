"""Batch front door: parse inputs, run an operation, emit a certificate.

Usage: ``kframe <command> [--frame PATH]... [--operator PATH]
[--symbol PATH] [--tol X] [--format text|json] [--seed N]``.

Reports are deterministic for fixed inputs and options (no timestamps);
every verdict carries its residual and the threshold it was tested against.
Exit codes: 0 all verdicts pass, 1 any verdict failed, 2 input/usage error,
3 internal consistency error (two computation routes disagreed) or a
numerical failure (LAPACK did not converge, or a float overflowed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import duality, frames, io, multipliers, worked
from .errors import (
    InternalConsistencyError,
    KFrameError,
    ParseError,
    ShapeMismatch,
)
from .frames import Frame
from .linalg import _RANK_SCALE, _SLACK, DEFAULT_POLICY, CheckResult, OperatorEnv, TolerancePolicy
from .linalg import _gate, spectral_norm
from .multipliers import Symbol

__all__ = ["JobSpec", "Report", "run_job", "main", "build_parser"]

DEFAULT_SEED = 7

COMMANDS = (
    "analyze",
    "dual",
    "dual-family",
    "multiplier",
    "right-inverse",
    "left-inverse",
    "perturb-check",
    "verify",
    "examples",
)


@dataclass(frozen=True)
class JobSpec:
    """A parsed invocation: command, input paths, and options."""

    command: str
    frames: tuple[str, ...] = ()
    operator: str | None = None
    symbol: str | None = None
    tol: float | None = None
    fmt: str = "text"
    seed: int = DEFAULT_SEED


@dataclass
class Report:
    command: str
    inputs: dict
    tolerances: dict
    seed: int
    results: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    error: dict | None = None

    @property
    def all_passed(self) -> bool:
        return self.error is None and all(v.ok for v in self.verdicts.values())

    def body(self) -> dict:
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "results": self.results,
            "verdicts": {
                name: {"passed": v.ok, "residual": v.residual, "threshold": v.threshold}
                for name, v in self.verdicts.items()
            },
            "residuals": {name: v.residual for name, v in self.verdicts.items()},
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in sorted(self.inputs.items()):
            lines.append(f"input {key}: {value}")
        for key, value in sorted(self.tolerances.items()):
            lines.append(f"tolerance {key}: {value:g}")
        lines.append(f"seed: {self.seed}")
        if self.error is not None:
            lines.append(f"ERROR [{self.error['code']}]: {self.error['message']}")
        for key in sorted(self.results):
            value = self.results[key]
            if isinstance(value, float):
                lines.append(f"{key}: {value!r}")
            elif isinstance(value, (str, int, bool)):
                lines.append(f"{key}: {value}")
            else:
                lines.append(f"{key}: {json.dumps(value)}")
        for name in sorted(self.verdicts):
            v = self.verdicts[name]
            status = "PASS" if v.ok else "FAIL"
            lines.append(
                f"[{status}] {name}: residual {v.residual:.6e} vs threshold {v.threshold:.6e}"
            )
        lines.append("overall: " + ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines)


def _require(job: JobSpec, n_frames: int, operator: bool, symbol: bool | None = False):
    """Arity checks; ``symbol=None`` marks the symbol optional."""
    if len(job.frames) != n_frames:
        raise ParseError(
            f"'{job.command}' needs exactly {n_frames} --frame input(s), got {len(job.frames)}"
        )
    if operator and job.operator is None:
        raise ParseError(f"'{job.command}' needs --operator")
    if symbol is True and job.symbol is None:
        raise ParseError(f"'{job.command}' needs --symbol")


def _load_frame(path: str) -> Frame:
    obj = io.parse_file(path)
    if not isinstance(obj, Frame):
        raise ParseError(f"{path}: expected a frame file")
    return obj


def _load_env(path: str) -> OperatorEnv:
    obj = io.parse_file(path)
    if isinstance(obj, Frame) or isinstance(obj, Symbol):
        raise ParseError(f"{path}: expected a matrix file")
    return OperatorEnv.from_matrix(obj)


def _load_symbol(path: str) -> Symbol:
    obj = io.parse_file(path)
    if not isinstance(obj, Symbol):
        raise ParseError(f"{path}: expected a symbol file")
    return obj


def _vectors_out(f: Frame) -> list:
    return io.frame_to_obj(f)["vectors"]


def _cmd_analyze(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 1, operator=True)
    frame = _load_frame(job.frames[0])
    env = _load_env(job.operator)
    bounds = frames.k_frame_check(frame, env, policy)
    report.results["optimal_lower"] = bounds.lower
    report.results["optimal_upper"] = bounds.upper
    report.results["bessel_bound"] = bounds.upper
    report.results["minimal"] = frames.minimality_check(frame)
    report.results["operator_rank"] = env.rank
    tight = frames.tightness_check(frame, env, policy)
    report.results["tight"] = tight.tight
    if tight.constant is not None:
        report.results["tight_constant"] = tight.constant
    report.results["parseval"] = tight.parseval
    report.verdicts["range-inclusion"] = bounds.inclusion

    # seeded spot check of the two inequalities at the optimal bounds
    rng = np.random.default_rng(job.seed)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=env.dim) + 1j * rng.normal(size=env.dim)
        coeff = np.abs(frame.analysis @ v) ** 2
        total = float(np.sum(coeff))
        low = bounds.lower * float(np.linalg.norm(env.k_adjoint @ v) ** 2)
        high = bounds.upper * float(np.linalg.norm(v) ** 2)
        worst = max(worst, low - total, total - high)
    sampled = _gate(max(worst, 0.0), bounds.upper, policy.identity_tol)
    report.verdicts["sampled-inequalities"] = sampled


def _cmd_dual(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 1, operator=True)
    frame = _load_frame(job.frames[0])
    env = _load_env(job.operator)
    bounds = frames.k_frame_check(frame, env, policy)
    dual = duality.canonical_k_dual(frame, env, policy)
    cert = duality.verify_k_dual(frame, dual, env, policy)
    report.results["dual_vectors"] = _vectors_out(dual)
    report.verdicts["dual-identity"] = CheckResult(cert.passed, cert.residual, cert.threshold)
    if cert.lower_bound_report is not None:
        report.results["dual_lower_bound"] = cert.lower_bound_report[0]
        report.results["projected_lower_bound"] = cert.lower_bound_report[1]
    envelope = duality.canonical_dual_bound_certificate(
        frame, env, bounds.lower, bounds.upper, policy
    )
    report.results["envelope"] = list(envelope.envelope)
    report.results["dual_optimal_bounds"] = list(envelope.observed)
    report.verdicts["dual-bounds-envelope"] = max(envelope.lower, envelope.upper,
                                                  key=lambda side: side.residual)


def _cmd_verify(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 2, operator=True)
    frame = _load_frame(job.frames[0])
    candidate = _load_frame(job.frames[1])
    env = _load_env(job.operator)
    cert = duality.verify_k_dual(frame, candidate, env, policy)
    report.verdicts["dual-identity"] = CheckResult(cert.passed, cert.residual, cert.threshold)
    if cert.lower_bound_report is not None:
        report.results["dual_lower_bound"] = cert.lower_bound_report[0]
        report.results["projected_lower_bound"] = cert.lower_bound_report[1]


def _cmd_dual_family(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 2, operator=True)
    frame = _load_frame(job.frames[0])
    candidate = _load_frame(job.frames[1])
    env = _load_env(job.operator)
    pert = duality.dual_family_recover_phi(frame, candidate, env, policy)
    report.verdicts["phi-admissible"] = duality.admissibility_violation(frame, env, pert, policy)
    regenerated = duality.dual_family_generate(frame, env, pert, policy)
    roundtrip = float(np.max(np.abs(regenerated.vectors - candidate.vectors)))
    report.results["phi"] = io.matrix_to_obj(pert.phi)
    report.verdicts["family-round-trip"] = _gate(
        roundtrip, float(np.max(np.abs(candidate.vectors))), _SLACK
    )


def _cmd_multiplier(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 2, operator=False, symbol=True)
    phi = _load_frame(job.frames[0])
    psi = _load_frame(job.frames[1])
    symbol = _load_symbol(job.symbol)
    mult = multipliers.assemble_multiplier(symbol, phi, psi)
    report.results["matrix"] = io.matrix_to_obj(mult.matrix)
    report.results["norm"] = mult.norm()
    report.results["norm_bound"] = mult.norm_bound()
    report.verdicts["norm-bound"] = mult.norm_bound_check()


def _inverse_command(job: JobSpec, policy: TolerancePolicy, report: Report, side: str) -> None:
    _require(job, 2, operator=True, symbol=None)
    phi = _load_frame(job.frames[0])
    psi = _load_frame(job.frames[1])
    env = _load_env(job.operator)
    symbol = _load_symbol(job.symbol) if job.symbol else Symbol.ones(phi.size)
    mult = multipliers.assemble_multiplier(symbol, phi, psi)
    if side == "right":
        inverse = multipliers.k_right_inverse(mult, env, policy)
        matrix = inverse.matrix
        report.results["majorization"] = inverse.majorization
        residual = spectral_norm(mult.matrix @ matrix - env.k)
        name = "right-inverse-identity"
    else:
        matrix = multipliers.k_left_inverse(mult, env, policy)
        residual = spectral_norm(matrix @ mult.matrix - env.k)
        name = "left-inverse-identity"
    report.results["inverse"] = io.matrix_to_obj(matrix)
    report.verdicts[name] = _gate(residual, env.norm(), policy.identity_tol)


def _cmd_perturb_check(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 2, operator=True, symbol=None)
    phi = _load_frame(job.frames[0])
    psi = _load_frame(job.frames[1])
    env = _load_env(job.operator)
    symbol = _load_symbol(job.symbol) if job.symbol else Symbol.ones(phi.size)
    bounds = frames.k_frame_check(phi, env, policy)
    cond = multipliers.perturbation_condition(
        phi, psi, env, symbol, bounds.lower, bounds.upper, policy
    )
    report.results["rho"] = cond.rho
    report.results["tau"] = cond.tau
    report.results["bounds_used"] = [bounds.lower, bounds.upper]
    report.verdicts["perturbation-condition"] = CheckResult(cond.satisfied, cond.rho, cond.tau)


def _cmd_examples(job: JobSpec, policy: TolerancePolicy, report: Report) -> None:
    _require(job, 0, operator=False)
    run = worked.reproduce_examples(tol=job.tol, policy=policy)
    report.results["checks"] = len(run.checks)
    report.results["golden_seed"] = run.seed
    for check in run.checks:
        report.verdicts[check.name] = CheckResult(check.passed, check.residual, check.threshold)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "dual": _cmd_dual,
    "verify": _cmd_verify,
    "dual-family": _cmd_dual_family,
    "multiplier": _cmd_multiplier,
    "right-inverse": lambda job, policy, report: _inverse_command(job, policy, report, "right"),
    "left-inverse": lambda job, policy, report: _inverse_command(job, policy, report, "left"),
    "perturb-check": _cmd_perturb_check,
    "examples": _cmd_examples,
}


def run_job(job: JobSpec) -> Report:
    """Dispatch a job; domain failures become failed verdicts in the report.

    Out-of-range options raise ParseError before any work.
    """
    if job.tol is not None and not (job.tol > 0.0 and np.isfinite(job.tol)):
        raise ParseError(f"--tol must be a positive finite number, got {job.tol!r}")
    if job.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {job.seed}")
    policy = DEFAULT_POLICY.with_tol(job.tol)
    inputs = {}
    for i, path in enumerate(job.frames):
        inputs[f"frame{i}"] = str(path)
    if job.operator:
        inputs["operator"] = str(job.operator)
    if job.symbol:
        inputs["symbol"] = str(job.symbol)
    report = Report(
        command=job.command,
        inputs=inputs,
        tolerances={"identity_tol": policy.identity_tol, "rank_scale": _RANK_SCALE},
        seed=job.seed,
    )
    try:
        _HANDLERS[job.command](job, policy, report)
    except (ParseError, ShapeMismatch, InternalConsistencyError):
        raise
    except KFrameError as exc:
        report.error = {"code": exc.code, "message": str(exc)}
        if exc.residual is not None:
            report.results["error_residual"] = float(exc.residual)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kframe",
        description="Certify frame identities relative to an operator K.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--frame", action="append", default=[], metavar="PATH",
                        help="frame file (repeatable)")
    parser.add_argument("--operator", metavar="PATH", help="operator matrix file")
    parser.add_argument("--symbol", metavar="PATH", help="symbol file")
    parser.add_argument("--tol", type=float, default=None,
                        help="identity tolerance override (default 1e-10)")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for sampled checks (default {DEFAULT_SEED})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    job = JobSpec(
        command=args.command,
        frames=tuple(args.frame),
        operator=args.operator,
        symbol=args.symbol,
        tol=args.tol,
        fmt=args.fmt,
        seed=args.seed,
    )
    try:
        # an overflowed intermediate would make every later verdict meaningless
        with np.errstate(over="raise"):
            report = run_job(job)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ShapeMismatch) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure in {job.command}: {exc}", file=sys.stderr)
        return 3
    print(report.to_json() if job.fmt == "json" else report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
