"""Batch front door: parse inputs, run an operation, emit a certificate.

Usage: ``kframe <command> [--frame PATH]... [--operator PATH]
[--symbol PATH] [--tol X] [--format text|json]``.

Reports are deterministic for fixed inputs and options on one numpy/BLAS build and BLAS
thread count (no timestamps); every verdict carries its residual and threshold.
Every verdict is a ``CheckResult`` that a public library call returns, copied as it is;
the CLI computes no number itself, nothing is sampled, and JSON writes inf as null.
Exit codes: 0 all verdicts pass, 1 any verdict failed, 2 input/usage error, 3 internal
consistency error (two computation routes disagreed) or numerical failure: LinAlgError
(LAPACK did not converge), OverflowError or numpy's overflow FloatingPointError, and the
named FloatingPointErrors (A or |K|^2 underflows, B's or M's least kept singular value is
subnormal, M underflows to 0, tau is not finite and positive).
Each command is declared in ``_HANDLERS`` by the inputs it reads; ``run_job``
checks their arity and loads frames, then K, then the symbol before it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import duality, frames, io, multipliers, worked
from .errors import (
    InternalConsistencyError,
    KFrameError,
    ParseError,
    ShapeMismatch,
)
from .frames import Frame
from .linalg import IDENTITY_TOL, RANK_SCALE, OperatorEnv, range_identity_check
from .multipliers import Symbol

__all__ = ["JobSpec", "Report", "run_job", "main", "build_parser"]


@dataclass(frozen=True)
class JobSpec:
    """A parsed invocation: command, input paths, and options."""

    command: str
    frames: tuple[str, ...] = ()
    operator: str | None = None
    symbol: str | None = None
    tol: float | None = None
    fmt: str = "text"


@dataclass
class Report:
    command: str
    inputs: dict
    tolerances: dict
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
        try:
            return json.dumps(self.body(), sort_keys=True, allow_nan=False)
        except ValueError:  # JSON has no Infinity or NaN: a non-finite number is written as null
            body = json.loads(json.dumps(self.body()), parse_constant=lambda _: None)
            return json.dumps(body, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in sorted(self.inputs.items()):
            lines.append(f"input {key}: {value}")
        for key, value in sorted(self.tolerances.items()):
            lines.append(f"tolerance {key}: {value:g}")
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


def _cmd_analyze(job: JobSpec, tol: float, report: Report, frame: Frame, env: OperatorEnv) -> None:
    bounds = frames.k_frame_check(frame, env, tol)
    report.results["optimal_lower"] = bounds.lower
    report.results["optimal_upper"] = bounds.upper
    report.results["bessel_bound"] = bounds.upper
    report.results["minimal"] = frames.minimality_check(frame)
    report.results["operator_rank"] = env.rank
    tight = frames.tightness_check(frame, env, tol)
    report.results["tight"] = tight.identity.ok
    if tight.constant is not None:
        report.results["tight_constant"] = tight.constant
    report.results["parseval"] = tight.passed
    report.verdicts["range-inclusion"] = bounds.inclusion
    report.verdicts["lower-attained"] = bounds.lower_attained
    report.verdicts["upper-attained"] = bounds.upper_attained


def _cmd_verify(job: JobSpec, tol: float, report: Report, frame: Frame, candidate: Frame,
                env: OperatorEnv) -> None:
    cert = duality.verify_k_dual(frame, candidate, env, tol)
    report.verdicts["dual-identity"] = cert.identity
    if cert.lower_bound_report is not None:
        report.results["dual_lower_bound"] = cert.lower_bound_report[0]
        report.results["projected_lower_bound"] = cert.lower_bound_report[1]


def _cmd_dual(job: JobSpec, tol: float, report: Report, frame: Frame, env: OperatorEnv) -> None:
    bounds = frames.k_frame_check(frame, env, tol)
    dual = duality.canonical_k_dual(frame, env, tol)
    _cmd_verify(job, tol, report, frame, dual, env)
    report.results["dual_vectors"] = io.frame_to_obj(dual)["vectors"]
    envelope = duality.canonical_dual_bound_certificate(
        frame, env, bounds.lower, bounds.upper, tol
    )
    report.results["envelope"] = list(envelope.envelope)
    report.results["dual_optimal_bounds"] = list(envelope.observed)
    report.verdicts["dual-bounds-envelope"] = max(envelope.lower, envelope.upper,
                                                  key=lambda side: side.residual)


def _cmd_dual_family(job: JobSpec, tol: float, report: Report, frame: Frame,
                     candidate: Frame, env: OperatorEnv) -> None:
    phi, admissible, round_trip = duality.dual_family_member(frame, candidate, env, tol)
    report.verdicts["phi-admissible"] = admissible
    report.results["phi"] = io.matrix_to_obj(phi)
    report.verdicts["family-round-trip"] = round_trip


def _cmd_multiplier(job: JobSpec, tol: float, report: Report, phi: Frame, psi: Frame,
                    symbol: Symbol) -> None:
    mult = multipliers.assemble_multiplier(symbol, phi, psi)
    report.verdicts["norm-bound"] = mult.norm_bound_check(tol)
    report.results["matrix"] = io.matrix_to_obj(mult.matrix)
    report.results["norm"] = mult.norm()
    report.results["norm_bound"] = mult.norm_bound()


def _cmd_right_inverse(job: JobSpec, tol: float, report: Report, phi: Frame, psi: Frame,
                       env: OperatorEnv, symbol: Symbol) -> None:
    mult = multipliers.assemble_multiplier(symbol, phi, psi)
    inverse = multipliers.k_right_inverse(mult, env, tol)
    report.results["majorization"] = inverse.majorization
    report.results["inverse"] = io.matrix_to_obj(inverse.matrix)
    report.verdicts["right-inverse-identity"] = range_identity_check(  # R puts K on the right
        env, mult.matrix, inverse.matrix, tol=tol, right=True)


def _cmd_left_inverse(job: JobSpec, tol: float, report: Report, phi: Frame, psi: Frame,
                      env: OperatorEnv, symbol: Symbol) -> None:
    mult = multipliers.assemble_multiplier(symbol, phi, psi)
    inverse = multipliers.k_left_inverse(mult, env, tol)
    report.results["inverse"] = io.matrix_to_obj(inverse)
    report.verdicts["left-inverse-identity"] = range_identity_check(env, inverse, mult.matrix,
                                                                    tol=tol)


def _cmd_perturb_check(job: JobSpec, tol: float, report: Report, phi: Frame, psi: Frame,
                       env: OperatorEnv, symbol: Symbol) -> None:
    bounds = frames.k_frame_check(phi, env, tol)
    cond = multipliers.perturbation_condition(
        phi, psi, env, symbol, bounds.lower, bounds.upper, tol
    )
    report.results["rho"] = cond.rho
    report.results["tau"] = cond.tau
    report.results["bounds_used"] = [bounds.lower, bounds.upper]
    report.verdicts["perturbation-condition"] = cond.condition


def _cmd_examples(job: JobSpec, tol: float, report: Report) -> None:
    checks = worked.reproduce_examples(tol=job.tol)
    report.results["checks"] = len(checks)
    report.verdicts.update(checks)


# command -> (handler, --frame count, needs --operator, --symbol), in the usage's order;
# --symbol is "required", "optional" (all ones on the first frame if absent) or None
_HANDLERS = {
    "analyze": (_cmd_analyze, 1, True, None),
    "dual": (_cmd_dual, 1, True, None),
    "dual-family": (_cmd_dual_family, 2, True, None),
    "multiplier": (_cmd_multiplier, 2, False, "required"),
    "right-inverse": (_cmd_right_inverse, 2, True, "optional"),
    "left-inverse": (_cmd_left_inverse, 2, True, "optional"),
    "perturb-check": (_cmd_perturb_check, 2, True, "optional"),
    "verify": (_cmd_verify, 2, True, None),
    "examples": (_cmd_examples, 0, False, None),
}


def _load(path: str, kind: str):
    """The ``kind`` ("frame", "matrix" or "symbol") file at ``path``; a matrix as its env."""
    obj = io.parse_file(path)
    found = {Frame: "frame", Symbol: "symbol"}.get(type(obj), "matrix")
    if found != kind:
        raise ParseError(f"{path}: expected a {kind} file")
    return OperatorEnv.from_matrix(obj) if kind == "matrix" else obj


def _inputs(job: JobSpec, n_frames: int, operator: bool, symbol: str | None) -> list:
    """Check the arity of ``job``, then load its frames (a repeated path once, as one
    ``Frame``), K and symbol, in that order."""
    if len(job.frames) != n_frames:
        raise ParseError(
            f"'{job.command}' needs exactly {n_frames} --frame input(s), got {len(job.frames)}"
        )
    if operator and job.operator is None:
        raise ParseError(f"'{job.command}' needs --operator")
    if symbol == "required" and job.symbol is None:
        raise ParseError(f"'{job.command}' needs --symbol")
    loaded = {path: _load(path, "frame") for path in dict.fromkeys(job.frames)}
    inputs = [loaded[path] for path in job.frames]
    if operator:
        inputs.append(_load(job.operator, "matrix"))
    if symbol == "required" or (symbol and job.symbol):
        inputs.append(_load(job.symbol, "symbol"))
    elif symbol:
        inputs.append(Symbol.ones(inputs[0].size))
    return inputs


def run_job(job: JobSpec) -> Report:
    """Dispatch a job; domain failures become failed verdicts in the report.

    Out-of-range options raise ParseError before any work.
    """
    if job.tol is not None and not (job.tol > 0.0 and np.isfinite(job.tol)):
        raise ParseError(f"--tol must be a positive finite number, got {job.tol!r}")
    tol = IDENTITY_TOL if job.tol is None else job.tol
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
        tolerances={"identity_tol": tol, "rank_scale": RANK_SCALE},
    )
    try:
        handler, *reads = _HANDLERS[job.command]
        handler(job, tol, report, *_inputs(job, *reads))
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
    parser.add_argument("command", choices=tuple(_HANDLERS))
    parser.add_argument("--frame", action="append", default=[], metavar="PATH",
                        help="frame file (repeatable)")
    parser.add_argument("--operator", metavar="PATH", help="operator matrix file")
    parser.add_argument("--symbol", metavar="PATH", help="symbol file")
    parser.add_argument("--tol", type=float, default=None,
                        help="identity tolerance override (default 1e-10)")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
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
    except (LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure in {job.command}: {exc}", file=sys.stderr)
        return 3
    print(report.to_json() if job.fmt == "json" else report.to_text())
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
