"""The three benchmark workloads: seeded inputs, one op each, output checks.

Inputs are generated with plain numpy from the seed, the way
``tests/conftest.py`` builds them (copied here, not imported, so the
benchmark does not depend on the test suite). Every reference a check
compares against is computed here with plain numpy by an independent
route, before any op runs and outside every timed region. kframekit itself
is only ever reached through the module handle ``kf`` passed to ``run``.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
from dataclasses import dataclass

import numpy as np

COND_FLOOR = 1e-3


def crandn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def positive_singulars(m):
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return np.array([])
    return s[s > s[0] * max(m.shape) * 2.0 ** -40]


def well_conditioned(m, rank=None):
    s = positive_singulars(m)
    if s.size == 0 or (rank is not None and s.size != rank):
        return False
    return float(s[-1] / s[0]) >= COND_FLOOR


def herm(m):
    return m.conj().T


def fro(m):
    return float(np.linalg.norm(m))


def rel_err(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.inf
    return fro(got - want) / max(fro(want), 1e-300)


def range_basis(m, rank):
    u, _, vh = np.linalg.svd(m)
    return u[:, :rank], herm(vh)[:, :rank]


def lower_bound(syn, k):
    """Optimal lower K-frame bound of the columns of ``syn``: 1/lambda_max(K* S_F^+ K)."""
    s_pinv = np.linalg.pinv(syn @ herm(syn), rcond=1e-10, hermitian=True)
    return 1.0 / float(np.linalg.eigvalsh(herm(k) @ s_pinv @ k)[-1])


def canonical_dual_synthesis(syn, k, q):
    """K* (S_F|_R(K))^-1 P_{S_F R(K)} T_F, with q an orthonormal basis of R(K)."""
    return herm(k) @ q @ np.linalg.pinv(syn @ herm(syn) @ q) @ syn


def multiplier_matrix(phi_syn, values, psi_syn):
    return (phi_syn * values) @ herm(psi_syn)


def product_of(factors):
    """Recompute each Multiplier's matrix from its frames and symbol, then multiply."""
    out = None
    for f in factors:
        m = multiplier_matrix(f.phi.vectors.T, f.symbol.values, f.psi.vectors.T)
        out = m if out is None else out @ m
    return out


def admissible_phi(rng, syn, q):
    """Random phi (N x n) with P_R(K) T_F phi = 0, from the null space."""
    projected = q @ herm(q) @ syn
    _, s, vh = np.linalg.svd(projected, full_matrices=True)
    rank = int(np.sum(s > s[0] * max(projected.shape) * 2.0 ** -40))
    null_basis = herm(vh[rank:])
    return null_basis @ crandn(rng, null_basis.shape[1], syn.shape[0])


def perturbed(rng, vectors, q, tau, fraction):
    """Psi = Phi + E with restricted perturbation norm fraction * tau on R(K)."""
    bump = crandn(rng, *vectors.shape)
    base = float(np.linalg.norm(bump.conj() @ q, 2))
    return vectors + (fraction * tau / base) * bump


def perturbation_instance(rng, syn, k, q, rank):
    """Symbol values, optimal bounds, tau and Psi at half the perturbation threshold.

    tau = a A / (b sqrt(B) |K^+|^2) for symbol moduli in [a, b] and the
    optimal K-frame bounds (A, B) of Phi, the columns of ``syn``.
    """
    upper = float(np.linalg.svd(syn, compute_uv=False)[0] ** 2)
    lower = lower_bound(syn, k)
    values = rng.uniform(0.5, 2.0, size=syn.shape[1])
    k_min = np.linalg.svd(k, compute_uv=False)[rank - 1]
    tau = values.min() * lower / (values.max() * np.sqrt(upper) * k_min ** -2)
    return values, lower, upper, tau, perturbed(rng, syn.T, q, tau, 0.5)


def k_frame(rng, n, count, rank):
    """(T_F, X, K = T_F X): a well-conditioned K-frame, K normalized."""
    while True:
        syn = crandn(rng, n, count)
        x = crandn(rng, count, rank) @ crandn(rng, rank, n)
        x /= np.linalg.norm(x, 2)
        k = syn @ x
        if well_conditioned(syn) and well_conditioned(k, rank):
            return syn, x, k


class Failure(Exception):
    """An op ended in a way the workload counts as failed, not as wrong."""


# --------------------------------------------------------------------------
# pipeline-n256


class Pipeline:
    """Five library calls sharing one (F, K) at the top of the supported size."""

    name = "pipeline-n256"
    n, count, rank = 256, 384, 128
    pool = 2
    setup_repeats = 3
    whole_cycles = False
    lapack_bound = True

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.instances = [self._instance(rng) for _ in range(self.pool)]
        self.keys = list(range(self.pool))

    def _instance(self, rng):
        syn, _, k = k_frame(rng, self.n, self.count, self.rank)
        q, _ = range_basis(k, self.rank)
        dual_syn = canonical_dual_synthesis(syn, k, q)
        target = crandn(rng, self.n)
        return {
            "vectors": syn.T.copy(),
            "k": k,
            "target": target,
            "q": q,
            "upper": float(np.linalg.svd(syn, compute_uv=False)[0] ** 2),
            "lower": 1.0 / float(np.linalg.eigvalsh(herm(k) @ np.linalg.solve(syn @ herm(syn), k))[-1]),
            "dual": dual_syn.T,
            "lb_dual": lower_bound(dual_syn, herm(k)),
            "lb_projected": lower_bound(q @ herm(q) @ syn, k),
            "coeffs": herm(dual_syn) @ target,
        }

    def run(self, kf, key):
        inst = self.instances[key]
        f = kf.Frame(inst["vectors"])
        env = kf.OperatorEnv.from_matrix(inst["k"])
        bounds = kf.k_frame_check(f, env)
        dual = kf.canonical_k_dual(f, env)
        cert = kf.verify_k_dual(f, dual, env, with_lower_bounds=True)
        lbs = kf.k_dual_lower_bounds(cert)
        coeffs = kf.canonical_coefficients(f, env, inst["target"])
        return bounds, dual, cert, lbs, coeffs

    def check(self, key, out):
        inst = self.instances[key]
        bounds, dual, cert, lbs, coeffs = out
        k, q = inst["k"], inst["q"]
        residual = fro(k - q @ herm(q) @ inst["vectors"].T @ dual.vectors.conj())
        problems = {
            "upper bound": rel_err(bounds.upper, inst["upper"]) > 1e-9,
            "lower bound": rel_err(bounds.lower, inst["lower"]) > 1e-7,
            "canonical dual": rel_err(dual.vectors, inst["dual"]) > 1e-7,
            "dual identity": not cert.passed or residual > 1e-9 * fro(k),
            "dual lower bound": rel_err(lbs[0], inst["lb_dual"]) > 1e-7,
            "projected lower bound": rel_err(lbs[1], inst["lb_projected"]) > 1e-7,
            "canonical coefficients": rel_err(coeffs, inst["coeffs"]) > 1e-7,
        }
        return [name for name, bad in problems.items() if bad]

    @staticmethod
    def same(a, b):
        return (a[0] == b[0] and np.array_equal(a[1].vectors, b[1].vectors)
                and a[2].residual == b[2].residual and a[3] == b[3]
                and np.array_equal(a[4], b[4]))


# --------------------------------------------------------------------------
# multipliers-n16


class Multipliers:
    """Every public function of ``multipliers`` chained on small instances."""

    name = "multipliers-n16"
    n, count, rank = 16, 24, 8
    minimal_count = 12  # a minimal sequence in C^16 has at most 16 vectors
    pool = 8
    setup_repeats = 9
    whole_cycles = False
    lapack_bound = False

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.instances = [self._instance(rng) for _ in range(self.pool)]
        self.keys = list(range(self.pool))

    def _instance(self, rng):
        n, count, rank = self.n, self.count, self.rank
        syn, x, k = k_frame(rng, n, count, rank)
        q, qa = range_basis(k, rank)
        values, lower, upper, _, psi = perturbation_instance(rng, syn, k, q, rank)
        m = multiplier_matrix(syn, values, psi.T)

        # Phi2 spans R(K*) and Psi2 = {K phi2_i}: both range inclusions hold
        while True:
            phi2 = qa @ herm(qa) @ crandn(rng, n, count)
            if well_conditioned(phi2, rank) and well_conditioned(k @ phi2, rank):
                break

        # a minimal K3*-frame Psi3 and a K3-frame Phi3 with equal index counts
        while True:
            syn3, _, k3 = k_frame(rng, n, self.minimal_count, rank)
            psi3 = np.hstack([herm(k3) @ crandn(rng, n, rank),
                              crandn(rng, n, self.minimal_count - rank)])
            psi3 = psi3 @ crandn(rng, self.minimal_count, self.minimal_count)
            if well_conditioned(psi3, self.minimal_count):
                break

        scale = float(rng.uniform(0.5, 2.0))
        stray = crandn(rng, n, n)
        left = (np.eye(n) + stray @ (np.eye(n) - q @ herm(q))) / scale
        return {
            "phi": syn.T.copy(), "psi": psi, "k": k, "values": values,
            "bounds": (lower, upper),
            "dual_x": x.conj(),  # T_G* = X, so P_R(K) T_F T_G* = K
            "dual_choice": (x + admissible_phi(rng, syn, q)).conj(),
            "psi_scaled": scale * x.conj(),
            "left": left,
            "phi2": phi2.T.copy(), "psi2": (k @ phi2).T.copy(),
            "phi3": syn3.T.copy(), "psi3": psi3.T.copy(), "k3": k3,
            "q": q,
            "m": m,
            "majorization": float(np.linalg.norm(np.linalg.solve(m, k), 2)),
            "phi_lower": lower,
            "psi_lower": lower_bound(psi.T, herm(k)),
        }

    def run(self, kf, key):
        inst = self.instances[key]
        phi, psi = kf.Frame(inst["phi"]), kf.Frame(inst["psi"])
        env = kf.OperatorEnv.from_matrix(inst["k"])
        sym = kf.Symbol.semi_normalized(inst["values"])
        mult = kf.assemble_multiplier(sym, phi, psi)
        right = kf.k_right_inverse(mult, env)
        left = kf.k_left_inverse(mult, env)
        identity = kf.frames_from_multiplier_identity(mult, env)
        pdual = kf.perturbation_k_dual(phi, psi, env, sym, inst["bounds"])
        pright = kf.perturbation_right_inverse(
            phi, psi, env, sym, inst["bounds"], kf.Frame(inst["dual_choice"]))
        inclusion = kf.range_inclusion_inverses(
            kf.Frame(inst["psi2"]), kf.Frame(inst["phi2"]), env)
        bio = kf.biorthogonal_right_inverse(
            kf.Frame(inst["phi3"]), kf.Frame(inst["psi3"]),
            kf.OperatorEnv.from_matrix(inst["k3"]))
        as_mult = kf.inverse_as_multiplier(
            phi, kf.Frame(inst["psi_scaled"]), env, inst["left"], "left",
            kf.Frame(inst["dual_x"]))
        return mult, right, left, identity, pdual, pright, inclusion, bio, as_mult

    def check(self, key, out):
        inst = self.instances[key]
        mult, right, left, identity, pdual, pright, inclusion, bio, as_mult = out
        k, k3, m, q = inst["k"], inst["k3"], inst["m"], inst["q"]
        tol = 1e-9
        pdual_res = fro(k - q @ herm(q) @ inst["psi"].T @ pdual.dual.vectors.conj())
        problems = {
            "multiplier matrix": rel_err(mult.matrix, m) > 1e-12,
            "M R = K": rel_err(m @ right.matrix, k) > tol,
            "majorization": rel_err(right.majorization, inst["majorization"]) > 1e-7,
            "L M = K": rel_err(left @ m, k) > tol,
            "identity bounds": (
                identity.case != "inverse" or not identity.passed
                or rel_err(identity.phi_side.optimal, inst["phi_lower"]) > 1e-7
                or rel_err(identity.psi_side.optimal, inst["psi_lower"]) > 1e-7
            ),
            "perturbation dual": not pdual.passed or pdual_res > tol * fro(k),
            "perturbation right inverse": (
                not pright.passed or rel_err(product_of(pright.factors), k) > tol
            ),
            "range inclusion right": (
                not inclusion[0].passed or rel_err(product_of(inclusion[0].factors), k) > tol
            ),
            "range inclusion left": (
                not inclusion[1].passed
                or rel_err(product_of(inclusion[1].factors) @ herm(k), k @ herm(k)) > tol
            ),
            "biorthogonal forward": (
                not bio.passed or rel_err(product_of(bio.forward.factors), k3) > tol
            ),
            "biorthogonal mirrored": rel_err(product_of(bio.mirrored.factors), herm(k3)) > tol,
            "inverse as multiplier": (
                not as_mult.passed or rel_err(product_of(as_mult.factors), inst["left"] @ k) > tol
            ),
        }
        return [name for name, bad in problems.items() if bad]

    @staticmethod
    def same(a, b):
        return (np.array_equal(a[0].matrix, b[0].matrix)
                and np.array_equal(a[1].matrix, b[1].matrix)
                and np.array_equal(a[2], b[2])
                and a[3] == b[3]
                and np.array_equal(a[4].dual.vectors, b[4].dual.vectors)
                and np.array_equal(a[5].achieved, b[5].achieved)
                and all(np.array_equal(x.achieved, y.achieved) for x, y in zip(a[6], b[6]))
                and np.array_equal(a[7].forward.achieved, b[7].forward.achieved)
                and np.array_equal(a[8].achieved, b[8].achieved))


# --------------------------------------------------------------------------
# cli-n64


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _pair(z):
    return [float(z.real), float(z.imag)]


def _frame_doc(vectors):
    return {"dim": int(vectors.shape[1]), "vectors": [[_pair(z) for z in row] for row in vectors]}


def _matrix_doc(m):
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [_pair(z) for z in m.reshape(-1)]}


def _from_pairs(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _matrix_from(doc):
    return _from_pairs(doc["data"]).reshape(doc["rows"], doc["cols"])


class Cli:
    """Every CLI command in process, round-robin over JSON files written once."""

    name = "cli-n64"
    n, count, rank = 64, 96, 32
    setup_repeats = 9
    whole_cycles = True
    lapack_bound = False
    commands = ("analyze", "dual", "dual-family", "multiplier", "right-inverse",
                "left-inverse", "perturb-check", "verify", "examples")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n, count, rank = self.n, self.count, self.rank
        syn, x, k = k_frame(rng, n, count, rank)
        q, _ = range_basis(k, rank)
        values, lower, upper, tau, psi = perturbation_instance(rng, syn, k, q, rank)
        dual_syn = canonical_dual_synthesis(syn, k, q)
        m = multiplier_matrix(syn, values, psi.T)
        self.ref = {
            "k": k, "q": q, "syn": syn, "x": x, "m": m,
            "lower": lower, "upper": upper, "tau": tau,
            "rho": float(np.linalg.norm((psi - syn.T).conj() @ q, 2)),
            "dual": dual_syn.T,
            "lb_dual": lower_bound(x.conj().T, herm(k)),
            "lb_projected": lower_bound(q @ herm(q) @ syn, k),
            "norm": float(np.linalg.norm(m, 2)),
        }
        docs = {
            "frame": _frame_doc(syn.T),
            "dual": _frame_doc(x.conj()),
            "psi": _frame_doc(psi),
            "k": _matrix_doc(k),
            "symbol": {"values": [_pair(complex(v)) for v in values],
                       "lower": float(values.min()), "upper": float(values.max())},
        }
        paths = {}
        for name, doc in docs.items():
            paths[name] = os.path.join(workdir, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        f, g, p, op, s = (paths[x] for x in ("frame", "dual", "psi", "k", "symbol"))
        self.argv = {
            "analyze": ["analyze", "--frame", f, "--operator", op],
            "dual": ["dual", "--frame", f, "--operator", op],
            "dual-family": ["dual-family", "--frame", f, "--frame", g, "--operator", op],
            "multiplier": ["multiplier", "--frame", f, "--frame", p, "--symbol", s],
            "right-inverse": ["right-inverse", "--frame", f, "--frame", p,
                              "--operator", op, "--symbol", s],
            "left-inverse": ["left-inverse", "--frame", f, "--frame", p,
                             "--operator", op, "--symbol", s],
            "perturb-check": ["perturb-check", "--frame", f, "--frame", p,
                              "--operator", op, "--symbol", s],
            "verify": ["verify", "--frame", f, "--frame", g, "--operator", op],
            "examples": ["examples"],
        }
        self.keys = list(self.commands)
        self._verified: dict[str, CliOutput] = {}

    def run(self, kf, key):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = kf.cli.main(self.argv[key] + ["--format", "json"])
        if code not in (0, 1):
            raise Failure(f"exit code {code}: {err.getvalue().strip()}")
        return CliOutput(code, out.getvalue(), err.getvalue())

    def check(self, key, out):
        if self._verified.get(key) == out:
            return []
        problems = self._check(key, out)
        if not problems:
            self._verified[key] = out
        return problems

    def _check(self, key, out):
        if out.code != 0:
            return [f"exit code {out.code}"]
        report = json.loads(out.stdout)
        if not all(v["passed"] for v in report["verdicts"].values()) or "error" in report:
            return ["a verdict failed"]
        r = report["results"]
        ref = self.ref
        k, q = ref["k"], ref["q"]
        tol = 1e-9
        if key == "analyze":
            bad = rel_err(r["optimal_lower"], ref["lower"]) > 1e-7 or \
                rel_err(r["optimal_upper"], ref["upper"]) > 1e-9
        elif key == "dual":
            bad = rel_err(np.array([_from_pairs(v) for v in r["dual_vectors"]]), ref["dual"]) > 1e-7
        elif key == "dual-family":
            phi = _matrix_from(r["phi"])
            bad = (fro(q @ herm(q) @ ref["syn"] @ phi) > tol * fro(k)
                   or rel_err(ref["x"] - phi, ref["dual"].conj()) > 1e-7)
        elif key == "multiplier":
            bad = rel_err(_matrix_from(r["matrix"]), ref["m"]) > 1e-12 or \
                rel_err(r["norm"], ref["norm"]) > 1e-9
        elif key == "right-inverse":
            bad = rel_err(ref["m"] @ _matrix_from(r["inverse"]), k) > tol
        elif key == "left-inverse":
            bad = rel_err(_matrix_from(r["inverse"]) @ ref["m"], k) > tol
        elif key == "perturb-check":
            bad = rel_err(r["rho"], ref["rho"]) > 1e-7 or rel_err(r["tau"], ref["tau"]) > 1e-7
        elif key == "verify":
            bad = rel_err(r["dual_lower_bound"], ref["lb_dual"]) > 1e-7 or \
                rel_err(r["projected_lower_bound"], ref["lb_projected"]) > 1e-7
        else:  # examples: the golden suite's own verdicts, all passed above
            bad = r["checks"] < 1
        return ["output differs from the reference"] if bad else []

    @staticmethod
    def same(a, b):
        return a == b


WORKLOADS = {w.name: w for w in (Pipeline, Cli, Multipliers)}
