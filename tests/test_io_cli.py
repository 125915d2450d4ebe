"""File formats, the batch CLI, report determinism, exit codes and the one verdict type."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    crandn,
    graded_instance,
    hand_inclusion_instance,
    minimal_instance,
    weak_direction_instance,
)

from kframekit import frames, io, worked
from kframekit.cli import JobSpec, main, run_job
from kframekit.duality import (
    BoundReport,
    IdentityReport,
    KDualCertificate,
    WitnessReport,
    admissibility_violation,
    canonical_dual_bound_certificate,
    canonical_k_dual,
    dual_family_member,
    minimal_norm_identity,
    noncommutativity_witness,
    reciprocal_dual,
    verify_k_dual,
)
from kframekit.errors import DimensionMismatch, ParseError
from kframekit.frames import (
    BoundsValidation,
    Frame,
    FrameBounds,
    TightnessReport,
    bessel_as_k_frame,
    k_frame_check,
    tightness_check,
    validate_bounds,
)
from kframekit.linalg import CheckResult, OperatorEnv, range_identity_check
from kframekit.multipliers import (
    BiorthogonalFactorization,
    LowerBoundReport,
    MultiplierFactorization,
    SideBound,
    Symbol,
    assemble_multiplier,
    biorthogonal_right_inverse,
    frames_from_multiplier_identity,
    inverse_as_multiplier,
    k_left_inverse,
    k_right_inverse,
    perturbation_condition,
    perturbation_k_dual,
    perturbation_right_inverse,
    range_inclusion_left_inverse,
    range_inclusion_right_inverse,
)
from kframekit.worked import (
    minimal_example,
    projection_example,
    reproduce_examples,
)


@pytest.fixture()
def fixture_files(tmp_path):
    ex2 = projection_example()
    ex4 = minimal_example()
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        io.write_file(p, obj)
        paths[name] = str(p)

    put("f2.json", io.frame_to_obj(ex2.frame))
    put("k2.json", io.matrix_to_obj(ex2.env.k))
    put("f4.json", io.frame_to_obj(ex4.frame))
    put("k4.json", io.matrix_to_obj(ex4.env.k))
    e = np.eye(4)
    put("g4.json", io.frame_to_obj(Frame([e[0], e[0], e[1]])))
    put("bad4.json", io.frame_to_obj(Frame([e[0], 2 * e[0], e[1]])))
    put("ones3.json", io.symbol_to_obj(Symbol.ones(3)))
    paths["dir"] = str(tmp_path)
    return paths


class TestParsing:
    def test_frame_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        f = Frame(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
        p = tmp_path / "frame.json"
        io.write_file(p, io.frame_to_obj(f))
        parsed = io.parse_file(p)
        assert isinstance(parsed, Frame)
        assert parsed.ambient_dim == 2 and parsed.size == 3
        np.testing.assert_array_equal(parsed.vectors, f.vectors)

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        p = tmp_path / "matrix.json"
        io.write_file(p, io.matrix_to_obj(m))
        np.testing.assert_array_equal(io.parse_file(p), m)

    def test_symbol_round_trip(self, tmp_path):
        s = Symbol.semi_normalized([1.0, -2.0, 0.5j])
        p = tmp_path / "symbol.json"
        io.write_file(p, io.symbol_to_obj(s))
        parsed = io.parse_file(p)
        np.testing.assert_array_equal(parsed.values, s.values)
        assert parsed.lower == s.lower and parsed.upper == s.upper

    def test_projection_fixture_shape(self, fixture_files):
        parsed = io.parse_file(fixture_files["f2.json"])
        assert parsed.ambient_dim == 2 and parsed.size == 3

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.json"
        p.write_text(json.dumps({"dim": 2, "vectors": [[[1, 0], [0, 0]], [[1, 0]]]}))
        with pytest.raises(DimensionMismatch):
            io.parse_file(p)

    def test_bare_numbers_rejected(self, tmp_path):
        p = tmp_path / "bare.json"
        p.write_text(json.dumps({"dim": 1, "vectors": [[1.0]]}))
        with pytest.raises(ParseError):
            io.parse_file(p)

    def test_data_length_mismatch(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0]]}))
        with pytest.raises(DimensionMismatch):
            io.parse_file(p)

    def test_malformed_json_context(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{ not json")
        with pytest.raises(ParseError) as err:
            io.parse_file(p)
        assert "line" in str(err.value)

    def test_unknown_document(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"something": 1}))
        with pytest.raises(ParseError):
            io.parse_file(p)


class TestRunJob:
    def test_analyze_projection(self, fixture_files):
        report = run_job(JobSpec(
            "analyze", (fixture_files["f2.json"],), fixture_files["k2.json"]
        ))
        assert report.all_passed
        assert report.results["optimal_lower"] == pytest.approx(4.0 / 3.0, rel=1e-9)
        assert report.results["optimal_upper"] == pytest.approx(2.0, rel=1e-9)

    def test_dual_lists_golden_vectors(self, fixture_files):
        report = run_job(JobSpec(
            "dual", (fixture_files["f4.json"],), fixture_files["k4.json"]
        ))
        assert report.all_passed
        vecs = np.array([[complex(re, im) for re, im in row]
                         for row in report.results["dual_vectors"]])
        np.testing.assert_allclose(vecs, [np.eye(4)[0], np.eye(4)[0], np.eye(4)[1]],
                                   atol=1e-12)

    def test_verify_pass_and_fail(self, fixture_files):
        good = run_job(JobSpec(
            "verify", (fixture_files["f4.json"], fixture_files["g4.json"]),
            fixture_files["k4.json"],
        ))
        assert good.all_passed
        bad = run_job(JobSpec(
            "verify", (fixture_files["f4.json"], fixture_files["bad4.json"]),
            fixture_files["k4.json"],
        ))
        assert not bad.all_passed
        assert bad.verdicts["dual-identity"].residual > 0.5

    def test_dual_family_membership(self, fixture_files):
        report = run_job(JobSpec(
            "dual-family", (fixture_files["f4.json"], fixture_files["g4.json"]),
            fixture_files["k4.json"],
        ))
        assert report.all_passed

    def test_multiplier(self, fixture_files):
        report = run_job(JobSpec(
            "multiplier", (fixture_files["f2.json"], fixture_files["f2.json"]),
            symbol=fixture_files["ones3.json"],
        ))
        assert report.all_passed
        assert report.results["norm"] == pytest.approx(2.0, rel=1e-9)

    def test_right_and_left_inverse(self, fixture_files):
        for command in ("right-inverse", "left-inverse"):
            report = run_job(JobSpec(
                command, (fixture_files["f2.json"], fixture_files["f2.json"]),
                fixture_files["k2.json"], fixture_files["ones3.json"],
            ))
            assert report.all_passed, command

    def test_perturb_check(self, fixture_files):
        report = run_job(JobSpec(
            "perturb-check", (fixture_files["f2.json"], fixture_files["f2.json"]),
            fixture_files["k2.json"],
        ))
        assert report.all_passed
        assert report.results["rho"] == 0.0

    def test_examples_command(self):
        report = run_job(JobSpec("examples"))
        assert report.all_passed
        assert report.results["checks"] >= 25

    def test_examples_with_impossible_tolerance(self):
        report = run_job(JobSpec("examples", tol=1e-30))
        assert not report.all_passed

    @pytest.mark.parametrize("command", ["analyze", "dual", "verify"])
    def test_domain_error_becomes_failed_verdict(self, fixture_files, tmp_path, command):
        zero = tmp_path / "zero.json"
        io.write_file(zero, io.matrix_to_obj(np.zeros((2, 2))))
        frames = (fixture_files["f2.json"],) * (2 if command == "verify" else 1)
        report = run_job(JobSpec(command, frames, str(zero)))
        assert not report.all_passed
        assert report.error["code"] == "zero-operator"

    def test_missing_file_is_parse_error(self):
        with pytest.raises(ParseError):
            run_job(JobSpec("analyze", ("/nonexistent.json",), "/nonexistent2.json"))


class TestDeterminism:
    def test_byte_identical_reports(self, fixture_files):
        job = JobSpec("analyze", (fixture_files["f2.json"],), fixture_files["k2.json"],
                      fmt="json")
        assert run_job(job).to_json() == run_job(job).to_json()

    def test_examples_json_stable(self):
        a = run_job(JobSpec("examples", fmt="json")).to_json()
        b = run_job(JobSpec("examples", fmt="json")).to_json()
        assert a == b
        assert "timestamp" not in a


class TestExitCodes:
    def test_all_pass_is_zero(self, fixture_files, capsys):
        code = main(["analyze", "--frame", fixture_files["f2.json"],
                     "--operator", fixture_files["k2.json"]])
        assert code == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_failed_verdict_is_one(self, fixture_files, capsys):
        code = main(["verify", "--frame", fixture_files["f4.json"],
                     "--frame", fixture_files["bad4.json"],
                     "--operator", fixture_files["k4.json"]])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_domain_error_in_text_is_one(self, fixture_files, tmp_path, capsys):
        zero = tmp_path / "zero.json"
        io.write_file(zero, io.matrix_to_obj(np.zeros((2, 2))))
        code = main(["verify", "--frame", fixture_files["f2.json"], "--frame",
                     fixture_files["f2.json"], "--operator", str(zero), "--format", "text"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert [line for line in out if line.startswith("ERROR")] == [
            "ERROR [zero-operator]: K = 0: every Bessel sequence qualifies vacuously; refusing"]
        assert out[-1] == "overall: FAIL"

    def test_input_error_is_two(self, fixture_files, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code = main(["analyze", "--frame", str(broken),
                     "--operator", fixture_files["k2.json"]])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_usage_error_is_two(self, capsys):
        assert main(["analyze"]) == 2  # missing --operator
        assert main(["no-such-command"]) == 2
        assert main(["examples", "--seed", "7"]) == 2  # nothing is sampled
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 7" in err and "Traceback" not in err

    def test_internal_error_is_three(self, fixture_files, monkeypatch, capsys):
        from kframekit import cli
        from kframekit.errors import InternalConsistencyError

        def boom(job, tol, report, *inputs):
            raise InternalConsistencyError("routes disagree")

        _, *reads = cli._HANDLERS["analyze"]
        monkeypatch.setitem(cli._HANDLERS, "analyze", (boom, *reads))
        code = main(["analyze", "--frame", fixture_files["f2.json"],
                     "--operator", fixture_files["k2.json"]])
        assert code == 3

    def test_eigenvalue_route_disagreement_is_three(self, fixture_files, skewed_core_svd, capsys):
        # lambda's core SVD skewed 1e-7 above its witness ratio, the route that remains
        code = main(["analyze", "--frame", fixture_files["f2.json"],
                     "--operator", fixture_files["k2.json"]])
        assert code == 3
        assert "routes disagree" in capsys.readouterr().err

    # a warning is an error here, so the one stderr line is all numpy says
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, cause", [
        (1e153, "overflow encountered in dot"),  # |K|_F in svd_decompose
        (1e200, "overflow encountered in dot"),  # |T_F|_F in svd_decompose
    ])
    def test_numerical_failure_is_three(self, tmp_path, capsys, scale, cause):
        rng = np.random.default_rng(0)
        syn = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        k = syn @ (rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6)))
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(scale * syn.T)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(scale * k))
        code = main(["analyze", "--frame", str(tmp_path / "f.json"),
                     "--operator", str(tmp_path / "k.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure in analyze: ") and cause in err

    def test_unrepresentable_lower_bound_is_three(self, tmp_path, capsys):
        # {e1, e2} against K = 1e-180 I: lambda = 1e-180, so A = 1e360 is no float
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(np.eye(2))))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(1e-180 * np.eye(2)))
        code = main(["analyze", "--frame", str(tmp_path / "f.json"),
                     "--operator", str(tmp_path / "k.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "optimal lower bound" in err and "Traceback" not in err

    def test_underflowed_lower_bound_is_three(self, tmp_path, capsys):
        # {1e-170 e1, 1e-170 e2} against K = I: A = 1e-340 underflows to 0.0
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(1e-170 * np.eye(2))))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(np.eye(2)))
        code = main(["analyze", "--frame", str(tmp_path / "f.json"),
                     "--operator", str(tmp_path / "k.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure in analyze: optimal lower bound A")

    def test_underflowed_operator_norm_in_tightness_is_three(self, tmp_path, capsys):
        # a random 3 x 5 frame and 3 x 3 K, both scaled by 1e-200: A and lambda are
        # scale-free, but |K|^2 underflows to 0.0 and the tightness fit would divide 0 by 0
        rng = np.random.default_rng(0)
        syn = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        io.write_file(tmp_path / "f.json", io.frame_to_obj(Frame(1e-200 * syn.T)))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(1e-200 * k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["analyze", "--frame", str(tmp_path / "f.json"),
                         "--operator", str(tmp_path / "k.json")])
        assert code == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure in analyze: |K|^2 underflows to 0.0")

    def test_multiplier_tol_scales_the_norm_bound_threshold(self, fixture_files, capsys):
        def threshold(*tol):
            code = main(["multiplier", "--frame", fixture_files["f2.json"],
                         "--frame", fixture_files["f2.json"],
                         "--symbol", fixture_files["ones3.json"], "--format", "json", *tol])
            assert code == 0
            return json.loads(capsys.readouterr().out)["verdicts"]["norm-bound"]["threshold"]

        assert threshold("--tol", "1e-3") == pytest.approx(1e7 * threshold())

    def test_multiplier_over_its_bound_is_three(self, fixture_files, skewed_multiplier_svd,
                                                capsys):
        # S_F meets its bound B_F, so a norm skewed 1e-7 above it is a disagreement
        # of M's SVD with F's: one stderr line, no report
        code = main(["multiplier", "--frame", fixture_files["f2.json"],
                     "--frame", fixture_files["f2.json"],
                     "--symbol", fixture_files["ones3.json"]])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("internal consistency error: multiplier norm ")
        assert "exceeds sqrt(B_Phi B_Psi) sup|m| = " in captured.err
        assert "Traceback" not in captured.err

    def test_examples_exit_zero(self, capsys):
        assert main(["examples"]) == 0

    def test_examples_tight_tolerance_exit_one(self, capsys):
        assert main(["examples", "--tol", "1e-30"]) == 1

    def test_json_output_parses(self, fixture_files, capsys):
        main(["dual", "--frame", fixture_files["f4.json"],
              "--operator", fixture_files["k4.json"], "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        assert body["command"] == "dual"
        assert all("residual" in v and "threshold" in v for v in body["verdicts"].values())

    def test_perturb_check_json_output_parses(self, fixture_files, capsys):
        code = main(["perturb-check", "--frame", fixture_files["f2.json"],
                     "--frame", fixture_files["f2.json"],
                     "--operator", fixture_files["k2.json"], "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        assert code == 0
        assert body["verdicts"]["perturbation-condition"]["passed"] is True

    def test_multiplier_of_a_large_frame_is_zero(self, tmp_path, capsys):
        # entries of size 1e4: the norm meets the bound 1e9 up to rounding
        rng = np.random.default_rng(1)
        frame = Frame(1e4 * (rng.normal(size=(12, 8)) + 1j * rng.normal(size=(12, 8))))
        io.write_file(tmp_path / "f.json", io.frame_to_obj(frame))
        io.write_file(tmp_path / "ones.json", io.symbol_to_obj(Symbol.ones(12)))
        code = main(["multiplier", "--frame", str(tmp_path / "f.json"),
                     "--frame", str(tmp_path / "f.json"),
                     "--symbol", str(tmp_path / "ones.json"), "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        assert code == 0
        assert body["verdicts"]["norm-bound"]["threshold"] == 1e-10 * body["results"]["norm_bound"]


class TestAnalyzeInequalities:
    """``analyze`` copies ``k_frame_check``'s verdicts on the bound inequalities where they
    hold with equality: A |K* w|^2 = |T_F* w|^2 at lambda's unit witness w = U_r Sigma_r^-1 u_1
    and |T_F* u_1|^2 = B at T_F's top left singular vector. An overstated A is injected
    where ``frames`` computes it, by scaling the lambda it reads by 1/sqrt(factor), so the
    witness sees |T_F* w|^2 (factor - 1) against rounding. A power step toward the minimizer
    (the unit columns of U_r Sigma_r^-1 C, C lambda's core) passed 1.001 A on the graded
    family; random vectors lie mostly outside the weak part of R(K) and passed 100 A."""

    @pytest.fixture()
    def analyze(self, tmp_path, capsys, monkeypatch):
        def run(f, env, factor=1.0, tol=None):
            """(exit code, failed verdicts) of ``analyze`` with A times ``factor``."""
            io.write_file(tmp_path / "f.json", io.frame_to_obj(f))
            io.write_file(tmp_path / "k.json", io.matrix_to_obj(env.k))
            majorization = frames._majorization

            def overstated(*args):
                lam, norms = majorization(*args)
                return lam / factor**0.5, norms

            argv = ["analyze", "--frame", str(tmp_path / "f.json"), "--operator",
                    str(tmp_path / "k.json"), "--format", "json"]
            with monkeypatch.context() as patch:
                patch.setattr(frames, "_majorization", overstated)
                code = main(argv + (["--tol", tol] if tol else []))
            out, err = capsys.readouterr()
            assert err == ""
            verdicts = json.loads(out)["verdicts"]
            return code, sorted(name for name, v in verdicts.items() if not v["passed"])
        return run

    @pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-6])
    def test_weak_direction_refuses_a_lower_bound_above_a(self, analyze, c):
        # K = u_6 u_6* has rank 1, so the witness is u_6, the exact minimizer
        f, env = weak_direction_instance(c)
        assert analyze(f, env) == (0, [])
        for factor in (1.01, 2.0, 100.0):
            assert analyze(f, env, factor) == (1, ["lower-attained"]), factor

    def test_graded_family_refuses_twice_a(self, analyze):
        for c in (1e-2, 1e-4, 1e-6, 1e-8):
            for seed in range(20):
                syn, x0, _ = graded_instance(seed, c)
                f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
                assert analyze(f, env) == (0, []), (c, seed)
                assert analyze(f, env, 2.0) == (1, ["lower-attained"]), (c, seed)

    @pytest.mark.parametrize("c", [1e-2, 1e-4])
    def test_graded_family_refuses_a_thousandth_above_a(self, analyze, c):
        # the power step's excess stayed negative up to 1.1 A to 2 A on these seeds; at the
        # witness the excess is |T_F* w|^2 1e-3, far above tol |T_F| |T_F* w| for
        # |T_F* w| >= c |T_F|
        for seed in range(20):
            syn, x0, _ = graded_instance(seed, c)
            f, env = Frame(syn.T), OperatorEnv.from_matrix(syn @ x0)
            assert analyze(f, env, 1 + 1e-3) == (1, ["lower-attained"]), seed

    def test_numpy_scalar_lambda_writes_strict_json(self, tmp_path, capsys, monkeypatch):
        # a numpy.float64 lambda turns the gates on A into numpy comparisons; their verdicts
        # are Python bools, so the JSON report is written (it raised TypeError before)
        f, env = weak_direction_instance(1e-2)
        io.write_file(tmp_path / "f.json", io.frame_to_obj(f))
        io.write_file(tmp_path / "k.json", io.matrix_to_obj(env.k))
        majorization = frames._majorization

        def numpy_lambda(*args):
            lam, norms = majorization(*args)
            return np.float64(lam), norms

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        monkeypatch.setattr(frames, "_majorization", numpy_lambda)
        code = main(["analyze", "--frame", str(tmp_path / "f.json"), "--operator",
                     str(tmp_path / "k.json"), "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        verdicts = json.loads(out, parse_constant=refuse)["verdicts"]
        assert all(v["passed"] is True for v in verdicts.values())

    def test_parseval_frame_at_a_strict_tolerance(self, analyze):
        # S_F = I = K K*: the excess is rounding of the size of its terms, which a
        # threshold of tol B alone refused at 1e-15
        q = np.linalg.qr(crandn(np.random.default_rng(5), 9, 6))[0]
        assert analyze(Frame(q), OperatorEnv.from_matrix(np.eye(6)), tol="1e-15") == (0, [])


BAD_INPUTS = {
    "negative tol": (["--tol", "-1"], None, "--tol"),
    "zero tol": (["--tol", "0"], None, "--tol"),
    "nan tol": (["--tol", "nan"], None, "--tol"),
    "nan in a frame": ([], ("frame", '{"dim": 1, "vectors": [[[NaN, 0]], [[1, 0]]]}'),
                       "vectors[0][0]: non-finite"),
    "inf in a matrix": ([], ("operator", '{"rows": 1, "cols": 1, "data": [[1, -Infinity]]}'),
                        "data[0]: non-finite"),
    "overflowing integer in a matrix": (
        [], ("operator", '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}'),
        "data[0]: non-finite",
    ),
    "inf in a symbol": ([], ("symbol", '{"values": [[Infinity, 0], [1, 0]]}'),
                        "values[0]: non-finite"),
    "nan symbol bound": ([], ("symbol", '{"values": [[1, 0], [1, 0]], "lower": NaN, "upper": 1}'),
                         "'lower': non-finite"),
    "bool symbol bound": ([], ("symbol", '{"values": [[1, 0], [1, 0]], "lower": true, "upper": 1}'),
                          "'lower': expected a number"),
    "file not UTF-8": ([], ("frame", b"\xff\xfe"), "frame.json: not UTF-8"),
    "nesting past the recursion limit": (
        [], ("frame", '{"dim": 1, "vectors": ' + "[" * 100_000),
        "frame.json: JSON nested too deeply",
    ),
    # numpy alone would coerce or reshape each of these
    "bool in a frame pair": ([], ("frame", '{"dim": 1, "vectors": [[[true, 0]], [[1, 0]]]}'),
                             "vectors[0][0]: expected a number, got True"),
    "string in a matrix pair": ([], ("operator", '{"rows": 1, "cols": 1, "data": [["1.5", 0]]}'),
                                "data[0]: expected a number, got '1.5'"),
    "null in a symbol pair": ([], ("symbol", '{"values": [[null, 0], [1, 0]]}'),
                              "values[0]: expected a number, got None"),
    "three-element pair": ([], ("operator", '{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}'),
                           "data[0]: expected a [re, im] pair, got [1, 0, 0]"),
    "pair nested one level too deep": (
        [], ("frame", '{"dim": 1, "vectors": [[[[1, 0]]], [[[1, 0]]]]}'),
        "vectors[0][0]: expected a [re, im] pair, got [[1, 0]]",
    ),
    "pair of pairs": ([], ("operator", '{"rows": 1, "cols": 1, "data": [[[1, 0], [0, 0]]]}'),
                      "data[0]: expected a number, got [1, 0]"),
    "ragged row": ([], ("frame", '{"dim": 1, "vectors": [[[1, 0]], [[1, 0], [0, 0]]]}'),
                   "vectors[1] has length 2, expected dim 1"),
    # the first bad field is named past the first pair, and in document order
    "bad entry deep in a frame": (
        [], ("frame", '{"dim": 2, "vectors": [[[1, 0], [0, 1]], [[1, 0], [0, 0]], '
                      '[[0, 1], [1, null]]]}'),
        "vectors[2][1]: expected a number, got None",
    ),
    "bad entry deep in a matrix": (
        [], ("operator", '{"rows": 2, "cols": 3, "data": [[1, 0], [0, 0], [0, 0], [0, 0], '
                         '[1, 0], [0, NaN]]}'),
        "data[5]: non-finite",
    ),
    "bad entry deep in a symbol": (
        [], ("symbol", '{"values": [[1, 0], [1, 0], [1, 0], [false, 0]]}'),
        "values[3]: expected a number, got False",
    ),
    "overflowing integer in a symbol": (
        [], ("symbol", '{"values": [[1, 0], [0, -1' + "0" * 400 + ']]}'),
        "values[1]: non-finite",
    ),
    "bad entry before a short row": (
        [], ("frame", '{"dim": 2, "vectors": [[[1, 0], [Infinity, 0]], [[1, 0]]]}'),
        "vectors[0][1]: non-finite",
    ),
    # each document shape that parses as JSON but is no frame, matrix or symbol
    "top level not an object": ([], ("frame", "[]"), "frame.json: top level must be a JSON object"),
    "dim 0": ([], ("frame", '{"dim": 0, "vectors": [[[1, 0]]]}'),
              "'dim' must be a positive integer, got 0"),
    "empty vectors": ([], ("frame", '{"dim": 1, "vectors": []}'),
                      "'vectors' must be a nonempty list"),
    "row not a list": ([], ("frame", '{"dim": 1, "vectors": [[[1, 0]], 1]}'),
                       "vectors[1] is not a list"),
    "rows 0": ([], ("operator", '{"rows": 0, "cols": 1, "data": []}'),
               "'rows'/'cols' must be positive integers"),
    "data not a list": ([], ("operator", '{"rows": 1, "cols": 1, "data": 1}'),
                        "'data' must be a list of [re, im] pairs"),
    "empty values": ([], ("symbol", '{"values": []}'), "'values' must be a nonempty list"),
}


class TestInputContract:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exits_two_with_one_line(self, case, tmp_path, capsys):
        # right-inverse reads a frame, an operator and a symbol, so every
        # kind of input file can carry the defect
        options, bad_file, message = BAD_INPUTS[case]
        files = {
            "frame": '{"dim": 1, "vectors": [[[1, 0]], [[1, 0]]]}',
            "operator": '{"rows": 1, "cols": 1, "data": [[1, 0]]}',
            "symbol": '{"values": [[1, 0], [1, 0]]}',
        }
        if bad_file is not None:
            files[bad_file[0]] = bad_file[1]
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["right-inverse", "--frame", str(paths["frame"]),
                     "--frame", str(paths["frame"]), "--operator", str(paths["operator"]),
                     "--symbol", str(paths["symbol"]), *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err
        assert "Traceback" not in captured.err


# frames and operators whose sizes disagree: ShapeMismatch is an input error, exit 2
SHAPE_MISMATCHES = {
    "verify, 3 and 2 vectors": (["verify", "--frame", "f2.json", "--frame", "two2.json",
                                 "--operator", "k2.json"], "index counts differ: 3 vs 2"),
    "verify, C^2 against C^3": (["verify", "--frame", "f2.json", "--frame", "three3.json",
                                 "--operator", "k2.json"], "ambient dimensions differ"),
    "multiplier, C^2 and C^3": (["multiplier", "--frame", "f2.json", "--frame", "three3.json",
                                 "--symbol", "ones3.json"],
                                "frames live in different ambient dimensions"),
    "right-inverse, 3 x 3 K": (["right-inverse", "--frame", "f2.json", "--frame", "f2.json",
                                "--operator", "k3.json"], "row counts differ: 3 vs 2"),
    "perturb-check, 3 and 2 vectors": (
        ["perturb-check", "--frame", "f2.json", "--frame", "two2.json", "--operator", "k2.json"],
        "Phi and Psi must share index count and ambient dimension"),
    "2 x 3 operator": (["analyze", "--frame", "f2.json", "--operator", "k23.json"],
                       "operator must be square, got (2, 3)"),
}


class TestShapeMismatches:
    @pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
    def test_exits_two_with_one_line(self, case, fixture_files, capsys):
        argv, message = SHAPE_MISMATCHES[case]
        extra = {"two2.json": io.frame_to_obj(Frame(np.eye(2))),
                 "three3.json": io.frame_to_obj(Frame(np.eye(3))),
                 "k3.json": io.matrix_to_obj(np.eye(3)),
                 "k23.json": io.matrix_to_obj(np.eye(2, 3))}
        for name, obj in extra.items():
            fixture_files[name] = f"{fixture_files['dir']}/{name}"
            io.write_file(fixture_files[name], obj)
        code = main([fixture_files.get(arg, arg) for arg in argv])
        assert (code, capsys.readouterr()) == (2, ("", f"input error: {message}\n"))


# what each command reads: its --frame count, whether it needs --operator, and
# whether --symbol is required, optional (all ones when absent) or unused
READS = {
    "analyze": (1, True, None),
    "dual": (1, True, None),
    "dual-family": (2, True, None),
    "multiplier": (2, False, "required"),
    "right-inverse": (2, True, "optional"),
    "left-inverse": (2, True, "optional"),
    "perturb-check": (2, True, "optional"),
    "verify": (2, True, None),
    "examples": (0, False, None),
}


# reports with a failed verdict; at these tolerances five golden sections raise
STRICT_EXTRAS = {
    "examples --tol 1e-16": ["examples", "--tol", "1e-16"],
    "examples --tol 1e-320": ["examples", "--tol", "1e-320"],
    "verify, not a dual": ["verify", "--frame", "f4.json", "--frame", "bad4.json",
                           "--operator", "k4.json"],
}


class TestJsonReports:
    @pytest.mark.parametrize("case", [*READS, *STRICT_EXTRAS])
    def test_every_report_is_strict_json(self, fixture_files, capsys, case):
        # JSON has no Infinity or NaN: a golden section that raises reports residual inf,
        # which the JSON report writes as null
        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        if case in READS:
            n_frames, needs_operator, symbol_use = READS[case]
            argv = [case] + ["--frame", "f2.json"] * n_frames + ["--operator", "k2.json"] * \
                needs_operator + ["--symbol", "ones3.json"] * bool(symbol_use)
        else:
            argv = STRICT_EXTRAS[case]
        code = main([fixture_files.get(arg, arg) for arg in argv] + ["--format", "json"])
        out, err = capsys.readouterr()
        body = json.loads(out, parse_constant=refuse)
        assert code in ((0, 1) if case in READS else (1,)) and err == ""
        assert "seed" not in body and "golden_seed" not in body["results"]
        nulls = sorted(name for name, v in body["verdicts"].items() if v["residual"] is None)
        assert len(nulls) == (5 if "--tol" in argv else 0)
        for name in nulls:  # a section that raised: name [code], threshold 0
            assert " [" in name and body["verdicts"][name]["threshold"] == 0.0
            assert body["verdicts"][name]["passed"] is False and body["residuals"][name] is None


class TestCommandInputs:
    @staticmethod
    def run(capsys, command, frames, operator=None, symbol=None):
        argv = [command, "--format", "json"]
        for path in frames:
            argv += ["--frame", path]
        if operator is not None:
            argv += ["--operator", operator]
        if symbol is not None:
            argv += ["--symbol", symbol]
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("command", list(READS))
    def test_reads_its_declared_inputs(self, command, fixture_files, capsys):
        n_frames, needs_operator, symbol_use = READS[command]
        frame, matrix = fixture_files["f2.json"], fixture_files["k2.json"]
        ones = fixture_files["ones3.json"]
        frames = [frame] * n_frames
        operator = matrix if needs_operator else None
        symbol = ones if symbol_use else None

        assert self.run(capsys, command, frames + [frame], operator, symbol) == (
            2, "", f"input error: '{command}' needs exactly {n_frames} --frame input(s), "
                   f"got {n_frames + 1}\n")
        if needs_operator:
            assert self.run(capsys, command, frames, None, symbol) == (
                2, "", f"input error: '{command}' needs --operator\n")
        if symbol_use == "required":
            assert self.run(capsys, command, frames, operator, None) == (
                2, "", f"input error: '{command}' needs --symbol\n")

        # a file of the wrong kind in each slot, frames first, then K, then the symbol
        for i in range(n_frames):
            for wrong in (matrix, ones):
                bad = frames[:i] + [wrong] + frames[i + 1:]
                assert self.run(capsys, command, bad, operator, symbol) == (
                    2, "", f"input error: {wrong}: expected a frame file\n")
        if needs_operator:
            for wrong in (frame, ones):
                assert self.run(capsys, command, frames, wrong, symbol) == (
                    2, "", f"input error: {wrong}: expected a matrix file\n")
        if symbol_use:
            for wrong in (frame, matrix):
                assert self.run(capsys, command, frames, operator, wrong) == (
                    2, "", f"input error: {wrong}: expected a symbol file\n")

        code, out, err = self.run(capsys, command, frames, operator, symbol)
        assert code in (0, 1) and err == ""
        body = json.loads(out)
        if symbol_use == "optional":  # absent, it is all ones on the first frame
            code_without, out_without, _ = self.run(capsys, command, frames, operator, None)
            without = json.loads(out_without)
            assert "symbol" not in without["inputs"]
            body["inputs"].pop("symbol")
            assert (code_without, without) == (code, body)
        else:  # an unused --symbol or --operator is ignored but echoed
            unused = {"symbol": ones} if symbol_use is None else {"operator": matrix}
            given = {"operator": operator, "symbol": symbol, **unused}
            code_extra, out_extra, _ = self.run(capsys, command, frames, **given)
            extra = json.loads(out_extra)
            (key, path), = unused.items()
            assert extra["inputs"].pop(key) == path
            assert (code_extra, extra) == (code, body)


# every finite JSON number: -0.0, subnormals, ints past 2**63 still inside
# the float range, mixed with plain ints and floats
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**1023), 2**1023),
    st.integers(2**63, 2**64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 2**63 + 1, -(2**1000) - 1, 0, 1]),
)
PAIR = st.lists(NUMBERS, min_size=2, max_size=2)


def reference(pairs) -> np.ndarray:
    """The per-entry conversion: complex(float(re), float(im)), one pair at a time."""
    return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=np.complex128)


def emitted(a) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a).reshape(-1)]


class TestBulkConversion:
    @seed(6)
    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
    def test_bit_exact_against_the_per_entry_reference(self, shape, data):
        pairs = data.draw(st.lists(PAIR, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))
        rows = [pairs[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])]
        docs = {
            "frame": {"dim": shape[1], "vectors": rows},
            "matrix": {"rows": shape[0], "cols": shape[1], "data": pairs},
            "symbol": {"values": pairs},
        }
        expected = reference(pairs).tobytes()
        for kind, doc in docs.items():
            parsed = io.parse_obj(json.loads(json.dumps(doc)), kind)
            if kind == "frame":
                values, out = parsed.vectors, io.frame_to_obj(parsed)["vectors"]
                out = [pair for row in out for pair in row]
            elif kind == "matrix":
                values, out = parsed, io.matrix_to_obj(parsed)["data"]
            else:
                values, out = parsed.values, io.symbol_to_obj(parsed)["values"]
            assert values.dtype == np.complex128 and values.tobytes() == expected, kind
            # repr tells -0.0 from 0.0 and a Python float from a numpy scalar
            assert repr(out) == repr(emitted(values)), kind

    def test_valid_documents_skip_the_per_entry_walk(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        frame = Frame(rng.normal(size=(96, 64)) + 1j * rng.normal(size=(96, 64)))
        k = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        symbol = Symbol(rng.normal(size=96) + 1j * rng.normal(size=96))
        for name, obj in (("f", io.frame_to_obj(frame)), ("k", io.matrix_to_obj(k)),
                          ("m", io.symbol_to_obj(symbol))):
            io.write_file(tmp_path / f"{name}.json", obj)

        def walked(pair, where):
            raise AssertionError(f"per-entry walk ran at {where}")

        monkeypatch.setattr(io, "_complex_from", walked)
        np.testing.assert_array_equal(io.parse_file(tmp_path / "f.json").vectors, frame.vectors)
        np.testing.assert_array_equal(io.parse_file(tmp_path / "k.json"), k)
        np.testing.assert_array_equal(io.parse_file(tmp_path / "m.json").values, symbol.values)


class TestGoldenSuite:
    def test_all_pass_by_default(self):
        checks = reproduce_examples()
        assert all(checks.values()) and len(checks) >= 25

    def test_strict_mode_on_corruption(self, monkeypatch):
        ex2 = projection_example()
        bad = Frame([[0.9, 0.1], [-0.7, 0.7], [0.7, 0.7]])
        monkeypatch.setattr(worked, "projection_example",
                            lambda: dataclasses.replace(ex2, frame=bad))
        checks = reproduce_examples()
        assert any(name.startswith("c2.") and not check.ok for name, check in checks.items())

    def test_report_is_pinned(self):
        # (name, ok, threshold) in report order; None marks a threshold read off a
        # library verdict, compared to the expected value at rel 1e-12
        # a reference pair's threshold is tol A (validate_bounds decides a <= A)
        library = {"c2.reference-bounds-valid": 1e-10 * (4.0 / 3.0),
                   "c2.dual-certificate": 1e-10, "c4.dual-parseval-adjoint": 2e-10,
                   "c4.reference-bounds-valid": 1e-10 * 0.5, "c4.bessel-embedding-parseval": 1e-10}
        default = [
            ("c2.reference-bounds-valid", True, None),
            ("c2.optimal-lower", True, 1e-9 * (4.0 / 3.0)),
            ("c2.optimal-upper", True, 1e-9 * 2.0),
            ("c2.majorization-lambda", True, 1e-12),
            ("c2.quadratic-form", True, 1e-10),
            ("c2.canonical-dual-order", True, 1e-12),
            ("c2.canonical-dual-multiset", True, 1e-12),
            ("c2.dual-frame-operator", True, 1e-12),
            ("c2.dual-certificate", True, None),
            ("c2.dual-lower-bound-g", True, 1e-9),
            ("c2.dual-lower-bound-projected", True, 1e-9),
            ("c2.witness-value", True, 1e-12),
            ("c2.witness-discrepancy", True, 0.1),
            ("c2.perturbation-threshold", True, 1e-12),
            ("c2.perturbation-collapse", True, 1e-10),
            ("c2.canonical-coefficients", True, 1e-10),
            ("c2.minimal-norm-pythagoras", True, 1e-10),
            ("c4.canonical-dual-entries", True, 1e-12),
            ("c4.non-biorthogonality", True, 1e-12),
            ("c4.dual-parseval-adjoint", True, None),
            ("c4.reference-bounds-valid", True, None),
            ("c4.optimal-lower", True, 1e-9 * 0.5),
            ("c4.optimal-upper", True, 1e-9),
            ("c4.biorthogonal-self", True, 1e-12),
            ("c4.reciprocal-dual", True, 1e-10),
            ("c4.bessel-embedding-parseval", True, None),
            ("c2h.range-inclusion-right", True, 1e-12),
            ("c2h.range-inclusion-left", True, 1e-12),
        ]
        checks = reproduce_examples()  # name -> verdict, the dict the CLI reports
        assert type(checks) is dict and len(checks) == 28
        assert list(checks) == [name for name, _, _ in default]
        for name, ok, threshold in default:
            check = checks[name]
            assert check.ok is ok, name
            if threshold is None:
                assert check.threshold == pytest.approx(library[name], rel=1e-12), name
            else:
                assert check.threshold == threshold, name
            if name == "c2.witness-discrepancy":
                assert check.residual > check.threshold, name
            else:
                assert check.residual <= check.threshold, name

        # at 1e-16 five sections raise and each reports one failed check, residual inf;
        # c2.bounds raises at its first check, whose validate_bounds runs k_frame_check
        tol = 1e-16
        strict = [
            ("c2.bounds [internal-consistency]", False, 0.0),
            ("c2.dual [internal-consistency]", False, 0.0),
            ("c2.perturbation [internal-consistency]", False, 0.0),
            ("c2.coefficients [internal-consistency]", False, 0.0),
            ("c4.canonical-dual-entries", False, tol),
            ("c4.non-biorthogonality", False, tol),
            ("c4.dual-parseval-adjoint", False, tol),
            ("c4.reference-bounds-valid", True, pytest.approx(tol * 0.5, rel=1e-12)),
            ("c4.optimal-lower", False, tol),
            ("c4.optimal-upper", True, tol),
            ("c4.biorthogonal-self", True, tol),
            ("c4.reciprocal-dual", False, tol),
            ("c4.bessel-embedding-parseval", True, tol),
            ("c2h.range-inclusion [not-k-frame]", False, 0.0),
        ]
        checks = reproduce_examples(tol)
        assert [(name, c.ok, c.threshold) for name, c in checks.items()] == strict
        for name, c in checks.items():
            assert (c.residual <= c.threshold) is c.ok, name
            assert (c.residual == float("inf")) is ("[" in name), name

    def test_tightened_tolerance_fails_float_identities(self):
        assert not all(reproduce_examples(tol=1e-30).values())


# the verdicts each result type holds, by the names it gives them
VERDICTS = {
    FrameBounds: lambda r: [r.inclusion, r.lower_attained, r.upper_attained],
    BoundsValidation: lambda r: [r.lower, r.upper],
    TightnessReport: lambda r: [r.identity, r.parseval],
    KDualCertificate: lambda r: [r.identity],
    BoundReport: lambda r: [r.lower, r.upper],
    WitnessReport: lambda r: [r.recovery],
    IdentityReport: lambda r: [r.pythagoras, r.dual],
    SideBound: lambda r: [r.bound],
    LowerBoundReport: lambda r: [s.bound for s in (r.phi_side, r.psi_side) if s is not None],
    MultiplierFactorization: lambda r: [r.identity, *r.certificates.values()],
    BiorthogonalFactorization: lambda r: [r.forward.identity, r.mirrored.identity],
    dict: lambda r: list(r.values()),  # reproduce_examples: name -> verdict
    CheckResult: lambda r: [r],
}


class TestVerdicts:
    @pytest.fixture(scope="class")
    def results(self, c2_example, c4_example):
        f2, env2 = c2_example.frame, c2_example.env
        f4, env4 = c4_example.frame, c4_example.env
        e, ones3, basis = np.eye(4), Symbol.ones(3), Frame(np.eye(2))
        dual2 = canonical_k_dual(f2, env2)
        proj2 = np.diag([1.0, 0.0])  # P_R(K): a K-left inverse of M_{1,P_K F,Ftilde} = K
        e1 = np.array([1.0, 0.0])
        psi_h, phi_h, env_h = hand_inclusion_instance()
        phi3, psi3, env3 = minimal_instance(np.random.default_rng(17))
        # Phi = {e1, 0.1 e2}, K = diag(1, 0.01): a K-dual 5e-10 off misses R's multiplier form
        phi_r, env_r = Frame(np.diag([1.0, 0.1])), OperatorEnv.from_matrix(np.diag([1.0, 0.01]))
        bounds_r = k_frame_check(phi_r, env_r)
        off = canonical_k_dual(phi_r, env_r).vectors + 5e-10 * np.outer([0, 1], [1, 0])
        inverse_case = frames_from_multiplier_identity(assemble_multiplier(ones3, f2, f2), env2)
        bio = biorthogonal_right_inverse(phi3, psi3, env3)
        return {
            "k_frame_check": k_frame_check(f2, env2),
            "validate_bounds": validate_bounds(f2, env2, 1.0, 2.0),
            "validate_bounds above A": validate_bounds(f2, env2, 1.5, 2.0),
            "tightness_check Parseval": tightness_check(f4, bessel_as_k_frame(f4)),
            "tightness_check not tight": tightness_check(f2, env2),
            "verify_k_dual": verify_k_dual(f4, Frame([e[0], e[0], e[1]]), env4),
            "verify_k_dual not a dual": verify_k_dual(f4, Frame([e[0], 2 * e[0], e[1]]), env4),
            "reciprocal_dual": reciprocal_dual(f4, env4),
            "canonical_dual_bound_certificate": canonical_dual_bound_certificate(
                f2, env2, 1.0, 2.0),
            "noncommutativity_witness": noncommutativity_witness(f2, env2),
            "noncommutativity_witness K = I": noncommutativity_witness(
                f2, OperatorEnv.from_matrix(np.eye(2))),
            "minimal_norm_identity": minimal_norm_identity(
                f2, env2, e1, dual2.analysis @ e1 + 0.7 * np.array([1.0, -1.0, 0.0])),
            "admissibility_violation": admissibility_violation(
                f2, env2, np.zeros((3, 2))),
            "norm_bound_check": assemble_multiplier(ones3, f2, f2).norm_bound_check(),
            "range_identity_check": range_identity_check(env2, env2.k),
            "frames_from_multiplier_identity M = K": frames_from_multiplier_identity(
                assemble_multiplier(Symbol.ones(2), basis, basis),
                OperatorEnv.from_matrix(np.eye(2))),
            "frames_from_multiplier_identity inverse": inverse_case,
            "frames_from_multiplier_identity side": inverse_case.phi_side,
            "inverse_as_multiplier left": inverse_as_multiplier(
                f2, dual2, env2, proj2, "left", dual2),
            "inverse_as_multiplier right": inverse_as_multiplier(
                dual2, f2, env2.adjoint(), proj2, "right", dual2),
            "biorthogonal_right_inverse": bio,
            "biorthogonal_right_inverse forward": bio.forward,
            "perturbation_condition": perturbation_condition(f2, f2, env2, ones3, 1.0, 2.0),
            "perturbation_condition violated": perturbation_condition(
                f2, Frame(3.0 * f2.vectors), env2, ones3, 1.0, 2.0),
            "perturbation_k_dual": perturbation_k_dual(f2, f2, env2, ones3, (1.0, 2.0)),
            "perturbation_right_inverse": perturbation_right_inverse(
                f2, f2, env2, ones3, (1.0, 2.0), dual2),
            "perturbation_right_inverse off its form": perturbation_right_inverse(
                phi_r, phi_r, env_r, Symbol.ones(2), (bounds_r.lower, bounds_r.upper),
                Frame(off)),
            "range_inclusion_right_inverse": range_inclusion_right_inverse(psi_h, phi_h, env_h),
            "range_inclusion_left_inverse": range_inclusion_left_inverse(psi_h, phi_h, env_h),
            "reproduce_examples": reproduce_examples(),
            "reproduce_examples tol 1e-16": reproduce_examples(tol=1e-16),
        }

    def test_every_verdict_is_one_check_result(self, results):
        for label, result in results.items():
            verdicts = VERDICTS[type(result)](result)
            assert verdicts and all(isinstance(v, CheckResult) for v in verdicts), label
            if hasattr(result, "passed"):
                assert result.passed == all(verdicts), label
            if isinstance(result, (CheckResult, dict)):
                continue
            for f in dataclasses.fields(result):  # nothing restates a verdict
                assert f.name not in ("ok", "passed", "residual", "threshold"), (label, f.name)
                assert f.type != "bool", (label, f.name)
                value = getattr(result, f.name)
                if isinstance(value, CheckResult):
                    assert any(value is v for v in verdicts), (label, f.name)
        passed = [r.passed for r in results.values() if hasattr(r, "passed")]
        assert True in passed and False in passed

    def test_cli_copies_the_library_verdicts(self, fixture_files):
        # every verdict of each of the nine commands is the one a public call returns
        def load(name):
            return io.parse_file(fixture_files[name])

        def verdicts(command, frames, operator=None, symbol=None, tol=None):
            paths = tuple(fixture_files[name] for name in frames)
            return run_job(JobSpec(command, paths, operator and fixture_files[operator],
                                   symbol and fixture_files[symbol], tol)).verdicts

        f2, f4, g4, bad4 = (load(name) for name in ("f2.json", "f4.json", "g4.json", "bad4.json"))
        env2, env4 = (OperatorEnv.from_matrix(load(name)) for name in ("k2.json", "k4.json"))
        ones3 = load("ones3.json")
        bounds = k_frame_check(f2, env2)
        assert verdicts("analyze", ("f2.json",), "k2.json") == {
            "range-inclusion": bounds.inclusion, "lower-attained": bounds.lower_attained,
            "upper-attained": bounds.upper_attained}
        bounds4, dual4 = k_frame_check(f4, env4), canonical_k_dual(f4, env4)
        envelope = canonical_dual_bound_certificate(f4, env4, bounds4.lower, bounds4.upper)
        assert verdicts("dual", ("f4.json",), "k4.json") == {
            "dual-identity": verify_k_dual(f4, dual4, env4).identity,
            "dual-bounds-envelope": max(envelope.lower, envelope.upper,
                                        key=lambda side: side.residual)}
        _, admissible, round_trip = dual_family_member(f4, g4, env4)
        assert verdicts("dual-family", ("f4.json", "g4.json"), "k4.json") == {
            "phi-admissible": admissible, "family-round-trip": round_trip}
        mult = assemble_multiplier(ones3, f2, f2)
        right = k_right_inverse(mult, env2).matrix
        assert verdicts("right-inverse", ("f2.json", "f2.json"), "k2.json", "ones3.json") == {
            "right-inverse-identity": range_identity_check(env2, mult.matrix, right, right=True)}
        left = k_left_inverse(mult, env2)
        assert verdicts("left-inverse", ("f2.json", "f2.json"), "k2.json", "ones3.json") == {
            "left-inverse-identity": range_identity_check(env2, left, mult.matrix)}
        for g in (g4, bad4):
            assert verdicts("verify", ("f4.json", "bad4.json" if g is bad4 else "g4.json"),
                            "k4.json") == {"dual-identity": verify_k_dual(f4, g, env4).identity}
        assert verdicts("multiplier", ("f2.json", "f2.json"), symbol="ones3.json") == {
            "norm-bound": assemble_multiplier(ones3, f2, f2).norm_bound_check()}
        condition = perturbation_condition(f2, f2, env2, ones3, bounds.lower, bounds.upper)
        assert verdicts("perturb-check", ("f2.json", "f2.json"), "k2.json", "ones3.json") == {
            "perturbation-condition": condition}
        for tol in (None, 1e-16):
            assert verdicts("examples", (), tol=tol) == reproduce_examples(tol)
