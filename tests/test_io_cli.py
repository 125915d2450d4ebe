"""File formats, the batch CLI, report determinism and exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kframekit import io
from kframekit.cli import JobSpec, main, run_job
from kframekit.errors import DimensionMismatch, GoldenMismatch, ParseError
from kframekit.frames import Frame
from kframekit.multipliers import Symbol
from kframekit.worked import minimal_example, projection_example, reproduce_examples


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
    put("g4.json", io.frame_to_obj(Frame.from_vectors([e[0], e[0], e[1]])))
    put("bad4.json", io.frame_to_obj(Frame.from_vectors([e[0], 2 * e[0], e[1]])))
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

    def test_domain_error_becomes_failed_verdict(self, fixture_files, tmp_path):
        zero = tmp_path / "zero.json"
        io.write_file(zero, io.matrix_to_obj(np.zeros((2, 2))))
        report = run_job(JobSpec("analyze", (fixture_files["f2.json"],), str(zero)))
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

    def test_internal_error_is_three(self, fixture_files, monkeypatch, capsys):
        from kframekit import cli
        from kframekit.errors import InternalConsistencyError

        def boom(job, policy, report):
            raise InternalConsistencyError("routes disagree")

        monkeypatch.setitem(cli._HANDLERS, "analyze", boom)
        code = main(["analyze", "--frame", fixture_files["f2.json"],
                     "--operator", fixture_files["k2.json"]])
        assert code == 3

    def test_eigenvalue_route_disagreement_is_three(self, fixture_files, skewed_qr, capsys):
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


BAD_INPUTS = {
    "negative seed": (["--seed", "-3"], None, "--seed"),
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
        run = reproduce_examples()
        assert run.passed and len(run.checks) >= 25

    def test_strict_mode_on_corruption(self):
        bad = {"c2_vectors": [[0.9, 0.1], [-0.7, 0.7], [0.7, 0.7]]}
        run = reproduce_examples(fixtures=bad)
        assert not run.passed
        with pytest.raises(GoldenMismatch) as err:
            reproduce_examples(fixtures=bad, strict=True)
        assert err.value.failures

    def test_tightened_tolerance_fails_float_identities(self):
        run = reproduce_examples(tol=1e-30)
        assert not run.passed
        assert any(not c.passed for c in run.checks)
