"""README.md states the contract: its Verdicts and CLI tables and the list of functions that
return one CheckResult must agree with the code."""

import dataclasses
import inspect
import re
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from conftest import hand_inclusion_instance, minimal_instance

import kframekit
from kframekit import cli, duality, frames, io, linalg, multipliers
from kframekit.linalg import CheckResult
from kframekit.worked import minimal_example, projection_example, reproduce_examples

README = Path(__file__).resolve().parent.parent / "README.md"
MAX_LINES = 300


def table(heading: str) -> list[dict[str, str]]:
    """The rows of the first README table whose header row starts with ``heading``, as
    column name -> cell (escaped pipes kept as plain ``|``)."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {heading} |"))

    def cells(line):
        return [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]

    header = cells(lines[start])
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(dict(zip(header, cells(line))))
    return rows


def names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def kinds(cls, field: str) -> tuple:
    """The types a field of the dataclass ``cls`` may hold (each member of a union)."""
    hint = typing.get_type_hints(cls)[field]
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    return typing.get_args(hint) if union else (hint,)


def verdict_fields(cls, prefix: str = "") -> list[str]:
    """The ``CheckResult`` fields of the dataclass ``cls``, through nested result types
    (``phi_side.bound``); a ``dict`` of verdicts (``certificates``) is not a field."""
    found = []
    for f in dataclasses.fields(cls):
        for kind in kinds(cls, f.name):
            if kind is CheckResult:
                found.append(prefix + f.name)
            elif dataclasses.is_dataclass(kind):
                found += verdict_fields(kind, f"{prefix}{f.name}.")
    return found


def check_result_callables() -> set[str]:
    """The public functions and methods (``Class.method``) of the library layers annotated
    ``-> CheckResult``."""
    found = set()
    for module in (frames, duality, multipliers, linalg):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
            for member, function in members:
                if (inspect.isfunction(function) and not (member or "").startswith("_")
                        and inspect.signature(function).return_annotation == "CheckResult"):
                    found.add(f"{name}.{member}" if member else name)
    return found


def result_types() -> set[type]:
    """Every library dataclass that holds a verdict and that a public function returns."""
    modules = (frames, duality, multipliers)
    returned = " ".join(str(inspect.signature(obj).return_annotation)
                        for module in modules for name, obj in vars(module).items()
                        if inspect.isfunction(obj) and not name.startswith("_"))
    return {obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__ and verdict_fields(obj)
            and re.search(rf"\b{obj.__name__}\b", returned)}


@pytest.fixture(scope="module")
def calls():
    """One call of each function in the Verdicts table, by name."""
    c2, c4 = projection_example(), minimal_example()
    f2, env2, f4, env4 = c2.frame, c2.env, c4.frame, c4.env
    ones3, e = multipliers.Symbol.ones(3), np.eye(4)
    dual2 = duality.canonical_k_dual(f2, env2)
    proj2 = np.diag([1.0, 0.0])  # P_R(K): a K-left inverse of M_{1,P_K F,Ftilde} = K
    e1 = np.array([1.0, 0.0])
    psi_h, phi_h, env_h = hand_inclusion_instance()
    phi3, psi3, env3 = minimal_instance(np.random.default_rng(17))
    return {
        "k_frame_check": lambda: frames.k_frame_check(f2, env2),
        "validate_bounds": lambda: frames.validate_bounds(f2, env2, 1.0, 2.0),
        "tightness_check": lambda: frames.tightness_check(f2, env2),
        "verify_k_dual": lambda: duality.verify_k_dual(f4, kframekit.Frame([e[0], e[0], e[1]]),
                                                       env4),
        "reciprocal_dual": lambda: duality.reciprocal_dual(f4, env4),
        "perturbation_k_dual": lambda: multipliers.perturbation_k_dual(
            f2, f2, env2, ones3, (1.0, 2.0)),
        "canonical_dual_bound_certificate": lambda: duality.canonical_dual_bound_certificate(
            f2, env2, 1.0, 2.0),
        "noncommutativity_witness": lambda: duality.noncommutativity_witness(f2, env2),
        "minimal_norm_identity": lambda: duality.minimal_norm_identity(
            f2, env2, e1, dual2.analysis @ e1),
        "frames_from_multiplier_identity": lambda: multipliers.frames_from_multiplier_identity(
            multipliers.assemble_multiplier(ones3, f2, f2), env2),
        "inverse_as_multiplier": lambda: multipliers.inverse_as_multiplier(
            f2, dual2, env2, proj2, "left", dual2),
        "perturbation_right_inverse": lambda: multipliers.perturbation_right_inverse(
            f2, f2, env2, ones3, (1.0, 2.0), dual2),
        "range_inclusion_right_inverse": lambda: multipliers.range_inclusion_right_inverse(
            psi_h, phi_h, env_h),
        "range_inclusion_left_inverse": lambda: multipliers.range_inclusion_left_inverse(
            psi_h, phi_h, env_h),
        "range_inclusion_inverses": lambda: multipliers.range_inclusion_inverses(
            psi_h, phi_h, env_h),
        "biorthogonal_right_inverse": lambda: multipliers.biorthogonal_right_inverse(
            phi3, psi3, env3),
    }


def test_readme_stays_within_its_length():
    assert len(README.read_text(encoding="utf-8").splitlines()) <= MAX_LINES


def test_every_public_name_is_stated():
    text = README.read_text(encoding="utf-8")
    assert [name for name in kframekit.__all__ if f"`{name}`" not in text] == []


def test_verdicts_table_matches_the_result_types(calls):
    rows = table("result type")
    types_named = {row["result type"].strip("`"): row for row in rows}
    assert len(types_named) == len(rows)
    assert {cls.__name__ for cls in result_types()} == set(types_named)
    by_name = {cls.__name__: cls for cls in result_types()}
    for name, row in types_named.items():
        cls = by_name[name]
        expected = set(verdict_fields(cls))
        for function in names(row["functions"]):
            result = calls[function]()
            results = result if isinstance(result, tuple) else (result,)
            for item in results:
                assert type(item) is cls, (function, type(item).__name__, name)
                expected |= set(getattr(item, "certificates", {}))
        listed = [n for n in names(row["verdicts"]) if n != "certificates"]
        assert sorted(listed) == sorted(expected), name


def test_one_check_result_sentence_names_every_such_function():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"\n\n((?:(?!\n\n).)*?) each return one `CheckResult`", text, re.S)
    layers = {"frames", "duality", "multipliers", "linalg"}
    stated = {name.split(".", 1)[1] if name.split(".")[0] in layers else name
              for name in names(sentence.group(1))}
    assert stated == check_result_callables()


def test_cli_table_matches_the_handlers(tmp_path):
    rows = table("command")
    assert [row["command"].strip("`") for row in rows] == list(cli._HANDLERS)
    ex, e = minimal_example(), np.eye(4)
    paths = [tmp_path / "f.json", tmp_path / "g.json"]
    io.write_file(paths[0], io.frame_to_obj(ex.frame))
    io.write_file(paths[1], io.frame_to_obj(kframekit.Frame([e[0], e[0], e[1]])))
    io.write_file(tmp_path / "k.json", io.matrix_to_obj(ex.env.k))
    io.write_file(tmp_path / "m.json", io.symbol_to_obj(multipliers.Symbol.ones(3)))
    for row in rows:
        command = row["command"].strip("`")
        _, n_frames, operator, symbol = cli._HANDLERS[command]
        assert int(row["`--frame`"]) == n_frames, command
        assert row["`--operator`"] == ("yes" if operator else "no"), command
        assert row["`--symbol`"] == (symbol or "no"), command
        report = cli.run_job(cli.JobSpec(
            command, tuple(str(p) for p in paths[:n_frames]),
            str(tmp_path / "k.json") if operator else None,
            str(tmp_path / "m.json") if symbol == "required" else None))
        assert report.error is None, command
        # the golden suite's verdicts are named for its identities, not in the table
        listed = names(row["verdicts"]) or list(reproduce_examples())
        assert list(report.verdicts) == listed, command
