"""src/kframekit's design rules, read off its source: one place for each thing, no old route."""

import ast
import re
from pathlib import Path

import kframekit
from kframekit import duality, frames, linalg, multipliers, worked

SRC = Path(__file__).resolve().parents[1] / "src" / "kframekit"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
GATE_ERRORS = {"ConditionViolated", "InadmissiblePerturbation", "InternalConsistencyError",
               "NoLeftInverse", "NoRightInverse", "NotADual", "NotARepresentation",
               "NotAnInverse", "NotKFrame", "RangeNotIncluded"}
COPIES = ("(lower_ok|upper_ok|identity_ok|dual_ok|dual_threshold|satisfied|recovered|lower_slack"
          "|upper_slack|relative_error)")
TOMBSTONES = [  # pattern, the files it is scanned in, why the route went
    (r"\.threshold\(", "*.py", "a gate is residual <= tol * scale, with no absolute floor"),
    (r"proj_range_k|\.projector\(", "*.py", "R(K) is read off K's SVD as U_k"),
    (r"neumann_invertibility_margin|MarginReport|settled_by", "*.py", "B's rank decides"),
    (r"_load_(frame|env|symbol)|_inverse_command|COMMANDS = \(", "cli.py", "see cli._HANDLERS"),
    (r"spectral_norm\((achieved - |mult\.matrix @ inverse|inverse @ mult\.matrix)", "*.py",
     "an identity on R(K) or R(K*) is read on K's rank-k coordinates"),
    (rf"^\s+{COPIES}\s*:|\.{COPIES}\b", "*.py", "a verdict is one CheckResult"),
    (r"min_eig|_AGREEMENT", "*.py", "lambda is certified by plain products on both sides"),
    (r"symbolic|fixtures|observed|expected=", "worked.py", "a golden check is a verdict"),
    (r"perturbation_rho|perturbation_tau", "*.py", "the perturbation condition is its verdict"),
    (r"class (DualPerturbation|GoldenCheck|GoldenRun|ConditionReport)\b", "*.py", "no wrapper"),
    (r"_require_inclusion", "*.py", "a failed gate raises through linalg._require"),
]


def scoped(node, scope: str):
    """Every node below ``node``, with the dotted name of the class or def around it."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        yield from scoped(child, f"{scope}.{child.name}" if named else scope)


NODES = [(at, node) for module, tree in TREES.items() for node, at in scoped(tree, module)]
ALIASES = {a.asname: a.name for _, n in NODES if isinstance(n, ast.ImportFrom)
           for a in n.names if a.asname}


def nodes(kind, module=None):
    """(module.scope, node) for every ``kind`` node of src/kframekit, or of one module."""
    return [(at, node) for at, node in NODES
            if isinstance(node, kind) and module in (None, at.split(".")[0])]


def name(node) -> str:
    """The name a Name, an Attribute or the callee of a Call reads, through import aliases."""
    node = node.func if isinstance(node, ast.Call) else node
    read = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return ALIASES.get(read, read)


def test_lapack_is_reached_only_at_its_sites():
    def is_np_linalg(node) -> bool:
        return isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg"

    # numpy only as np, numpy.linalg only for LinAlgError, and no scipy
    imports = [(at, ast.unparse(n)) for at, n in nodes((ast.Import, ast.ImportFrom))]
    found = [f"{at}: {line}" for at, line in imports if re.match(
        r"import (numpy\b(?! as np$)|scipy)|from (numpy\.linalg import (?!LinAlgError$)|scipy\b)"
        r"|from numpy import .*\blinalg\b", line)]
    called = {id(c.func): c for _, c in nodes(ast.Call)}
    reached = {id(n.value) for _, n in nodes(ast.Attribute)}
    for at, node in nodes(ast.Attribute):
        if is_np_linalg(node) and id(node) not in reached:
            found.append(f"{at}: binds np.linalg")
        if not is_np_linalg(node.value) or node.attr == "LinAlgError":
            continue
        call = called.get(id(node))
        ords = [k.value for k in call.keywords if k.arg == "ord"] + call.args[1:2] if call else []
        frobenius = call and all(ast.unparse(o) in ("None", "'fro'") for o in ords)
        # each operand is factored once, and spectral_norm is the one SVD behind a norm
        if not (node.attr == "svd" and at in ("linalg.svd_decompose", "linalg._majorization")
                or node.attr == "norm" and (frobenius or at == "linalg.spectral_norm")):
            found.append(f"{at}: {ast.unparse(call or node)}")
    assert not found


def test_a_gate_error_is_raised_only_by_require():
    # the classes passed to _require, _within or _douglas, or _douglas' default, are the gate
    # errors; InvalidBounds also refuses a <= 0 or b = inf, which is no gate
    gates = {name(a) for _, n in nodes(ast.Call) if name(n) in ("_require", "_within", "_douglas")
             for a in n.args[1:] + [k.value for k in n.keywords]}
    gates |= {name(d) for _, n in nodes(ast.FunctionDef) if n.name == "_douglas"
              for d in n.args.defaults}
    errors = {n.name for n in TREES["errors"].body if isinstance(n, ast.ClassDef)}
    assert gates & errors == GATE_ERRORS | {"InvalidBounds"}
    assert not [f"{at}: raises {name(r.exc)}" for at, r in nodes(ast.Raise)
                if r.exc and name(r.exc) in GATE_ERRORS and at != "linalg._require"]


def test_only_verdicts_defines_passed():
    # a def, a field or an assignment; a read of .passed is a Load
    assert [at for at, n in nodes((ast.FunctionDef, ast.Name, ast.Attribute))
            if "passed" in (getattr(n, "name", ""), name(n))
            and not isinstance(getattr(n, "ctx", None), ast.Load)] == ["linalg._Verdicts"]


def test_singular_vectors_are_cut_once():
    assert not [f"{at}: {ast.unparse(n)}" for at, n in nodes(ast.Subscript)
                if name(n.value).endswith("_vectors") and isinstance(n.slice, ast.Tuple)
                and any(isinstance(e, ast.Slice) for e in n.slice.elts[1:])]


def test_cli_reads_only_public_library_names():
    # every number and verdict the CLI reports comes from a public library call
    imports = [(n.lineno, a) for _, n in nodes((ast.Import, ast.ImportFrom), "cli")
               for a in n.names if getattr(n, "level", 0)
               or (getattr(n, "module", None) or a.name).split(".")[0] == "kframekit"]
    modules = {a.asname or a.name.split(".")[0] for _, a in imports}
    found = [f"line {ln}: imports {a.name}" for ln, a in imports if re.search(r"(^|\.)_", a.name)]
    found += [f"line {n.lineno}: reads {ast.unparse(n)}" for _, n in nodes(ast.Attribute, "cli")
              if re.match("_(?!_)", n.attr) and name(n.value) in modules]
    found += [f"line {n.lineno}: builds a CheckResult" for _, n in nodes(ast.Call, "cli")
              if name(n) == "CheckResult"]
    assert not found


def test_no_random_numbers():
    # a report depends on its inputs and options alone
    assert not [at for at, n in nodes((ast.Import, ast.ImportFrom, ast.Name, ast.Attribute))
                if {"random", "default_rng"} & set(re.findall(r"\w+", ast.unparse(n)))]


def test_no_absolute_tolerance_floor():
    # every identity is homogeneous, so a gate is residual <= tol * scale: max(1, scale) is not
    assert not [f"{at}: {ast.unparse(n)}" for at, n in nodes(ast.Call)
                if name(n) in ("max", "maximum") and any(
                    type(v := getattr(a, "value", a)) in (int, float) and v >= 1 for a in n.args)]


def test_no_deleted_route_returns():
    assert not [f"{path.name}:{i}: {reason}" for pattern, files, reason in TOMBSTONES
                for path in sorted(SRC.glob(files))
                for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if re.search(pattern, line)]


def test_every_public_definition_is_in_its_modules_all():
    # a module's __all__ is the one statement of what it makes public
    found = []
    for module, tree in TREES.items():
        listed = {c.value for n in tree.body if isinstance(n, ast.Assign)
                  and [ast.unparse(t) for t in n.targets] == ["__all__"]
                  for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
        found += [f"{module}.{n.name}" for n in tree.body if listed
                  and isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and not n.name.startswith("_") and n.name not in listed]
    assert not found


def test_the_package_exports_its_modules_all():
    modules = (linalg, frames, duality, multipliers, worked)
    stated = ["KFrameError", *(name for module in modules for name in module.__all__)]
    assert sorted(kframekit.__all__) == sorted(stated) and len(set(stated)) == len(stated)
    assert not [f"{module.__name__}.{name}" for module in modules for name in module.__all__
                if getattr(kframekit, name, None) is not getattr(module, name)]
