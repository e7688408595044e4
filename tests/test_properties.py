"""Properties checked on generated inputs with ``hypothesis``.

Examples are derandomized, so the suite draws the same inputs on every
run, and there is no example database.
"""

import dataclasses
import io
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from handeye import cli
from handeye import quaternion as quat
from handeye import simulate as sim
from handeye import solvers
from handeye.datafiles import (
    load_dataset,
    load_solution,
    save_dataset,
    save_solution,
)
from handeye.errors import CalibrationError
from handeye.geometry import (
    ConstraintSet,
    classical_constraints,
    orthonormalize,
    perspective_constraints,
)
from handeye.simulate import (
    Distribution,
    Formulation,
    NoiseModel,
    NoiseTargets,
    synthetic_dataset,
)
from handeye.solvers import HandEyeSolution, Method, report_residuals, solve, solve_batch

# One solver per method.  Each property's body calls the methods through
# this table, and stays textually unchanged: with ``derandomize=True`` a
# test's examples are seeded from a digest of its body.
SOLVERS = {method: partial(solve, method) for method in Method}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

formulations = st.sampled_from(list(Formulation))
seeds = st.integers(0, 2**32 - 1)
# 10**-6 to 10**6, spread evenly in magnitude
scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
levels = st.floats(0.0, 0.1)


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@PROPERTY
@given(formulations, st.integers(2, 8), seeds, scales)
@example(Formulation.PERSPECTIVE, 3, 104, 10.0**0.125).xfail(
    raises=AssertionError,
    reason="the nonlinear stopping point moves by 2.5e-9 in q, above the 2e-10 "
    "bound: the LM stops on a relative cost decrease of 1e-14, which is rounding "
    "noise in the flat valley",
)
def test_scaling_translations_scales_t_and_keeps_q(formulation, n, seed, scale):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    cs = synthetic_dataset(n, seed, formulation, noise).constraints()
    scaled = dataclasses.replace(
        cs,
        camera_translation=scale * cs.camera_translation,
        hand_translation=scale * cs.hand_translation,
    )
    for method in Method:
        before, after = SOLVERS[method](cs), SOLVERS[method](scaled)
        if method is Method.NONLINEAR:
            # Its objective divides translations by their RMS magnitude, so
            # only where LM stops moves, by about 1e-10.
            assert np.max(np.abs(after.rotation - before.rotation)) <= 2e-10
            assert _relative(after.translation, scale * before.translation) <= 1.5e-9
        else:
            # The rotation comes from the axes alone.
            assert np.array_equal(after.rotation, before.rotation)
            assert _relative(after.translation, scale * before.translation) <= 4e-15


@PROPERTY
@given(formulations, st.integers(2, 9), seeds)
def test_noise_free_dataset_round_trips_and_recovers_its_truth(formulation, n, seed):
    dataset = synthetic_dataset(n, seed, formulation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.yaml"
        save_dataset(dataset, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_dataset(path)
    assert loaded.formulation is formulation
    assert loaded.metadata == dataset.metadata
    classical = formulation is Formulation.CLASSICAL
    for key, rigid in (("hand_poses", True), ("camera_poses", classical)):
        saved, read = getattr(dataset, key).copy(), getattr(loaded, key).copy()
        assert read.shape == saved.shape == (n + 1, 4 if rigid else 3, 4)
        if rigid:
            # rotation blocks are orthonormalized again on load
            assert np.array_equal(read[:, :3, :3], orthonormalize(saved[:, :3, :3]))
            read[:, :3, :3] = saved[:, :3, :3] = 0.0
        # nothing else moves
        assert np.array_equal(read, saved)

    truth = loaded.metadata["ground_truth"]
    rotation, translation = np.array(truth["rotation_matrix"]), np.array(truth["translation_mm"])
    constraints = loaded.constraints()
    for method in Method:
        solution = SOLVERS[method](constraints)
        # criterion 02's bounds
        assert np.linalg.norm(solution.rotation_matrix - rotation) <= 1e-8
        assert np.linalg.norm(solution.translation - translation) <= 1e-7 * np.linalg.norm(
            translation
        )


@PROPERTY
@given(
    formulations, st.sampled_from(list(Distribution)), st.integers(2, 9), seeds,
    st.integers(1, 40), levels, levels,
)
def test_batch_rows_equal_single_solves_bit_for_bit(
    formulation, distribution, n, seed, trials, rot_level, trans_level
):
    scenario = (
        sim.default_scenario(n, seed)
        if formulation is Formulation.CLASSICAL
        else sim.perspective_scenario(n, seed)
    )
    rngs = [sim._generator(seed, j) for j in range(trials)]
    batch = sim._trial_constraints(scenario, distribution, rot_level, trans_level, rngs)
    results = solve_batch(batch)
    for rows in results.values():
        assert all(err is None or isinstance(err, CalibrationError) for err in rows.errors)
    for j in range(trials):
        problem = ConstraintSet(*(a[j] for a in batch.arrays))
        for method, rows in results.items():
            try:
                expected = SOLVERS[method](problem)
            except CalibrationError as err:
                assert type(rows.errors[j]) is type(err)
                assert str(rows.errors[j]) == str(err)
                continue
            got = rows.solution(j)
            assert np.array_equal(got.rotation, expected.rotation)
            assert np.array_equal(got.translation, expected.translation)
            assert got.rotation_residual == expected.rotation_residual
            assert got.translation_residual == expected.translation_residual
            assert (got.iterations, got.converged) == (expected.iterations, expected.converged)


@PROPERTY
@given(
    st.integers(2, 8), seeds,
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.booleans()), min_size=9, max_size=9),
)
def test_scaling_perspective_matrices_keeps_the_solution(n, seed, factors):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    dataset = synthetic_dataset(n, seed, Formulation.PERSPECTIVE, noise)
    # lambda in +-[1e-3, 1e3], one per matrix
    lam = np.array([(-1.0 if negative else 1.0) * 10.0**e for e, negative in factors[: n + 1]])
    matrices = dataset.camera_poses
    scaled = perspective_constraints(lam[:, None, None] * matrices, dataset.hand_poses)
    cs = perspective_constraints(matrices, dataset.hand_poses)
    for method in Method:
        before, after = SOLVERS[method](cs), SOLVERS[method](scaled)
        # The normalized matrices differ only by rounding.  The nonlinear
        # solver's stopping point moves with that by up to about 1e-9.
        tol = 1e-8 if method is Method.NONLINEAR else 1e-12
        assert np.max(np.abs(after.rotation - before.rotation)) <= tol
        assert _relative(after.translation, before.translation) <= max(tol, 1e-9)


# What goes into one entry of a constraint builder's input: a non-finite or
# huge value anywhere, or a pose's bottom row moved off (0, 0, 0, 1).
bad_entries = st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "bottom-row"])


@PROPERTY
@given(formulations, st.integers(2, 4), seeds, bad_entries, st.data())
def test_a_bad_entry_given_to_a_constraint_builder_fails_cleanly(formulation, n, seed, kind, data):
    dataset = synthetic_dataset(n, seed, formulation)
    camera, hand = dataset.camera_poses.copy(), dataset.hand_poses.copy()
    classical = formulation is Formulation.CLASSICAL
    # perspective matrices have no bottom row
    stacks = [camera, hand] if classical or kind != "bottom-row" else [hand]
    stack = data.draw(st.sampled_from(stacks))
    i, c = data.draw(st.integers(0, n)), data.draw(st.integers(0, 3))
    if kind == "bottom-row":
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        stack[i, 3, c] += sign * 10.0 ** data.draw(st.floats(-8.0, 1.0))
    else:
        stack[i, data.draw(st.integers(0, len(stack[i]) - 1)), c] = float(kind)
    build = classical_constraints if classical else perspective_constraints
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build(camera, hand)
        except (ValueError, CalibrationError) as err:
            assert not isinstance(err, np.linalg.LinAlgError)
        else:
            # only a huge finite entry may still give constraints
            assert kind in ("1e300", "-1e300")


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Some components are exactly zero, where a sign flip could show as -0.0.
unit_quaternions = (
    st.lists(st.just(0.0) | st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .filter(lambda c: np.linalg.norm(c) > 0.1)
    .map(lambda c: np.array(c) / np.linalg.norm(c))
)


@PROPERTY
@given(
    unit_quaternions,
    st.lists(st.floats(-1000.0, 1000.0), min_size=3, max_size=3),
    st.sampled_from(list(Method)),
)
def test_q_and_minus_q_give_the_same_bits(q, v, method):
    for f in (quat.to_rotation_matrix, quat.canonicalize):
        assert _same_bits(f(q), f(-q))
    for a, b in zip(quat.axis_angle(q), quat.axis_angle(-q)):
        assert _same_bits(a, b)
    # Equal, but a zero entry may come out as 0.0 from q and -0.0 from -q.
    assert np.array_equal(quat.rotate_vector(q, v), quat.rotate_vector(-q, v))

    constraints = synthetic_dataset(3, 0, Formulation.CLASSICAL).constraints()
    t = np.array(v)
    plus, minus = (HandEyeSolution(p, t, 0.5, 0.25, method, 3, False) for p in (q, -q))
    assert report_residuals(constraints, plus) == report_residuals(constraints, minus)
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for solution in (plus, minus):
            path = Path(tmp) / "sol.yaml"
            save_solution(solution, path)
            written.append(path.read_bytes())
    assert written[0] == written[1]


@PROPERTY
@given(formulations, st.integers(2, 9), seeds, levels)
def test_nonlinear_rows_from_q_and_minus_q_are_the_same(formulation, n, seed, level):
    noise = NoiseModel(Distribution.GAUSSIAN, level, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    cs = solvers._one(synthetic_dataset(n, seed, formulation, noise).constraints())
    start = solvers._closed_form(cs, solvers._translation_svd(cs))
    plus = solvers._nonlinear(cs, start)
    minus = solvers._nonlinear(cs, start._replace(rotation=-start.rotation))
    for field in (
        "rotation", "translation", "rotation_residual", "translation_residual",
        "iterations", "converged",
    ):
        assert _same_bits(getattr(plus, field), getattr(minus, field))
    assert [repr(e) for e in plus.errors] == [repr(e) for e in minus.errors]


@PROPERTY
@given(formulations, st.integers(2, 8), seeds, st.data())
def test_permuting_the_motions_keeps_the_estimate(formulation, n, seed, data):
    noise = NoiseModel(Distribution.GAUSSIAN, 0.02, NoiseTargets.ROTATION_AND_TRANSLATION, seed)
    cs = synthetic_dataset(n, seed, formulation, noise).constraints()
    order = list(data.draw(st.permutations(range(n))))
    permuted = ConstraintSet(*(a[order] for a in cs.arrays))
    for method in Method:
        before, after = SOLVERS[method](cs), SOLVERS[method](permuted)
        # Worst over 300 examples: 5.8e-14 for Tsai-Lenz and the closed
        # form (sums in another order), and 7.5e-10 in q and 2.1e-9 in t
        # for the nonlinear solver, whose stopping point moves with that.
        tol = 1e-8 if method is Method.NONLINEAR else 1e-12
        assert np.max(np.abs(after.rotation - before.rotation)) <= tol
        assert _relative(after.translation, before.translation) <= tol


def _homogeneous(rotation, translation):
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = rotation, translation
    return m


def _estimate(solution):
    return _homogeneous(solution.rotation_matrix, solution.translation)


@st.composite
def rigid_frames(draw):
    """A 4x4 rigid transform: any rotation, up to 1000 mm along each axis."""
    q = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    t = draw(st.lists(st.floats(-1000.0, 1000.0), min_size=3, max_size=3))
    norm = np.linalg.norm(q)
    rotation = quat.to_rotation_matrix(np.array(q) / norm) if norm > 0.1 else np.eye(3)
    return _homogeneous(rotation, t)


@PROPERTY
@given(formulations, st.integers(2, 8), seeds, rigid_frames())
def test_changing_a_frame_moves_the_estimate_as_the_formulation_says(
    formulation, n, seed, g
):
    dataset = synthetic_dataset(n, seed, formulation)
    classical = formulation is Formulation.CLASSICAL
    new_base = dataclasses.replace(dataset, hand_poses=g @ dataset.hand_poses)
    new_target = dataclasses.replace(dataset, camera_poses=dataset.camera_poses @ np.linalg.inv(g))
    for method in Method:
        estimate, base_moved, target_moved = (
            _estimate(SOLVERS[method](d.constraints())) for d in (dataset, new_base, new_target)
        )
        # Noise-free, the worst 4x4 entry error over 300 examples is 1.4e-11
        # (rotation G with a translation of up to 1000 mm per axis).
        # Another robot base frame leaves X and Y alone.
        assert np.max(np.abs(base_moved - estimate)) <= 1e-10
        # Another calibration frame leaves X alone and moves Y to G Y.
        expected = estimate if classical else g @ estimate
        assert np.max(np.abs(target_moved - expected)) <= 1e-10


def _valid_documents():
    """(YAML text, loader) of a valid dataset of each formulation and of a
    valid solution document."""
    documents = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.yaml"
        for formulation in Formulation:
            dataset = synthetic_dataset(3, 0, formulation)
            save_dataset(dataset, path)
            documents.append((path.read_text(encoding="utf-8"), load_dataset))
        save_solution(SOLVERS[Method.NONLINEAR](dataset.constraints()), path)
        documents.append((path.read_text(encoding="utf-8"), load_solution))
    return documents


_DOCUMENTS = _valid_documents()


def _node_paths(node, path=()):
    """The key path of every node of a parsed document, the root first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


wrong_nodes = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
    st.just(float("nan")),
    st.just(-1.0),
    # beyond the float range
    st.integers(2**1024, 2**1100).flatmap(lambda m: st.sampled_from([m, -m])),
)


@PROPERTY
@given(st.sampled_from(_DOCUMENTS), st.data(), wrong_nodes)
def test_any_document_loads_or_raises_a_calibration_error(document, data, wrong):
    text, load = document
    doc = yaml.safe_load(text)
    node = data.draw(st.sampled_from(list(_node_paths(doc))))
    doc = _replaced(doc, node, wrong)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # two positions
            try:
                loaded = load(path)
            except CalibrationError as err:
                # A loading error names the key it replaced (a new top level
                # has none), and never shows an exception's repr.
                message = str(err)
                assert not node or node[0] in message, message
                assert "Error(" not in message and "Error:" not in message, message
                return
            if load is load_dataset:
                try:
                    loaded.constraints()
                except CalibrationError:
                    pass


# Each ``handeye simulate`` flag with valid and wrong values.  Counts stay
# at most 9, and every run starts with ``--trials`` at most 3 (a drawn
# ``--trials`` may repeat it; the last one counts), so no run is slow.
_LEVEL_ITEMS = [
    "0", "0.01", "0.06", "-0.0", "nan", "inf", "-inf", "1e400", "1e200", "-0.5", "", "x"
]
_SIMULATE_FLAGS = {
    "--distribution": st.sampled_from(["uniform", "gaussian", "both", "Gaussian", ""]),
    "--targets": st.sampled_from(["rotation", "rotation-translation", "both", "translation"]),
    "--levels": st.lists(st.sampled_from(_LEVEL_ITEMS), min_size=1, max_size=3).map(",".join),
    "--motions": st.sampled_from(
        ["2", "2,9", "3,2,", ",", "", "2:3", "2:9", "3:2", "2:2", "2:3:4", "1:3", ":", "2.5"]
    ),
    "--trials": st.sampled_from(["0", "-1", "1", "3", "", "nan", "1e400", "2.0"]),
    "--seed": st.sampled_from(["0", "7", "-1", "0.5", "", "nan", "1e400", str(2**64 + 5)]),
    "--formulation": st.sampled_from(["classical", "perspective", "projective"]),
    "--output": st.sampled_from(["file", "directory", "missing directory", "null", "empty"]),
}
simulate_flags = st.sampled_from(list(_SIMULATE_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), _SIMULATE_FLAGS[flag], st.booleans())
)
EXIT_CODES = {
    cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_SCHEMA, cli.EXIT_DEGENERATE,
    cli.EXIT_NO_CONVERGENCE, cli.EXIT_IO, cli.EXIT_FLAGS,
}


def _outputs(tmp):
    return {
        "file": str(tmp / "r.csv"),
        "directory": str(tmp / "sub"),
        "missing directory": str(tmp / "missing" / "r.csv"),
        "null": os.devnull,
        "empty": "",
    }


@PROPERTY
@given(st.sampled_from(["1", "2", "3"]), st.lists(simulate_flags, max_size=6))
@example("1", [("--output", "directory", False)])
@example("1", [("--distribution", "gaussian", False), ("--targets", "rotation", False),
               ("--output", "directory", True)])
@example("1", [("--output", "empty", False)])
@example("1", [("--levels", "0.01,1e200", False), ("--output", "file", True)])
@example("2", [("--motions", "3:2", False), ("--formulation", "perspective", True)])
@example("2", [("--motions", "2:3:4", True)])
@example("3", [("--levels", "nan,", False), ("--levels", "0.01,", True), ("--trials", "2", False)])
@example("1", [("--levels", "-0.0", True), ("--seed", str(2**64 + 5), False),
               ("--output", "null", False)])
def test_any_simulate_command_line_exits_with_a_documented_code(trials, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sub").mkdir()
        argv, output = ["simulate", "--trials", trials], None
        for flag, value, joined in flags:
            if flag == "--output":
                output = value = _outputs(tmp)[value]
            argv += [f"{flag}={value}"] if joined else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in EXIT_CODES, (argv, code)
        for line in err.getvalue().splitlines():
            assert line.startswith(("error:", "warning:")), (argv, line)
        files = [p for p in tmp.rglob("*") if p.is_file()]
        if code != cli.EXIT_OK:
            assert all(p.stat().st_size > 0 for p in files), argv
        elif output is None:
            # one "# distribution=D targets=T" line and one CSV per pair
            tables = out.getvalue().split("# distribution=")
            assert tables[0] == "" and len(tables) > 1, argv
            assert all(t.splitlines()[1] == cli.CSV_HEADER for t in tables[1:]), argv
        else:
            # a CSV per file, and no file for the null device
            assert (output == os.devnull) == (files == []), argv
            for path in files:
                assert path.read_text(encoding="utf-8").splitlines()[0] == cli.CSV_HEADER, argv


# Each flag of ``generate``, ``calibrate`` and ``residuals`` with valid and
# wrong values.  A value "@name" stands for the path ``name`` of
# ``_command_files``.  ``--motions`` stays at most 9, so no run is slow.
_HUGE = str(10**400)
_OUTPUTS = ["@new", "@directory", "@missing/out", "@null", "@empty"]
_INPUTS = ["@classical", "@perspective", "@solution", "@directory", "@missing", "@null", "@empty"]
_SOLUTIONS = [
    "@solution", "@non-unit", "@wrong-kind", "@classical", "@directory", "@missing", "@null"
]
_COMMAND_FLAGS = {
    "generate": {
        "--motions": ["2", "3", "9", "1", "-0", "", "nan", "2.5", "1e400", str(-(10**30))],
        "--seed": ["0", "7", "-1", "", "nan", "0.5", "-0.0", "1e400", str(2**64 + 5), _HUGE],
        "--formulation": ["classical", "perspective", "projective", ""],
        "--noise-level": [
            "0", "0.01", "0.1", "-0.0", "nan", "inf", "1e400", "1e200", "-0.5", "", _HUGE
        ],
        "--noise-distribution": ["uniform", "gaussian", "Gaussian", ""],
        "--noise-targets": ["rotation", "rotation-translation", "translation", ""],
    },
    "calibrate": {
        "--formulation": ["classical", "perspective", "projective", ""],
        "--method": [m.value for m in Method] + ["newton", ""],
        "--output": _OUTPUTS,
    },
    "residuals": {"--csv": _OUTPUTS},
}
# The positional arguments: half the time one where one is expected, else
# none, one or two.
_POSITIONALS = {
    "generate": st.lists(st.sampled_from(_OUTPUTS), min_size=1, max_size=1)
    | st.lists(st.sampled_from(_OUTPUTS), max_size=2),
    "calibrate": st.lists(st.sampled_from(_INPUTS), min_size=1, max_size=1)
    | st.lists(st.sampled_from(_INPUTS), max_size=2),
    "residuals": st.tuples(
        st.sampled_from(_INPUTS), st.lists(st.sampled_from(_SOLUTIONS), max_size=3)
    ).map(lambda p: [p[0], *p[1]]),
}
command_lines = st.sampled_from(list(_COMMAND_FLAGS)).flatmap(
    lambda command: st.tuples(
        st.just(command),
        st.lists(
            st.sampled_from(list(_COMMAND_FLAGS[command])).flatmap(
                lambda flag: st.tuples(
                    st.just(flag),
                    st.sampled_from(_COMMAND_FLAGS[command][flag]),
                    # a flag given without its value, one time in five
                    st.sampled_from(["separate", "joined", "separate", "joined", "bare"]),
                )
            ),
            max_size=4,
        ),
        _POSITIONALS[command],
    )
)


def _command_files(tmp):
    """The paths a command line may name: valid datasets and a valid
    solution, two wrong solutions, a directory, missing paths, the null
    device and the empty string."""
    classical, perspective, solution = (text for text, _ in _DOCUMENTS)
    texts = {"classical": classical, "perspective": perspective, "solution": solution}
    for name, key, value in [
        ("non-unit", "quaternion_wxyz", [2.0, 0.0, 0.0, 0.0]),
        ("wrong-kind", "translation_mm", "x"),
    ]:
        texts[name] = yaml.safe_dump({**yaml.safe_load(solution), key: value})
    for name, text in texts.items():
        (tmp / f"{name}.yaml").write_text(text, encoding="utf-8")
    (tmp / "directory").mkdir()
    return {
        **{name: str(tmp / f"{name}.yaml") for name in [*texts, "new", "missing"]},
        "directory": str(tmp / "directory"),
        "missing/out": str(tmp / "missing" / "out.yaml"),
        "null": os.devnull,
        "empty": "",
    }


def _written(path):
    return path is not None and path != os.devnull


@PROPERTY
@given(command_lines)
@example(("generate", [("--motions", "9", "separate"), ("--noise-level", "0.01", "joined")],
          ["@new"]))
@example(("generate", [("--formulation", "perspective", "separate")], ["@null"]))
@example(("calibrate", [("--formulation", "perspective", "separate")], ["@classical"]))
@example(("calibrate", [("--method", "tsai-lenz", "joined"), ("--output", "@new", "separate")],
          ["@perspective"]))
@example(("residuals", [("--csv", "@new", "separate")],
          ["@classical", "@solution", "@non-unit", "@solution"]))
@example(("residuals", [("--csv", "@new", "joined")], ["@perspective", "@solution", "@solution"]))
def test_any_generate_calibrate_or_residuals_command_line_exits_with_a_documented_code(line):
    command, flags, positionals = line
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = _command_files(tmp)

        def resolve(value):
            return paths[value[1:]] if value.startswith("@") else value

        argv = [command]
        for flag, value, style in flags:
            value = resolve(value)
            argv += {"separate": [flag, value], "joined": [f"{flag}={value}"], "bare": [flag]}[style]
        argv += [resolve(value) for value in positionals]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        assert code in EXIT_CODES, (argv, code)
        for text in err.getvalue().splitlines():
            assert text.startswith(("error:", "warning:")), (argv, text)
        if code != cli.EXIT_OK:
            assert all(p.stat().st_size > 0 for p in tmp.rglob("*") if p.is_file()), argv
            return
        args = cli._build_parser().parse_args(argv)
        stdout = out.getvalue().splitlines()
        if command == "generate":
            if _written(args.output):
                assert len(load_dataset(args.output).hand_poses) == args.motions + 1, argv
        elif command == "calibrate":
            assert stdout[0].startswith("method:"), argv
            if _written(args.output):
                assert load_solution(args.output).method == Method(args.method), argv
        else:
            # a header, a rule and one row per solution, and the same as CSV
            assert len(stdout) == 2 + len(args.solutions), argv
            if _written(args.csv):
                lines = Path(args.csv).read_text(encoding="utf-8").splitlines()
                assert lines[0] == "method,rotation_residual,translation_residual", argv
                assert len(lines) == 1 + len(args.solutions), argv
