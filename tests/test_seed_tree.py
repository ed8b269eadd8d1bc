"""Seed trees: an int seed and SeedSequence(seed) seed the same draws, a
caller's SeedSequence advances as the tree in protocol._seed_sequence says,
and a seed-tree node carries numpy's own SeedSequence pool and seeds each
generator itself, with no numpy SeedSequence built."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from qetsim import analysis, cli, simcore
from qetsim.analysis import comparison_report, mitigated_run, sampled_calibration_matrix
from qetsim.model import ModelParams
from qetsim.noise import MITIGATION_METHODS, PRESETS
from qetsim.protocol import (
    Mode,
    Target,
    build_circuit,
    e1_parts,
    run_protocol,
    run_protocol_E1,
    sample_protocol,
)
from qetsim.simcore import _rng, _SeedNode, exact_distribution

LIMA = PRESETS["lima-like"]
PARAMS = ModelParams(1.0, 0.5)
D = Mode.DEFERRED
SEEDS = [0, 7, 2**32, 2**64 + 5, 2**128 - 1, np.int64(7)]
SEED_IDS = ["0", "7", "2^32", "2^64+5", "2^128-1", "int64(7)"]


def _results_equal(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_results_equal, a, b))
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    return a == b


RUNS = {
    "run_protocol": lambda s: run_protocol(PARAMS, Target.V, D, 2_000, s),
    "sample_protocol noisy": lambda s: sample_protocol(
        PARAMS, Target.H1, LIMA.recorded(_dist(Target.H1, Mode.CONDITIONAL)), 2_000, s
    ),
    "run_protocol_E1": lambda s: run_protocol_E1(PARAMS, D, 2_000, s),
    "sampled_calibration_matrix": lambda s: sampled_calibration_matrix(LIMA, 2_000, s),
    **{
        f"mitigated_run {target} {method}": (
            lambda s, t=target, m=method: mitigated_run(PARAMS, t, D, 2_000, s, LIMA, m)
        )
        for target in (Target.V, "E1")
        for method in (*MITIGATION_METHODS, None)
    },
    "comparison_report": lambda s: comparison_report([PARAMS], 1_000, s, LIMA, "direct"),
}


@pytest.mark.parametrize("seed", SEEDS, ids=SEED_IDS)
@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_int_seed_and_its_seed_sequence_agree(run, seed):
    assert _results_equal(run(seed), run(np.random.SeedSequence(seed)))


def test_seed_node_spawns_as_seed_sequence():
    for seed in (0, 2**128 - 1):
        node, sequence = _SeedNode(seed), np.random.SeedSequence(seed)
        for n in (2, 0, 3):
            nodes, sequences = node.spawn(n), sequence.spawn(n)
            assert [c.spawn_key for c in nodes] == [c.spawn_key for c in sequences]
            assert node.n_children_spawned == sequence.n_children_spawned
        grandchild = nodes[2].spawn(8)[5]
        twin = sequences[2].spawn(8)[5]
        assert grandchild.spawn_key == twin.spawn_key == (4, 5)
        assert grandchild.entropy == twin.entropy


LEAF_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, np.int64(7)]
LEAF_KEYS = [(), (0,), (0, 0), (5, 1, 0), (2**32,), (2**40, 3)]


@pytest.mark.parametrize("key", LEAF_KEYS, ids=map(str, LEAF_KEYS))
@pytest.mark.parametrize("entropy", LEAF_ENTROPIES, ids=map(repr, LEAF_ENTROPIES))
def test_leaf_seeding_equals_numpy_seeding(entropy, key):
    # a node mixes its pool and hashes its seeding words itself; numpy's own
    # SeedSequence must give the same, or a numpy that changed its mixing
    # changed our streams
    node, sequence = _SeedNode(entropy, key), np.random.SeedSequence(entropy, spawn_key=key)
    assert node.pool == sequence.pool.tolist()
    for dtype in (np.uint32, np.uint64):
        for n in range(1, 9):
            got, want = node.generate_state(n, dtype), sequence.generate_state(n, dtype)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert node.generate_state(3).tolist() == sequence.generate_state(3).tolist()
    got, want = _rng(node), np.random.default_rng(sequence)
    assert got.integers(2**63, size=8).tolist() == want.integers(2**63, size=8).tolist()


def test_seed_node_generate_state_refuses_other_dtypes():
    for dtype in (np.int32, np.float64, "u2", ">u8"):
        for seed in (_SeedNode(3), np.random.SeedSequence(3)):
            with pytest.raises(ValueError, match="only support uint32 or uint64"):
                seed.generate_state(2, dtype)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    entropy=st.integers(0, 2**256),
    path=st.lists(st.integers(0, 2**64), max_size=4),
    spawned=st.integers(1, 3),
)
def test_spawned_node_streams_equal_numpy(entropy, path, spawned):
    # each step spawns `spawned` children from n_children_spawned = the key
    # element and takes the first, so key elements reach 2**64, past numpy's
    # uint32 counter; numpy builds the same key directly
    node = _SeedNode(entropy)
    for element in path:
        node.n_children_spawned = element
        node = node.spawn(spawned)[0]
    sequence = np.random.SeedSequence(entropy, spawn_key=tuple(path))
    assert node.spawn_key == sequence.spawn_key and node.pool == sequence.pool.tolist()
    got, want = np.random.default_rng(node), np.random.default_rng(sequence)
    assert type(got.bit_generator.seed_seq) is _SeedNode
    assert got.integers(2**63, size=6).tolist() == want.integers(2**63, size=6).tolist()


def _dist(target=Target.V, mode=D):
    return exact_distribution(build_circuit(PARAMS, target, mode))


# Each use of a caller's SeedSequence, and the children it spawns from it: one
# shot child per sample_protocol, a run and a calibration child per mitigated
# target, and none for calibration, which seeds its generator from the root.
SPAWNS = {
    "sample_protocol clean": (lambda s: sample_protocol(PARAMS, Target.V, _dist(), 500, s), 1),
    "sample_protocol noisy": (
        lambda s: sample_protocol(PARAMS, Target.V, LIMA.recorded(_dist()), 500, s), 1
    ),
    "e1_parts": (e1_parts, 2),
    **{
        f"mitigated_run {target} {method}": (
            lambda s, t=target, m=method: mitigated_run(PARAMS, t, D, 500, s, LIMA, m),
            1 if target is Target.V and method is None else 2,
        )
        for target in (Target.V, "E1")
        for method in (*MITIGATION_METHODS, None)
    },
    # without noise there is nothing to calibrate, whatever the method
    **{
        f"mitigated_run {target} clean {method}": (
            lambda s, t=target, m=method: mitigated_run(PARAMS, t, D, 500, s, None, m),
            1 if target is Target.V else 2,
        )
        for target in (Target.V, "E1")
        for method in MITIGATION_METHODS
    },
    "sampled_calibration_matrix": (lambda s: sampled_calibration_matrix(LIMA, 500, s), 0),
}


@pytest.mark.parametrize("use, n_spawned", SPAWNS.values(), ids=SPAWNS.keys())
def test_caller_seed_sequence_advances_as_before(use, n_spawned):
    seed = np.random.SeedSequence(2**64 + 5)
    use(seed)
    assert seed.n_children_spawned == n_spawned
    expected = np.random.SeedSequence(2**64 + 5).spawn(n_spawned + 2)[n_spawned:]
    for child, twin in zip(seed.spawn(2), expected):
        assert type(child) is np.random.SeedSequence
        assert child.spawn_key == twin.spawn_key
        assert np.array_equal(child.generate_state(4), twin.generate_state(4))


def test_caller_seed_sequence_passes_through():
    seed = np.random.SeedSequence(3)
    parts = e1_parts(seed)
    assert [type(s) for _, s in parts] == [np.random.SeedSequence] * 2
    assert [s.spawn_key for _, s in parts] == [(0,), (1,)]


@pytest.mark.parametrize(
    "operation, n_generators",
    [
        (lambda: cli.main("report --pairs 1:1 --shots 2000 --noise lima-like --seed 3".split()),
         9),
        (
            lambda: cli.main(
                "run --target E1 --h 1 --k 1 --shots 1000 --noise lima-like "
                "--mitigation direct --seed 3".split()
            ),
            4,
        ),
        (
            lambda: cli.main(
                "run --target V --h 1 --k 1 --shots 1000 --noise lima-like "
                "--mitigation none --seed 3".split()
            ),
            1,
        ),
        (lambda: run_protocol(PARAMS, Target.V, D, 1_000, 3), 1),
    ],
    ids=["noisy one-pair report", "mitigated run E1", "noisy run V", "clean run_protocol"],
)
def test_one_seed_sequence_per_generator(monkeypatch, capsys, operation, n_generators):
    # an int seed's generators are each seeded by a seed-tree node of their own,
    # and no np.random.SeedSequence is built, by qetsim or inside PCG64
    built = []

    class Counting(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    seeds = _generator_seeds(monkeypatch)
    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    operation()
    assert len(seeds) == n_generators and built == []
    assert all(type(seed) is _SeedNode for seed in seeds)
    assert len({id(seed) for seed in seeds}) == n_generators


def test_caller_seed_sequence_seeds_through_numpy(monkeypatch):
    # a caller's SeedSequence is numpy's: it and the children it spawns seed
    # every generator themselves
    seeds = _generator_seeds(monkeypatch)
    run_protocol(PARAMS, Target.V, D, 1_000, np.random.SeedSequence(3))
    mitigated_run(PARAMS, Target.V, D, 1_000, np.random.SeedSequence(3), LIMA, "direct")
    comparison_report([PARAMS], 1_000, np.random.SeedSequence(3), LIMA, "direct")
    assert len(seeds) == 1 + 2 + 9
    assert all(type(seed) is np.random.SeedSequence for seed in seeds)


def _generator_seeds(monkeypatch) -> list:
    """The seed sequence of each generator that default_rng builds from now on."""
    seeds, default_rng = [], np.random.default_rng

    def recording_rng(seed):
        rng = default_rng(seed)
        seeds.append(rng.bit_generator.seed_seq)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    return seeds


# Raw multinomial draws of numpy's default generator from spawned seed
# sequences, for a 1-D pvals (shots, and each calibration column in turn) and a
# 2-D one (all four columns in one call: the reference that
# test_sampled_calibration_matrix_is_one_generator_tabulation checks calibration
# against). Every pinned output digest depends on this stream, and NEP 19 lets
# numpy change it between releases.
PVALS_1D = [0.5, 0.25, 0.125, 0.125]
PVALS_2D = [[0.9, 0.05, 0.04, 0.01], [0.02, 0.95, 0.0, 0.03], [0.1, 0.2, 0.3, 0.4],
            [0.0, 0.0, 0.0, 1.0]]
MULTINOMIAL_DRAWS = [
    ((0, 1), PVALS_1D, 1000, [500, 224, 145, 131]),
    ((0, 1), PVALS_1D, 2**63 - 1,
     [4611686019225633792, 2305843010051802624, 1152921503653481984, 1152921503923857407]),
    ((1,), PVALS_2D, 1000,
     [[904, 51, 39, 6], [27, 957, 0, 16], [102, 192, 279, 427], [0, 0, 0, 1000]]),
    ((1,), PVALS_2D, 2**63 - 1,
     [[8301034832577551999, 461168602505037760, 368934881779593568, 92233719992592480],
      [184467441017297504, 8762203434794059167, 0, 276701161043419136],
      [922337204156588800, 1844674408877609984, 2767011610784936448, 3689348813035640575],
      [0, 0, 0, 9223372036854775807]]),
]


def test_numpy_multinomial_stream_is_pinned():
    # draws follow each other on one generator per spawn key, as in the program
    generators = {
        key: np.random.default_rng(np.random.SeedSequence(2024, spawn_key=key))
        for key in ((0, 1), (1,))
    }
    for key, pvals, n, expected in MULTINOMIAL_DRAWS:
        got = generators[key].multinomial(n, pvals).tolist()
        assert got == expected, (
            f"numpy {np.__version__} draws Generator.multinomial(n={n}, pvals of "
            f"{np.ndim(pvals)} dimensions) differently from the release these values "
            f"were taken with (numpy 2.4.6): its stream changed, as NEP 19 allows"
        )


INVALID_SEEDS = [(-1, ValueError), (np.int64(-1), ValueError), (1.5, TypeError), ("7", TypeError)]
SEEDED = {
    "sample_protocol noisy": lambda s: sample_protocol(
        PARAMS, Target.V, LIMA.recorded(_dist()), 100, s
    ),
    "run_protocol_E1": lambda s: run_protocol_E1(PARAMS, D, 100, s),
    **{
        f"mitigated_run {target} {method}": (
            lambda s, t=target, m=method: mitigated_run(PARAMS, t, D, 100, s, LIMA, m)
        )
        for target in (Target.V, "E1")
        for method in ("least-squares", None)
    },
    "sampled_calibration_matrix": lambda s: sampled_calibration_matrix(LIMA, 100, s),
    "mitigated_run clean least-squares": lambda s: mitigated_run(
        PARAMS, Target.V, D, 100, s, None, "least-squares"
    ),
    "comparison_report": lambda s: comparison_report([PARAMS], 100, s, LIMA),
}


@pytest.mark.parametrize("seed, error", INVALID_SEEDS, ids=["-1", "int64(-1)", "1.5", "str"])
@pytest.mark.parametrize("run", SEEDED.values(), ids=SEEDED.keys())
def test_invalid_seed_raises_before_sampling(monkeypatch, run, seed, error):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(error):
        run(seed)


def test_none_seed_draws_fresh_entropy():
    result = run_protocol(PARAMS, Target.V, D, 100, None)
    assert result.n_shots == 100
    _, _, matrix = mitigated_run(PARAMS, Target.V, D, 100, None, LIMA)
    assert np.allclose(matrix.sum(axis=0), 1.0)


def _child(code: str, *flags: str) -> str:
    """stdout of a fresh interpreter, started with flags, running code on this qetsim."""
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use; importing it with the CLI would
    # add its import time to every qet call
    assert _child("import sys, qetsim.cli; print('numpy.random' in sys.modules)") == "False"


# plain --key value calls, each read without the full parser: a JSON run, a
# noisy JSON report, a CSV report, a sweep and an evolve
PLAIN_CALLS = [
    ["run", "--target", "V", "--h", "1", "--k", "1", "--shots", "1000"],
    ["report", "--pairs", "1:1", "--shots", "1000", "--noise", "lima-like",
     "--mitigation", "direct", "--format", "json"],
    ["report", "--pairs", "1:1,0.5:2", "--shots", "1000", "--format", "csv"],
    ["sweep", "--grid-h", "0.5:1:3", "--grid-k", "1"],
    ["evolve", "--h", "1", "--k", "0.5", "--t-steps", "5"],
]


def test_plain_calls_import_no_argparse_json_or_pathlib():
    # argparse (and its gettext) loads only for the full parser, pathlib only for
    # --config or --out, and strings are escaped by _json without the json
    # package; -S keeps the modules site imports at start-up out of the count,
    # and numpy's directory goes after the stdlib on the child's path
    code = textwrap.dedent(f"""\
        import contextlib, io, sys
        sys.path.append({str(Path(np.__file__).resolve().parents[1])!r})
        import numpy
        four, before = {{"argparse", "gettext", "json", "pathlib"}}, set(sys.modules)
        import qetsim.cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [qetsim.cli.main(argv) for argv in {PLAIN_CALLS!r}]
            plain = set(sys.modules) - before
            qetsim.cli.main(["--help"])
        print(codes, sorted(before & four), sorted(plain & four), "argparse" in sys.modules)""")
    assert _child(code, "-S") == f"{[0] * len(PLAIN_CALLS)} [] [] True"


# qet calls that end before computing anything: help, an unknown subcommand, and
# config errors found while the options are read
EARLY_EXITS = {
    ("--help",): 0,
    ("run", "--help"): 0,
    ("bogus",): 2,
    ("-1",): 2,
    ("-",): 2,
    ("-x y",): 2,
    ("--seed", "1", "run"): 2,
    ("--bogus", "bogus"): 2,
    ("-x", "y"): 2,
    ("run", "--target", "V", "--h", "1", "--k", "1", "--shots", "0"): 2,
    ("sweep", "--grid-h", "0:1:0"): 2,
    ("sweep", "--grid-h", "0:1:3", "--grid-k", "1"): 2,
    ("sweep", "--grid-h", "0.1:1:1001", "--grid-k", "0.1:1:1000"): 2,
    ("evolve", "--h", "1", "--k", "1", "--t-steps", "1"): 2,
}


@pytest.mark.parametrize("block", ["", "sys.modules['numpy'] = None"], ids=["unloaded", "missing"])
def test_import_and_early_exits_load_no_numpy(block):
    # numpy loads on first use: importing qetsim, the early exits, building
    # and spawning a seed tree and the scalar analytic_V and analytic_H1 never
    # use it, and with numpy unimportable (block) they still give their exit
    # codes, nodes and floats
    code = textwrap.dedent(f"""\
        import contextlib, io, sys
        {block}
        import qetsim, qetsim.cli
        from qetsim.model import ModelParams, analytic_H1, analytic_V
        from qetsim.protocol import _seed_sequence, e1_parts
        codes = []
        for argv in {list(EARLY_EXITS)!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(qetsim.cli.main(list(argv)))
        keys = [node.spawn_key for node in _seed_sequence(7).spawn(6)]
        keys += [node.spawn_key for _, node in e1_parts(3)]
        params = ModelParams(1.0, 0.5)
        energies = [type(f(params)).__name__ for f in (analytic_V, analytic_H1)]
        print(codes, keys, energies, sys.modules.get("numpy") is not None)""")
    keys = [(i,) for i in range(6)] + [(0,), (1,)]
    assert _child(code) == f"{list(EARLY_EXITS.values())} {keys} ['float', 'float'] False"


def test_numpy_handle_first_use_from_racing_threads():
    # the first reads, from threads switching every microsecond, all see numpy
    code = textwrap.dedent("""\
        import sys, threading, types
        from qetsim import simcore
        sys.setswitchinterval(1e-6)
        barrier, seen = threading.Barrier(8), []
        def first_use():
            barrier.wait()
            seen.append((simcore.np.random, simcore.np.ndarray, simcore.np.linalg))
        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        import numpy
        print(not any(thread.is_alive() for thread in threads),
              seen == [(numpy.random, numpy.ndarray, numpy.linalg)] * 8,
              type(simcore.np) is types.ModuleType)""")
    assert _child(code) == "True True True"


def test_numpy_handle_is_numpy_after_first_use(capsys):
    # after its first read the handle is a plain module holding numpy's names, so
    # a lookup costs what one on numpy does; it is not registered as numpy
    assert cli.main(["run", "--target", "V", "--h", "1", "--k", "1", "--shots", "1000"]) == 0
    assert type(simcore.np) is types.ModuleType
    assert vars(simcore.np)["random"] is np.random and simcore.np.ndarray is np.ndarray
    assert sys.modules["numpy"] is np
