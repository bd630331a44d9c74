"""Paper-parity pins: registering the transformer family must not move
a single byte of the Table 1 six's compiled programs or table outputs,
and refactoring the compiler must not move a byte of any program.

``PROGRAM_SHA256`` and ``TABLE_TEXT_SHA256`` were recorded from the repo
*before* the transformer layer kinds, the per-token FC path, and the
dynamic-tile weight charging existed.  They pin:

* the compiled instruction stream of each paper workload at 8x8 (so
  compiler refactors shared with the transformer path provably leave
  the six's emission untouched), and
* the rendered text of Tables 1-8 (so analysis surfaces keep iterating
  exactly the paper registry).

``PROGRAM_DEPS_SHA256`` was recorded later, from the commit just before
the emission pass was folded into one emitter per instruction shape
(``Lowering._activate_stripes`` and ``Lowering._vector_op``).  It pins
the instruction stream and the dependency sidecar of all nine
registered workloads at both operand widths, so the transformer
emitters (attention, layer norm, per-token FC) and every 16-bit
program are pinned too.  Sidecar entries were frozen ``InstrDeps``
dataclasses then and are plain ``(reads, writes, war)`` tuples now, so
the test renders each entry in the recorded dataclass text before
hashing; the tokens themselves are what the digest pins.

If one of these legitimately needs to change (e.g. a deliberate
compiler improvement), re-record the constants in the same commit and
say why in its message.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import perfcache
from repro.analysis import EXPERIMENTS
from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering
from repro.core.config import TPU_V1
from repro.core.device import TPUDevice
from repro.isa import encoding
from repro.isa.encoding import FIELD_COLUMNS, encode_program
from repro.isa.opcodes import Opcode
from repro.nn.workloads import WORKLOAD_NAMES, build_workload, paper_workloads
from tests import oracles

#: sha256 of TPUProgram.binary() per paper workload (timing compile).
PROGRAM_SHA256 = {
    "mlp0": "99116d2ab8c7d2fc9e5cdf22423dfc3a24b1679f97e09815ca81cd2792b802f4",
    "mlp1": "d0a8a777b849c8006dd5baa832daaf4a30057e70f5257a127de8675e25720334",
    "lstm0": "f365b4742fb0465e8677fe258b6414cbf65d0668d7f3486763c4b89db9d2a918",
    "lstm1": "ebe083c501e10389d8ca3abbacca91ffe7a42c19ddf7ca9d36725337a6d6505a",
    "cnn0": "b2565ac7b08f8a1eab216b82dd5a7dc32bb7b804abcd162a66b70402e8a87705",
    "cnn1": "3a4d97042205579c36e272b5ec2df4f8f0bf230fa47c838a70bb5c67286a8b6f",
}

#: (sha256 of TPUProgram.binary(), sha256 of the dependency sidecar in
#: the text form it was recorded in, see ``_deps_text``) for every
#: registered workload at (8, 8) and (16, 16) operand widths, keyed by
#: (name, bits).  Only the transformer programs run the attention,
#: layer-norm and per-token FC emitters, and the 16-bit programs differ
#: from the 8-bit ones in every MatrixMultiply.
PROGRAM_DEPS_SHA256 = {
    ("mlp0", 8): (
        "99116d2ab8c7d2fc9e5cdf22423dfc3a24b1679f97e09815ca81cd2792b802f4",
        "e431e0fb23476800423d73aa1442f4f0658a1403b5cddf7aa7d25c63b5c62aff",
    ),
    ("mlp0", 16): (
        "143a44de4b8e5fc9a8dc3c0e852b09f7388486456e0178fd85f1b2aac016d33a",
        "e431e0fb23476800423d73aa1442f4f0658a1403b5cddf7aa7d25c63b5c62aff",
    ),
    ("mlp1", 8): (
        "d0a8a777b849c8006dd5baa832daaf4a30057e70f5257a127de8675e25720334",
        "64d739a6f15ba4b36fa2c60fc3462b45f4b71482b1e2153869dda96acca6c6c2",
    ),
    ("mlp1", 16): (
        "faa75fa4522121f954d8f70eb13c4c0a036ab756e776e61876eb2cf45b2ddc8e",
        "64d739a6f15ba4b36fa2c60fc3462b45f4b71482b1e2153869dda96acca6c6c2",
    ),
    ("lstm0", 8): (
        "f365b4742fb0465e8677fe258b6414cbf65d0668d7f3486763c4b89db9d2a918",
        "35e8509597c08ec710d5d47878a1a6a1c6cd298df2f10e761c5faf9578c5e6a9",
    ),
    ("lstm0", 16): (
        "dc5ea35891fd05d2f282ed0fc9c8109c45d75e5775b12a456cfe0bc06eec56d8",
        "35e8509597c08ec710d5d47878a1a6a1c6cd298df2f10e761c5faf9578c5e6a9",
    ),
    ("lstm1", 8): (
        "ebe083c501e10389d8ca3abbacca91ffe7a42c19ddf7ca9d36725337a6d6505a",
        "76d442f5d87192b70b74fb87f527d71290c525774f3b10b013748e776a925833",
    ),
    ("lstm1", 16): (
        "a8379548b29f992df6619e26786cfa1134258c12c2f577498a5586751b07e3a3",
        "76d442f5d87192b70b74fb87f527d71290c525774f3b10b013748e776a925833",
    ),
    ("cnn0", 8): (
        "b2565ac7b08f8a1eab216b82dd5a7dc32bb7b804abcd162a66b70402e8a87705",
        "91681f31920879474d297fbc3b263a711ea6913ae4da551ebd56d297ecc96d38",
    ),
    ("cnn0", 16): (
        "0de35f21c79b43fd97b17653636e54efb8169a0a7c112c03d9e94faa28126b4f",
        "91681f31920879474d297fbc3b263a711ea6913ae4da551ebd56d297ecc96d38",
    ),
    ("cnn1", 8): (
        "3a4d97042205579c36e272b5ec2df4f8f0bf230fa47c838a70bb5c67286a8b6f",
        "2fbd0ae9c51f540c502495824bee985aba87387661ad5bd4b65bd1f28c6602e0",
    ),
    ("cnn1", 16): (
        "5c283aa152ce7c1b2e9a423917b8d77ccd667ba003a365b86bb43fed549bf11e",
        "2fbd0ae9c51f540c502495824bee985aba87387661ad5bd4b65bd1f28c6602e0",
    ),
    ("bert_s", 8): (
        "63e4e004d2577bb4b444e6dbc0368c641e382efdab50417260c382d26f44d333",
        "971c8532952312044fbb9e93d56b49191e77fdf631e73444f2db090d61866d12",
    ),
    ("bert_s", 16): (
        "c22be53fa48f529ee3d528424f65a06e8cf0c6e79043f4575c512a60842899b9",
        "971c8532952312044fbb9e93d56b49191e77fdf631e73444f2db090d61866d12",
    ),
    ("bert_l", 8): (
        "1c3b411cd3fdf76f5035ee5d0f1d67df9ef6686db812bf7f4dfd1d85b486fd45",
        "fe638ac1c647065b20341d08207a5417608114b9a5c445ecd9ee8a713963e889",
    ),
    ("bert_l", 16): (
        "54919eb51eb3e67dc053c702fe5724d2f687cca2e96d5ed3846bf3647ed9705f",
        "fe638ac1c647065b20341d08207a5417608114b9a5c445ecd9ee8a713963e889",
    ),
    ("gpt_s", 8): (
        "7ffa2bd8ced3212469321c291347d9ccd6608afd82973086c194375f40d27413",
        "ab0e9f7e03f6ca0107bbc2827bfb05bca25dfe36bc2b9af5899b4bae562b9da3",
    ),
    ("gpt_s", 16): (
        "9308900498723e38507e3d97cf063064d927b3d666d18e577e5a7c504f2f874d",
        "ab0e9f7e03f6ca0107bbc2827bfb05bca25dfe36bc2b9af5899b4bae562b9da3",
    ),
}

#: sha256 of ExperimentResult.text for the paper tables.
TABLE_TEXT_SHA256 = {
    "table1": "1cc516851e2945159a3b6bcbb0672f3597f39b94cc0b9f96ee72f7e1969306fd",
    "table2": "d837b19b431da1c2e68c8691cb7b3e4ea69cc29e1f6c7d6eeaed1c143e34d00e",
    "table3": "2a50345e7073b21eaecd3266f5abe570581213859b43ad5b0b99bf5980d58a38",
    "table4": "8bf7732a1640ddb67fd952ac2a9885da4ffad21ea08675ae4b4695bb1641d0ef",
    "table5": "d0a52ef10cca9dd5740c3e56fa7ec54b5242d219b8977e07f1198e645d82b8b9",
    "table6": "f9f093801a20a0d04613079483bda2d5603f31fba89ad124cf35dde2dabcdb9e",
    "table7": "3fd7c633c0ce151fdba98e89044bcbeb8b40352892988193cff2d4ee924cbea5",
    "table8": "c2d3af779b2d70f9c4fc383f1dd59897b5dab97b537ffb6df93146652cb8e0eb",
}

#: sha256 of ExperimentResult.text for the paper's figures and the
#: Section 7 studies, recorded before the six-app means, relative per-die
#: IPS and the roofline ceiling each moved to one home.
FIGURE_TEXT_SHA256 = {
    "figure2": "774347d3189409d96661cc673b1611787fd932233c18ec07fb93ec96fce58651",
    "figure4": "bdbf427f89cae22d676754abc4a3f8f319192d31bd175f0f791b9455255573f5",
    "figure5": "3a9b261107b1400da20b650a4e35e0a06fce74d78848451f6cdeb1f1f35799e4",
    "figure6": "2e5bbb63242022e9c280717a715ce39d180a3eb9988d07f81e498465b5c19edd",
    "figure7": "eb7cb31095e7bebfb7fb6f80d11a272f0eafabf7aeb58c460fae6d1cb3a6cf63",
    "figure8": "4bd3c9b6e4bef677ca5c8ba00d8e76d6797570b643bc9c1aa41f60aead0eaacd",
    "figure9": "14b55e9dda5f5d5fdb7f9d137a8a4eaccb477fce69fe42ad6f352b509c285092",
    "figure10": "f843e7bd8999bd3bd0379d6725d9e45b8d1750129a660cce0fbbef01f4d1021d",
    "figure11": "a32b1f5f89d7d07ce199f8c2c7d14e8e74cb305eab621dbfcd973a330dfa5384",
    "tpu_prime": "ddf514770df15bdc7f6e75fe80ebd2dd71445f1f2d299360d783315237264566",
    "boost_mode": "8a34a5e2177bc69a89f7c923d625ee6442d5dcde4094c76aa1089293da4ea71e",
    "server_scale": "d531c40fc512237b3b38c58775e06eb8122e7729a573f9e029ebd4fbcf9b39df",
    "transformer_roofline": "254995c66fcb30f706017ddd377a68428c3ec9cdd5ff9e17968df665440e104a",
}


@pytest.mark.parametrize("name", list(PROGRAM_SHA256))
def test_paper_program_byte_identical(name):
    model = paper_workloads()[name]
    program = TPUDriver().compile(model).program
    assert hashlib.sha256(program.binary()).hexdigest() == PROGRAM_SHA256[name], (
        f"{name}: compiled instruction stream changed vs the pre-transformer "
        "seed; paper-parity surfaces must stay pinned"
    )


@pytest.mark.parametrize(
    "name,bits",
    [pytest.param(name, bits, id=f"{name}-{bits}x{bits}") for name, bits in PROGRAM_DEPS_SHA256],
)
def test_program_and_deps_byte_identical(name, bits):
    """Every program's instruction stream and dependency sidecar, from a
    fresh emission pass (no lowering cache), at both operand widths."""
    program = Lowering(
        build_workload(name), TPU_V1, weight_bits=bits, activation_bits=bits
    ).lower().program
    binary_sha, deps_sha = PROGRAM_DEPS_SHA256[name, bits]
    label = f"{name} at {bits}x{bits}"
    assert hashlib.sha256(program.binary()).hexdigest() == binary_sha, label
    deps_text = _deps_text(program.metadata["deps"])
    assert hashlib.sha256(deps_text.encode()).hexdigest() == deps_sha, label


@pytest.mark.parametrize(
    "name,first,other",
    [
        pytest.param(name, first, other, id=f"{name}-{first}to{other}")
        for name in WORKLOAD_NAMES
        for first, other in ((8, 16), (16, 8))
    ],
)
def test_width_sibling_replays_the_pinned_program(name, first, other):
    """The lowering cache keys a record without its operand widths, so
    a compile at one width replays the record another width left; the
    replay must be the pinned program of the width it was asked for."""
    perfcache.GLOBAL_LOWERING.invalidate(name)
    TPUDriver().compile(build_workload(name), weight_bits=first, activation_bits=first)
    perfcache.GLOBAL_LOWERING.reset_counters()
    program = TPUDriver().compile(
        build_workload(name), weight_bits=other, activation_bits=other
    ).program
    assert perfcache.GLOBAL_LOWERING.stats().hits == 1
    binary_sha, deps_sha = PROGRAM_DEPS_SHA256[name, other]
    label = f"{name} at {other}x{other} after {first}x{first}"
    assert hashlib.sha256(program.binary()).hexdigest() == binary_sha, label
    deps_text = _deps_text(program.metadata["deps"])
    assert hashlib.sha256(deps_text.encode()).hexdigest() == deps_sha, label


def _program_and_sibling(name: str, bits: int):
    """The pinned program at ``bits``, fresh, and the same program replayed
    from the lowering record the other width left."""
    model = build_workload(name)
    fresh = Lowering(model, TPU_V1, weight_bits=bits, activation_bits=bits).lower().program
    other = 16 if bits == 8 else 8
    lowering = Lowering(model, TPU_V1, weight_bits=other, activation_bits=other)
    lowering.lower()
    sibling = lowering.record.materialize(None, TPU_V1, bits, bits).program
    return fresh, sibling


@pytest.mark.parametrize(
    "name,bits",
    [pytest.param(name, bits, id=f"{name}-{bits}x{bits}") for name, bits in PROGRAM_DEPS_SHA256],
)
def test_sealed_program_matches_its_decoded_view(name, bits, monkeypatch):
    """Each pinned program and its width sibling: ``binary()`` and
    ``instruction_counts()`` read the columns, and agree with the
    instruction objects the view decodes; ``len()`` decodes nothing."""
    for label, program in zip(("fresh", "sibling"), _program_and_sibling(name, bits)):
        label = f"{name} at {bits}x{bits}, {label}"
        decoded = list(program.instructions)
        assert encode_program(decoded) == program.binary(), label
        counts = Counter(Opcode(instr.opcode).name for instr in decoded)
        assert list(program.instruction_counts().items()) == list(counts.items()), label
        with monkeypatch.context() as patch:
            patch.setattr(encoding, "_instruction", None)  # any decode would fail
            assert len(program.instructions) == len(decoded), label


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_width_sibling_shares_the_record_columns(name):
    """A record replayed at other widths shares every column but the
    flags column, and the sealed sidecar, by identity; at its own widths
    it shares the whole stream.  The sealed token count is the one a
    flatten of the sidecar would find: tokens are dense from 0."""
    lowering = Lowering(build_workload(name), TPU_V1)
    own = lowering.lower().program.instructions
    record = lowering.record.instructions
    assert own is record
    sibling = lowering.record.materialize(None, TPU_V1, 16, 16).program
    columns = sibling.instructions
    for column in (*FIELD_COLUMNS, "operand"):
        shared = getattr(columns, column) is getattr(record, column)
        assert shared == (column != "flags"), (name, column)
    assert columns.deps is record.deps is sibling.metadata["deps"]
    tokens = [token for entry in record.deps for part in entry for token in part]
    assert columns.deps_tokens == record.deps_tokens == max(tokens) + 1


def _deps_text(deps) -> str:
    """The sidecar as the ``repr`` of the tuple of frozen ``InstrDeps``
    dataclasses it was when ``PROGRAM_DEPS_SHA256`` was recorded (every
    program has more than one entry, so no one-element tuple form)."""
    entries = (f"InstrDeps(reads={r!r}, writes={w!r}, war={a!r})" for r, w, a in deps)
    return f"({', '.join(entries)})"


@pytest.mark.parametrize("exp_id", list(TABLE_TEXT_SHA256))
def test_paper_table_text_byte_identical(exp_id):
    result = EXPERIMENTS[exp_id]()
    assert hashlib.sha256(result.text.encode()).hexdigest() == TABLE_TEXT_SHA256[exp_id], (
        f"{exp_id}: rendered table changed vs the pre-transformer seed"
    )


@pytest.mark.parametrize("exp_id", list(FIGURE_TEXT_SHA256))
def test_paper_figure_text_byte_identical(exp_id):
    result = EXPERIMENTS[exp_id]()
    assert hashlib.sha256(result.text.encode()).hexdigest() == FIGURE_TEXT_SHA256[exp_id], (
        f"{exp_id}: rendered figure text changed"
    )


@pytest.mark.parametrize("exp_id", list(TABLE_TEXT_SHA256))
def test_paper_table_text_pinned_with_perfcache_disabled(exp_id):
    """The perfcache must be a pure memo: bypassing it cannot move a byte.

    The default-path test above runs with the cache enabled, so together
    they pin Tables 1-8 with the cache both on and off.
    """
    with perfcache.disabled():
        result = EXPERIMENTS[exp_id]()
    assert hashlib.sha256(result.text.encode()).hexdigest() == TABLE_TEXT_SHA256[exp_id], (
        f"{exp_id}: rendered table changed when the perfcache was bypassed"
    )


#: Operand widths (weight bits, activation bits) the parity tests cover:
#: full speed and the quarter-speed 16-bit mode.
WIDTHS = ((8, 8), (16, 16))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_vectorized_device_path_bit_identical(name):
    """The device's timing walk must match the per-instruction oracle.

    ``PerInstructionRun`` in tests/oracles.py walks the program one
    instruction at a time on its own scoreboard and engine clocks.
    Cycle counts, seconds, the cycle breakdown, and every counter --
    including the int-vs-float type of each value, which the Table 3
    rendering distinguishes -- must be identical.  (The pinned tables
    above run through the walk, so this localizes any future divergence
    to the device layer.)  The transformer programs cover the walk's
    dynamic K^T/V tile staging.
    """
    driver = TPUDriver.shared()
    model = build_workload(name)
    for weight_bits, activation_bits in WIDTHS:
        program = driver.compile(
            model, weight_bits=weight_bits, activation_bits=activation_bits
        ).program
        plan = TPUDevice().run(program)
        oracle = oracles.PerInstructionRun(TPUDevice(), program)
        loop = oracle.execute()
        label = f"{name} at {weight_bits}x{activation_bits}"
        assert oracle.walked == len(program.instructions), label
        assert plan.cycles == loop.cycles, label
        assert plan.seconds == loop.seconds, label
        assert dataclasses.asdict(plan.breakdown) == dataclasses.asdict(loop.breakdown), label
        assert plan.counters == loop.counters, label
        assert {k: type(v) for k, v in plan.counters.items()} == {
            k: type(v) for k, v in loop.counters.items()
        }, label


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_fast_lowering_bit_identical(name):
    """The compiler's emission pass must match the per-tile oracle in
    tests/oracles.py: same instruction stream, same dependency tokens,
    same metadata -- byte for byte, in the same key order.  (The pinned
    program hashes above run through the production pass; this localizes
    any future divergence to emission.)"""
    model = build_workload(name)
    for weight_bits, activation_bits in WIDTHS:
        widths = {"weight_bits": weight_bits, "activation_bits": activation_bits}
        emitted = Lowering(model, TPU_V1, **widths).lower().program
        reference = oracles.ReferenceLowering(model, TPU_V1, **widths).lower().program
        label = f"{name} at {weight_bits}x{activation_bits}"
        assert emitted.binary() == reference.binary(), label
        assert emitted.metadata == reference.metadata, label
        assert list(emitted.metadata) == list(reference.metadata), label


#: Runs in a fresh interpreter: installs the compiler, device and
#: closed-loop oracles, turns both caches off, and prints the digests of
#: the six paper programs and the requested tables plus the oracle counts.
_THROUGH_THE_ORACLES = """
import hashlib, json, sys

from tests import oracles

fired = oracles.install()

from repro import perfcache
from repro.analysis import EXPERIMENTS
from repro.compiler.driver import TPUDriver
from repro.nn.workloads import paper_workloads

def sha(data):
    return hashlib.sha256(data).hexdigest()

with perfcache.disabled():
    programs = {
        name: sha(TPUDriver().compile(model).program.binary())
        for name, model in paper_workloads().items()
    }
    tables = {
        exp_id: sha(EXPERIMENTS[exp_id]().text.encode()) for exp_id in sys.argv[1:]
    }
print(json.dumps({"programs": programs, "tables": tables, "fired": fired}))
"""


def test_paper_pins_hold_through_the_oracles():
    """The six programs and Tables 1-8 hash identically when every layer
    runs its oracle instead of its production path, with both caches off.

    A fresh process keeps the module patches and the cold caches away
    from the rest of the suite.  The oracle counts make sure each one
    actually fired, so a missed rebinding cannot pass vacuously.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _THROUGH_THE_ORACLES, *TABLE_TEXT_SHA256],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["programs"] == PROGRAM_SHA256
    assert report["tables"] == TABLE_TEXT_SHA256
    assert set(report["fired"]) == {"lowering", "device", "closed_loop"}
    assert all(count > 0 for count in report["fired"].values()), report["fired"]
