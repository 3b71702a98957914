"""One golden corpus: digests of outputs that must not change by accident.

Four sections are hashed, each entry to its own digest, so that a
failure names the target list, the value batch, the enumeration or
the CLI call whose output changed:

- the witness corpus: for every one- and two-target list over TARGETS
  and each of RANK_LISTS, the witness file object and its verdict, or
  the refusal text, for each beta of
  enumerate_ordinals_below(EnumerationBounds(3, 3, 3)) below the list's
  value;
- seeded values built with the kernel's operators, each rendered in
  the ascii and unicode styles and as repr;
- enumerate_ordinals_below for the audit workload's three bounds and
  criterion 3's, each term in the ascii style, in enumeration order;
- in-process cli.run calls, each as stdout, stderr and exit code.

A change that alters an output on purpose updates the digests it must
and says which ones, and why; a failing check lists each changed key
with its new digest.
"""

import hashlib
import itertools
import json
import random
import time

import ordpigeon.selftest as selftest_mod
from ordpigeon.cli import run
from ordpigeon.engine import Instance, analyze, normalize
from ordpigeon.oracle import EnumerationBounds, enumerate_ordinals_below
from ordpigeon.ordinal import (
    OMEGA,
    add,
    from_int,
    initial_ordinal,
    mr_sum,
    mul,
    natural_sum,
    omega_pow,
)
from ordpigeon.parser import format_ordinal, parse_ordinal
from ordpigeon.selftest import CriterionResult
from ordpigeon.witness import (
    OutOfScope,
    build_counterexample,
    verify_certificates,
    witness_to_json,
)

TARGETS = ("2", "3", "w", "w+1", "w+2", "w*2", "w*2+1", "w*3", "w*3+1",
           "w^2", "w^2+1", "w^2*2", "w^2+w", "w^3", "w^2*2+1")
# a list per leaf whose value the rank pass gives with a target at or
# above w_1: C2cII, C2bI, C2bII, C2cI and finite-colour C4
RANK_LISTS = [("w_1+1", "2"), ("w_2", "w"), ("w_1+1", "w"), ("w_1*2+5",),
              ("w_1", "w")]
LISTS = [(t,) for t in TARGETS] + list(
    itertools.combinations_with_replacement(TARGETS, 2)) + RANK_LISTS

# the whole witness corpus, 10,539 witnesses and 241 refusals, takes about
# 1 s on a 2-core Xeon; the budget is set once, not to be raised
CORPUS_BUDGET_S = 5.0


def digest(obj) -> str:
    text = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the witness corpus --------------------------------------------------------


def corpus_builds():
    """(target list, its norm, rows): a row per beta below the list's
    value, the built (colouring, certificates) or the OutOfScope refusal."""
    betas = enumerate_ordinals_below(EnumerationBounds(3, 3, 3))
    for ts in LISTS:
        inst = Instance.of(*(parse_ordinal(t) for t in ts))
        value = analyze(inst).result.value
        norm = normalize(inst)
        rows = []
        for beta in betas:
            if beta >= value:
                break
            try:
                rows.append(build_counterexample(beta, norm))
            except OutOfScope as exc:
                rows.append(exc)
        yield ts, norm, rows


def corpus_digests() -> dict:
    out = {}
    for ts, norm, rows in corpus_builds():
        out[",".join(ts)] = digest([
            str(row) if isinstance(row, OutOfScope) else
            [witness_to_json(*row), verify_certificates(row[0], norm, row[1])]
            for row in rows])
    return out


# -- seeded values --------------------------------------------------------------


def seeded_values(seed: int, count: int) -> list:
    # 0, then each value one kernel operation on two earlier non-zero
    # ones, from a pool of small finite, infinite and uncountable ordinals
    rng = random.Random(seed)
    pool = [from_int(1), from_int(2), from_int(7), OMEGA,
            initial_ordinal(1), initial_ordinal(2), initial_ordinal(OMEGA)]
    ops = [add, mul, natural_sum, lambda a, b: mr_sum([a, b]),
           lambda a, b: omega_pow(a) if a.is_finite() else add(a, b)]
    while len(pool) < count:
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(rng.choice(ops)(a, b))
    return [from_int(0)] + pool


def value_digests() -> dict:
    out = {}
    for seed in (1, 2, 3):
        rows = [[format_ordinal(x, "ascii"), format_ordinal(x, "unicode"),
                 repr(x)] for x in seeded_values(seed, 60)]
        out[f"seed {seed}"] = digest(rows)
    return out


# -- enumerations -----------------------------------------------------------------


ENUMERATIONS = [("w*2", 2, 10), ("w*2", 2, 5), ("w*2+1", 2, 4), ("w^2", 2, 10)]


def enumeration_digests() -> dict:
    out = {}
    for top, coeff, monos in ENUMERATIONS:
        terms = enumerate_ordinals_below(
            EnumerationBounds(parse_ordinal(top), coeff, monos))
        out[f"{top},{coeff},{monos}"] = digest(
            [format_ordinal(t, "ascii") for t in terms])
    return out


# -- CLI calls ------------------------------------------------------------------


WITNESS_ARGS = ["witness", "w^2", "w*2:2"]
CALLS = [
    ["ptop", "w+1:3"],
    ["ptop", "w^2*2+1", "w*3", "5"],
    ["ptop", "w_1:2"],
    ["ptop", "w_1+1", "w+1"],
    ["ptop", "w_2", "w:aleph_0"],
    ["ptop", "1", "1"],
    ["pord", "w+1", "w*2", "3"],
    ["mrsum", "w^2+1", "w*3"],
    ["natsum", "w^2+w", "w^3+1", "5"],
    ["arith", "add", "w+3", "w^2"],
    ["arith", "mul", "w+1", "w+1"],
    ["arith", "cmp", "w_1", "w^w"],
    ["classify", "0"],
    ["classify", "w_1"],
    ["classify", "w^w*2+1"],
    ["case", "w*2+1", "w*3+1"],
    ["case", "w_1+1", "w+1"],
    WITNESS_ARGS,
    ["witness", "w*3", "w+1", "w+1"],
    ["witness", "w^2+1", "w_1+1", "w+1"],
    ["verify", "witness.json"],
    ["selftest"],
]
ERRORS = [
    [],
    ["nosuch"],
    ["ptop"],
    ["arith", "pow", "1", "2"],
    ["ptop", "w+"],
    ["ptop", "w:0"],
    ["ptop", "w:aleph"],
    ["natsum", "w+w"],
    ["classify", "(w"],
    ["witness", "w^3", "w*2", "w+1"],
    ["witness", "w", "2", "2"],
    ["witness", "w^2", "w_1:2"],
    ["witness", "5", "2:300"],
    ["verify", "missing.json"],
    ["verify", "broken.json"],
]
MODES = [[], ["--json"], ["--unicode"], ["--json", "--unicode"]]


def cli_digests(monkeypatch, capsys, tmp_path) -> dict:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(selftest_mod, "run_all", lambda: [
        CriterionResult(1, "alpha", True, "fine", 0.01234, 1.0),
        CriterionResult(12, "beta", False, "broke at w+1", 2.5, 5.0)])
    assert run(WITNESS_ARGS + ["--json"]) == 0
    (tmp_path / "witness.json").write_text(capsys.readouterr().out)
    (tmp_path / "broken.json").write_text('{"result": {"kind": "witness"}}')
    out = {}
    for argv in [c + m for c in CALLS for m in MODES] + ERRORS:
        code = run(argv)
        captured = capsys.readouterr()
        out[" ".join(argv)] = digest([captured.out, captured.err, code])
    return out


# -- the pinned digests -----------------------------------------------------------


GOLDEN = {
    "corpus: 2": "193ea6f122aaacb1",
    "corpus: 3": "e0115594f2b2c8d4",
    "corpus: w": "b8c2e86afad7d50a",
    "corpus: w+1": "59166951811d5550",
    "corpus: w+2": "7981e4d888f2a84c",
    "corpus: w*2": "15bb2a55a7a371c6",
    "corpus: w*2+1": "31e8e6bcc662933e",
    "corpus: w*3": "616e39683bfff15e",
    "corpus: w*3+1": "00588e86ec0be3c1",
    "corpus: w^2": "546874535d3d538d",
    "corpus: w^2+1": "3ac0f441e9eab866",
    "corpus: w^2*2": "6646973c0d4fcaaa",
    "corpus: w^2+w": "67c9635613c1a2cc",
    "corpus: w^3": "fff64aca16550e34",
    "corpus: w^2*2+1": "f9c055ea8ed9324c",
    "corpus: 2,2": "966632a55954e26e",
    "corpus: 2,3": "a37bdee2546efe21",
    "corpus: 2,w": "7fa6b64c0fdc8202",
    "corpus: 2,w+1": "ce70e038789924da",
    "corpus: 2,w+2": "73a6cecaa60c5172",
    "corpus: 2,w*2": "b82142053a332b50",
    "corpus: 2,w*2+1": "320b7f93fd706ad0",
    "corpus: 2,w*3": "d7e450e6acb9d68d",
    "corpus: 2,w*3+1": "e4bb1e6630ef6302",
    "corpus: 2,w^2": "ef5ed4fcb5bd0038",
    "corpus: 2,w^2+1": "34d546de15e97fa5",
    "corpus: 2,w^2*2": "596d42ce5ae86dd5",
    "corpus: 2,w^2+w": "445eef2cfd60a49c",
    "corpus: 2,w^3": "61a387e910e22034",
    "corpus: 2,w^2*2+1": "1841bee9480108bc",
    "corpus: 3,3": "570de0518cabff4c",
    "corpus: 3,w": "9ab751a0599f891d",
    "corpus: 3,w+1": "8d20857588541f5c",
    "corpus: 3,w+2": "b9922cc0e7afe763",
    "corpus: 3,w*2": "4d286be89e39ce99",
    "corpus: 3,w*2+1": "a43630d439a4d4ec",
    "corpus: 3,w*3": "59f4c2d64da7f78a",
    "corpus: 3,w*3+1": "3fb8315c103ad9c0",
    "corpus: 3,w^2": "bb5a8f4d37a06219",
    "corpus: 3,w^2+1": "e53e02ddba6fb95b",
    "corpus: 3,w^2*2": "1b48f8ee33dba267",
    "corpus: 3,w^2+w": "185ac9d2fd8140f2",
    "corpus: 3,w^3": "5efdd6c6ea7748f7",
    "corpus: 3,w^2*2+1": "f1f28bdffe7154c5",
    "corpus: w,w": "bc367240e9fbdc9f",
    "corpus: w,w+1": "bc69612c181804c9",
    "corpus: w,w+2": "ccbee2cd71f588ad",
    "corpus: w,w*2": "0bfa4c631e4b1ef8",
    "corpus: w,w*2+1": "b3cb3925975ddd3f",
    "corpus: w,w*3": "5f5466d04ce398d9",
    "corpus: w,w*3+1": "d16a22574011979e",
    "corpus: w,w^2": "b2b0c248eb6b410f",
    "corpus: w,w^2+1": "1667fd767a3e81f5",
    "corpus: w,w^2*2": "e6a8b8aa57fdd179",
    "corpus: w,w^2+w": "d3a424da904891d2",
    "corpus: w,w^3": "3993f757795c6378",
    "corpus: w,w^2*2+1": "921d1f71f119e0bd",
    "corpus: w+1,w+1": "21700dbd42e94838",
    "corpus: w+1,w+2": "432f095280939689",
    "corpus: w+1,w*2": "29c76589d4f60960",
    "corpus: w+1,w*2+1": "7fc5f5e536bb2075",
    "corpus: w+1,w*3": "640af6deb5ac279f",
    "corpus: w+1,w*3+1": "b4d02cca54bff57e",
    "corpus: w+1,w^2": "f653ec955ac11087",
    "corpus: w+1,w^2+1": "0b864a0b3a691c62",
    "corpus: w+1,w^2*2": "291cb99b5f831d3c",
    "corpus: w+1,w^2+w": "67901444f184744a",
    "corpus: w+1,w^3": "0f97593c7bf58eb6",
    "corpus: w+1,w^2*2+1": "cbc0f6daf59c0550",
    "corpus: w+2,w+2": "381f2588a6fcb21e",
    "corpus: w+2,w*2": "09c7e4508ec227d3",
    "corpus: w+2,w*2+1": "020fc7223acb8e54",
    "corpus: w+2,w*3": "c1f527216137bed4",
    "corpus: w+2,w*3+1": "54c7279e171b8b7f",
    "corpus: w+2,w^2": "8a00894d090514e3",
    "corpus: w+2,w^2+1": "172d9c88620c6e14",
    "corpus: w+2,w^2*2": "ff4ba1061be90497",
    "corpus: w+2,w^2+w": "94bf0cd8f15f7b65",
    "corpus: w+2,w^3": "476c1af7fc66a70e",
    "corpus: w+2,w^2*2+1": "61cc4857373aeac3",
    "corpus: w*2,w*2": "842e4745e743ef9c",
    "corpus: w*2,w*2+1": "f3b42c4b06a24eb1",
    "corpus: w*2,w*3": "aa89f5ccd6c8036a",
    "corpus: w*2,w*3+1": "19a2ae7fbb9114fb",
    "corpus: w*2,w^2": "2bccccdde9550644",
    "corpus: w*2,w^2+1": "d7fe5491fd838709",
    "corpus: w*2,w^2*2": "4139ba847e671ebb",
    "corpus: w*2,w^2+w": "1d836d9cbce8a33c",
    "corpus: w*2,w^3": "82121012d09a1dd9",
    "corpus: w*2,w^2*2+1": "7508af1297528f25",
    "corpus: w*2+1,w*2+1": "13ff7d0483fdc9f2",
    "corpus: w*2+1,w*3": "cccd81330afa9aad",
    "corpus: w*2+1,w*3+1": "2a74a11248114b06",
    "corpus: w*2+1,w^2": "1c81e1c11ac6879e",
    "corpus: w*2+1,w^2+1": "854e27c954eb514a",
    "corpus: w*2+1,w^2*2": "43b07ff70c71e864",
    "corpus: w*2+1,w^2+w": "c9f87c078c3ef8e4",
    "corpus: w*2+1,w^3": "1794848e90579e51",
    "corpus: w*2+1,w^2*2+1": "65dd650bfdfa20e1",
    "corpus: w*3,w*3": "9c84692502cc62c8",
    "corpus: w*3,w*3+1": "005aa0cbae64bfcf",
    "corpus: w*3,w^2": "d68ed71e0ae2c84f",
    "corpus: w*3,w^2+1": "8933fd1ae9401581",
    "corpus: w*3,w^2*2": "65b6000b88f2d4ba",
    "corpus: w*3,w^2+w": "60e4c13a15d51968",
    "corpus: w*3,w^3": "6e5a8e1bfcd4320d",
    "corpus: w*3,w^2*2+1": "2d518443b199e267",
    "corpus: w*3+1,w*3+1": "9dc521e9945aa397",
    "corpus: w*3+1,w^2": "fcdd5cda322fc583",
    "corpus: w*3+1,w^2+1": "889e305c72976d97",
    "corpus: w*3+1,w^2*2": "271960936ea9612e",
    "corpus: w*3+1,w^2+w": "4ceb519bcf7aee66",
    "corpus: w*3+1,w^3": "0888e7650f5ff0c5",
    "corpus: w*3+1,w^2*2+1": "4db1e043a6bfb529",
    "corpus: w^2,w^2": "540a0c82d99e5184",
    "corpus: w^2,w^2+1": "5f4c77f43ca500f9",
    "corpus: w^2,w^2*2": "178b562e3d6cd317",
    "corpus: w^2,w^2+w": "893f7321c55fb198",
    "corpus: w^2,w^3": "bbc5eaef41bc0815",
    "corpus: w^2,w^2*2+1": "4f3aead275f8ef07",
    "corpus: w^2+1,w^2+1": "573a961025b18c91",
    "corpus: w^2+1,w^2*2": "1e423ceb1cb8a6cc",
    "corpus: w^2+1,w^2+w": "e4cbffe51aec362c",
    "corpus: w^2+1,w^3": "d5c93f045be6cbbc",
    "corpus: w^2+1,w^2*2+1": "8a1d434745a0200c",
    "corpus: w^2*2,w^2*2": "67d05bf074fd2126",
    "corpus: w^2*2,w^2+w": "cdcdc02a1205b92e",
    "corpus: w^2*2,w^3": "8f56b83fc97cf4ba",
    "corpus: w^2*2,w^2*2+1": "317e3ad715419e67",
    "corpus: w^2+w,w^2+w": "d57939d6f4e0e760",
    "corpus: w^2+w,w^3": "76d3987dfdcb539e",
    "corpus: w^2+w,w^2*2+1": "8d4085628912f084",
    "corpus: w^3,w^3": "1d889847b8caaa03",
    "corpus: w^3,w^2*2+1": "255bf5b1f496a453",
    "corpus: w^2*2+1,w^2*2+1": "f9ebf07dfa80dfee",
    "corpus: w_1+1,2": "3b4d5b244a7105cf",
    "corpus: w_2,w": "6dee05c0cf1a7dd8",
    "corpus: w_1+1,w": "6dbc7ecd99f0b3fd",
    "corpus: w_1*2+5": "0853b30d4dddbd6c",
    "corpus: w_1,w": "f0710724757576d6",
    "values: seed 1": "5fe8bac7ee955a8b",
    "values: seed 2": "d834d4324bf13756",
    "values: seed 3": "50527f8f1158b3db",
    "enumeration: w*2,2,10": "480d9f41f4f7a280",
    "enumeration: w*2,2,5": "b068332e95153e76",
    "enumeration: w*2+1,2,4": "ce2bf9df0feb801b",
    "enumeration: w^2,2,10": "48b6f7f470649f7a",
    "cli: ptop w+1:3": "e882789fe6f61af8",
    "cli: ptop w+1:3 --json": "c5e3f2bb05e74711",
    "cli: ptop w+1:3 --unicode": "b9bbbdc249d2a9d7",
    "cli: ptop w+1:3 --json --unicode": "c5e3f2bb05e74711",
    "cli: ptop w^2*2+1 w*3 5": "f7b36ad34fed764c",
    "cli: ptop w^2*2+1 w*3 5 --json": "b56ee484d94c4dcc",
    "cli: ptop w^2*2+1 w*3 5 --unicode": "eff5e632d939a949",
    "cli: ptop w^2*2+1 w*3 5 --json --unicode": "b56ee484d94c4dcc",
    "cli: ptop w_1:2": "02b213d67d1d2a69",
    "cli: ptop w_1:2 --json": "8364c6cb9fdef172",
    "cli: ptop w_1:2 --unicode": "042b34d7c2821dd4",
    "cli: ptop w_1:2 --json --unicode": "8364c6cb9fdef172",
    "cli: ptop w_1+1 w+1": "1046961dceae7f08",
    "cli: ptop w_1+1 w+1 --json": "f4baabf4591900e9",
    "cli: ptop w_1+1 w+1 --unicode": "1046961dceae7f08",
    "cli: ptop w_1+1 w+1 --json --unicode": "f4baabf4591900e9",
    "cli: ptop w_2 w:aleph_0": "1fefbc6d2685f6b9",
    "cli: ptop w_2 w:aleph_0 --json": "c5d0bd31a1826649",
    "cli: ptop w_2 w:aleph_0 --unicode": "54d749ca4f3805ab",
    "cli: ptop w_2 w:aleph_0 --json --unicode": "c5d0bd31a1826649",
    "cli: ptop 1 1": "592bd4f3de26add3",
    "cli: ptop 1 1 --json": "cae8ff64633dce2d",
    "cli: ptop 1 1 --unicode": "592bd4f3de26add3",
    "cli: ptop 1 1 --json --unicode": "cae8ff64633dce2d",
    "cli: pord w+1 w*2 3": "7aeabcc62d0cce37",
    "cli: pord w+1 w*2 3 --json": "0ba1e6d6169ba61f",
    "cli: pord w+1 w*2 3 --unicode": "e11105adecbcbb61",
    "cli: pord w+1 w*2 3 --json --unicode": "0ba1e6d6169ba61f",
    "cli: mrsum w^2+1 w*3": "a928ec79336d32b2",
    "cli: mrsum w^2+1 w*3 --json": "09254b79fe5fd704",
    "cli: mrsum w^2+1 w*3 --unicode": "cd9c5429d8d63d0f",
    "cli: mrsum w^2+1 w*3 --json --unicode": "09254b79fe5fd704",
    "cli: natsum w^2+w w^3+1 5": "7819a3c0b8e60426",
    "cli: natsum w^2+w w^3+1 5 --json": "897d7bc5bcef4cf2",
    "cli: natsum w^2+w w^3+1 5 --unicode": "2d1c35e0b0712092",
    "cli: natsum w^2+w w^3+1 5 --json --unicode": "897d7bc5bcef4cf2",
    "cli: arith add w+3 w^2": "d3736aefb955b6dc",
    "cli: arith add w+3 w^2 --json": "cdb611b00779256d",
    "cli: arith add w+3 w^2 --unicode": "51f3dc35d6b7b0da",
    "cli: arith add w+3 w^2 --json --unicode": "cdb611b00779256d",
    "cli: arith mul w+1 w+1": "d9041849e9356630",
    "cli: arith mul w+1 w+1 --json": "ff99fa3a731ac8f3",
    "cli: arith mul w+1 w+1 --unicode": "d24c16a1f69e8d12",
    "cli: arith mul w+1 w+1 --json --unicode": "ff99fa3a731ac8f3",
    "cli: arith cmp w_1 w^w": "95ec4afc1ecfe6fc",
    "cli: arith cmp w_1 w^w --json": "78e63025b61a58d8",
    "cli: arith cmp w_1 w^w --unicode": "43690d0021c29689",
    "cli: arith cmp w_1 w^w --json --unicode": "78e63025b61a58d8",
    "cli: classify 0": "608e65b80cbae5ed",
    "cli: classify 0 --json": "81f729913502b12b",
    "cli: classify 0 --unicode": "608e65b80cbae5ed",
    "cli: classify 0 --json --unicode": "81f729913502b12b",
    "cli: classify w_1": "6dfcdb4725ee9a4e",
    "cli: classify w_1 --json": "c595c6c1ef18dc0e",
    "cli: classify w_1 --unicode": "843ef83f29bd98ec",
    "cli: classify w_1 --json --unicode": "c595c6c1ef18dc0e",
    "cli: classify w^w*2+1": "10d59029cab5291a",
    "cli: classify w^w*2+1 --json": "dbd00badad88f982",
    "cli: classify w^w*2+1 --unicode": "1bbb26e647bb2cfd",
    "cli: classify w^w*2+1 --json --unicode": "dbd00badad88f982",
    "cli: case w*2+1 w*3+1": "b569bf96997aceff",
    "cli: case w*2+1 w*3+1 --json": "5a421727a5ecbefc",
    "cli: case w*2+1 w*3+1 --unicode": "d65a208d522b4442",
    "cli: case w*2+1 w*3+1 --json --unicode": "5a421727a5ecbefc",
    "cli: case w_1+1 w+1": "2c5e3222ee7af73b",
    "cli: case w_1+1 w+1 --json": "86f590faf16f59a5",
    "cli: case w_1+1 w+1 --unicode": "2c5e3222ee7af73b",
    "cli: case w_1+1 w+1 --json --unicode": "86f590faf16f59a5",
    "cli: witness w^2 w*2:2": "968dbab5ed1104c5",
    "cli: witness w^2 w*2:2 --json": "b47b4e74f8ec6772",
    "cli: witness w^2 w*2:2 --unicode": "22e24fc148372510",
    "cli: witness w^2 w*2:2 --json --unicode": "b47b4e74f8ec6772",
    "cli: witness w*3 w+1 w+1": "a9738665b6cd65e7",
    "cli: witness w*3 w+1 w+1 --json": "42a9f71230b215f9",
    "cli: witness w*3 w+1 w+1 --unicode": "2ea3d526d6aeb761",
    "cli: witness w*3 w+1 w+1 --json --unicode": "42a9f71230b215f9",
    "cli: witness w^2+1 w_1+1 w+1": "40337ce98b0dc942",
    "cli: witness w^2+1 w_1+1 w+1 --json": "5139c3ded07b9841",
    "cli: witness w^2+1 w_1+1 w+1 --unicode": "603d881e50b26dbe",
    "cli: witness w^2+1 w_1+1 w+1 --json --unicode": "5139c3ded07b9841",
    "cli: verify witness.json": "ac06557113186851",
    "cli: verify witness.json --json": "d50438041724d0f6",
    "cli: verify witness.json --unicode": "ac06557113186851",
    "cli: verify witness.json --json --unicode": "d50438041724d0f6",
    "cli: selftest": "06d3dc56d806489b",
    "cli: selftest --json": "60c1ab1c7bc86515",
    "cli: selftest --unicode": "06d3dc56d806489b",
    "cli: selftest --json --unicode": "60c1ab1c7bc86515",
    "cli: ": "558f98fa54e3b9c2",
    "cli: nosuch": "192a6be7d63eb88f",
    "cli: ptop": "50015ee16e9ea939",
    "cli: arith pow 1 2": "550c51ea5ee59560",
    "cli: ptop w+": "3e972eb7b83888f5",
    "cli: ptop w:0": "890e4a6735c7dd01",
    "cli: ptop w:aleph": "899f3ae1d7492e53",
    "cli: natsum w+w": "3c05a49e7b178e53",
    "cli: classify (w": "15b9ffa82083e076",
    "cli: witness w^3 w*2 w+1": "6211b17e7818cdac",
    "cli: witness w 2 2": "3e52718a9638b694",
    "cli: witness w^2 w_1:2": "52b4330bb56c1b2a",
    "cli: witness 5 2:300": "c94a10ad343a2984",
    "cli: verify missing.json": "d038cab29244a4c3",
    "cli: verify broken.json": "3f8d44a487bd79d9",
}


def check(section: dict, kind: str):
    # each key names its section, then its target list, seed or argv
    expected = {k: v for k, v in GOLDEN.items() if k.startswith(kind + ": ")}
    found = {f"{kind}: {k}": v for k, v in section.items()}
    changed = {k: found.get(k) for k in sorted(found.keys() | expected.keys())
               if found.get(k) != expected.get(k)}
    assert not changed, f"changed digests, new values: {changed}"


def test_witness_corpus_is_pinned():
    start = time.perf_counter()
    section = corpus_digests()
    elapsed = time.perf_counter() - start
    check(section, "corpus")
    assert elapsed < CORPUS_BUDGET_S, f"corpus took {elapsed:.2f} s"


def test_seeded_values_are_pinned():
    check(value_digests(), "values")


def test_enumerations_are_pinned():
    check(enumeration_digests(), "enumeration")


def test_cli_calls_are_pinned(monkeypatch, capsys, tmp_path):
    check(cli_digests(monkeypatch, capsys, tmp_path), "cli")
