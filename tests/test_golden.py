"""Golden outputs of the benchmark's corpora.

For seed 1 of each workload, every operation of one ``workloads.cycle``
runs through ``cpcompat.cli.main`` in process, with the argv of the
benchmark's ``Runner`` (``--mode``, ``--rules`` and ``--report``/``--out``).
Each operation's exit code, what it wrote to stdout and stderr (with the
temporary directory replaced by a fixed token) and the bytes of the report
or draft it wrote are hashed into one SHA-256 per operation key.

A change that alters any output on purpose replaces ``GOLDEN`` with the
table the failure prints, and names each changed operation, and why, in
CHANGES.md. Checking outputs against the benchmark's reference stays the
benchmark's job: nothing here calls ``bench/reference.py``.

The table was computed with CPython 3.11, the only interpreter at hand
when it was taken.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

import cpcompat.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN = {
    "deep": {
        "p0/compare/acquire": "58a091390e8f251f777bba5813582c451be290d09f5b2c7aa601838efa09a19d",
        "p0/compare/merge": "6ffa08513e46aebf1fc8177aeb2660e725b8887462398f22e9d9de3490d440b0",
        "p0/merge/acquire": "786096041ceff7005c49680f387b8d99e645744eda352a2294fc95393acf43bf",
        "p0/merge/merge": "4bee083a890659b064bf51a497c9df018c020ffa5fceecb6cb8e91277f1f8f49",
        "p1/compare/acquire": "e5c4254cc2991a0ad713c28acef4d2c6a28aaf8cf006c92754415ecf27322d74",
        "p1/compare/merge": "e57a49a5c2f3ff92eeab2086d6744e35248f0cebed498a9223001d3583da83d0",
        "p1/merge/acquire": "ca3c295452c22161abac46bd89a67c1b4614b85650ece6f2d61ebb44d91b5faf",
        "p1/merge/merge": "78ec1dfe121fcfc95420f28c078bda5591f20c2250b0bf8d235780fe65ccd5ed",
        "p2/compare/acquire": "feeeabc91fa220aa1950b40dee6016eb8650f0fc7c95fd38bfaa3a0aaa78e973",
        "p2/compare/merge": "8b33d946ce5473d64d031a3f9dc6ae44ce55f9f722128d54d6e74081aa3ca7f9",
        "p2/merge/acquire": "5b8c94316004588166422b8138282cf44d2990ee70477e4cf8a019a48eebd565",
        "p2/merge/merge": "38f20e5e537d049263cfae9fdceec2591e5db35f9add4c5acac6e0e779138a28",
        "p3/compare/acquire": "5c6ed104d7db77dcc7f08a7c91e6538632b2526ff7ac791798ca69160f8afb5b",
        "p3/compare/merge": "3f97c3d7fe4a9b1e8024f05e5d56c21dc081594cb181f25e1e1b49a8bb72c426",
        "p3/merge/acquire": "b63b00cfde7353393bf62d8f30e2c16b3958e2f26090a0db35415c4f71df5802",
        "p3/merge/merge": "7b72035420522e5579a2f44f41a513541c6eb69b1fb385af7654796c19fda24b",
    },
    "rfc3647": {
        "p0/compare/acquire": "db609089d5755e2c43773ada963f5b0e6f888f15cf7ee3f01d769e547b13913c",
        "p0/compare/merge": "8024764d8db0f9b51d5b6aca1c74aaa1f0a21b0bbdef2b9ebd6624cdac437647",
        "p0/merge/acquire": "9ef751f91d4d9c4659962e7d67c76f79d161ac723f81e212870919f18a491951",
        "p0/merge/merge": "84ef9d8f7c2a0352539282cfc7168039e9d1d69b78811036c80fde86af2957cc",
        "p1/compare/acquire": "ff44fb780297fdbfa741246aac3f19b2ba78a0ed3fd8cded7aec28e59f95f403",
        "p1/compare/merge": "f3cbe98c249b29ac3b371a1e198966e66c81fd0b3078069c5f0c402871aab609",
        "p1/merge/acquire": "cb580a538766fc684bcbc4350bcf6a5ad98251bda3eb186faab8758cfdf26716",
        "p1/merge/merge": "45a49c64b80101f0aa15c6396f8673fd51252dfa309bc73bfa977060e889f44e",
        "p2/compare/acquire": "38b1d894b17d9f66ee86c3234f12846c0f0889041ff737e927e3f67c1adbdc5a",
        "p2/compare/merge": "6c454a606ca98a24b9f3725a3bd2c0d9fddc40ea0ed06aa1470bfe328cd63e16",
        "p2/merge/acquire": "5ea175db98ec10fb11fee8577d2035df5b59f51b1f054ebdec26f90c2018a6eb",
        "p2/merge/merge": "b87d8d6b294b6adaec4241282d683851c821e57c28bd886726127e93a5505c6c",
        "p3/compare/acquire": "3ba84ced7a57bbfee2b586a50dde641aa953e20772816848efe9370449976986",
        "p3/compare/merge": "4330c21314eb3e805c9b4f7de9329001c2028e9e7d3a60ad3ebf9f700881a9e5",
        "p3/merge/acquire": "8ebd0246d12241c4e14978467c488524e6f43c7ba5c1666bcf3fee6dedb85f81",
        "p3/merge/merge": "7cc7e452b9788938f3da0d02d0dd503bb39b4c704ce0d47a7eb0ca99a8a082b4",
        "p4/compare/acquire": "02453b58a27183a09a4832882b3571a6a35917e9ccacd2d44f8fd7b597acce4c",
        "p4/compare/merge": "4bbaeb31fe1e0edaa5316d9b873c3f480cfcd6ae4b44a27da4239d2310c8553e",
        "p4/merge/acquire": "19c0cfd4fe3ff27a21142c71a256e64eebb2f928baae42b4eebfa19a817826c4",
        "p4/merge/merge": "b5875a4209df6cbe8e0611f16bee5197e251ce0144c103d41a54b65a84ceba60",
        "p5/compare/acquire": "5b0537bcc2168aa39080d5970c65ed790e8c96a8bd652f8f24ebfa80a552c977",
        "p5/compare/merge": "4e04d48567098e4793213985cea6433fbb57e3e817b3bd3e141cae0182c5510c",
        "p5/merge/acquire": "4b7317849c45e6123f92b6eb745f30d9b85c95c66325f8114f875f475f68b7af",
        "p5/merge/merge": "db6594d89050fda32eee400daac27a99701b6a45193984a26942dca318c26acb",
        "p6/compare/acquire": "655a223a04e99daccc695d22f1f943ff86447edf9828e6e6cb276c16b6ff74f5",
        "p6/compare/merge": "ff60a9a703e7e4d6e68b1d9d547efb6b7b2c820270f7327f1b6bd9c87126516f",
        "p6/merge/acquire": "07c22d63ce2dd56b7f4813708f8b4c59870210f3921b024efbbb7535e9f95ff0",
        "p6/merge/merge": "39151ad29e9d595478c9e56d7eae4eb5504a8014e57b2e8bf3ed6872a649a74a",
        "p7/compare/acquire": "d471aa7513b4bd0ae71ea388014e5ec5d44f630f2e4fdb4d0d10a537c8ce43e5",
        "p7/compare/merge": "24a101a4e357313cfdfdc9c67c079c33731fbf6595bd6884494a8f344974860b",
        "p7/merge/acquire": "529a54b73a6ab8f2dc810a7f0ac2bcfe0876f52d4020f7ea4bdc6ea11646c775",
        "p7/merge/merge": "64a7fa3d52991b24c2adb52ce4235d9423fa555ae6eef636cb96bc7bf3bfaefa",
    },
    "wide": {
        "p0/compare/acquire": "23541dfb19ee5419e6115fa82e4a5ebe1c85eece266d996703ce404792cacbd3",
        "p0/compare/merge": "5d602aadaf18bc707275db5fd7d64426020afbcb82874f0f69436501a08716a2",
        "p0/merge/acquire": "b49c7f5ab974c5959bd367908b14c377f1e43d89c5965f9cc2c53bb51817a135",
        "p0/merge/merge": "53c463b8ab7a0885a83df651662ca7d3b0c6d9cd8fe83f8d83facf6773dc0bba",
        "p1/compare/acquire": "9f6c708f83e55139367fe48d628583d3e7ade9b718bf252d7fa3713ee6d6b9c0",
        "p1/compare/merge": "a1ebc8b5c56c474a6de8756172dcbe73c82745d6ad3696144947a13b1afdedc1",
        "p1/merge/acquire": "f1f6fa50180792e892e8b6b312670cd9fb07d3216549f554bab566b9de442fcb",
        "p1/merge/merge": "185d27924bbda0aafac0ca837e9225d35cecc01dcad015b97014f3ac6a551f21",
        "p2/compare/acquire": "f64c0181069ec3eb839e10456178b984b7ef86e1ddb4ee1beb878c03d80c38ac",
        "p2/compare/merge": "111c384db3141a180ac1f93ef97fdbad979abf32f5db1bcee5108ff3866dd2f0",
        "p2/merge/acquire": "cb1e48926c9493a668d796aa62e11a7f531c987406bf2df3e16d876d01a36f99",
        "p2/merge/merge": "95d310e68b4875d8c5e13034c7972dd8320983482fd26eb2230d40180ecb64ae",
        "p3/compare/acquire": "7db44fb337c568db16a69eba4b6d51e993363e2419586f9c034a961d37ee8b93",
        "p3/compare/merge": "7b28ce5db6e0e57ac76419ee36cf9225559723a146f2e4325af6ae3a838e5bc9",
        "p3/merge/acquire": "eee21b5a8ca5e6b9111e80a918a207f7c04b44d79765bd67e92be5c2b8798505",
        "p3/merge/merge": "58a509bf15bc7364c3ac3d9dc10e3b216330a5d1ab12c1a9a29d5276f8daa9b4",
    },
}


def outputs(workload: str, directory: Path) -> dict[str, str]:
    """One SHA-256 per operation of the workload's seed-1 cycle."""
    runner = run.Runner(cpcompat.cli, directory)
    table = {}
    for op in workloads.cycle(workloads.build(workload, 1, directory)):
        outcome = runner.run(op)
        assert outcome.error is None, f"{op.key}: {outcome.error}"
        stderr = outcome.stderr.replace(str(directory), "<tmp>")
        table[op.key] = hashlib.sha256(repr((outcome.code, stderr, outcome.output)).encode()).hexdigest()
    return table


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_outputs_match_the_golden_table(workload, tmp_path):
    table = outputs(workload, tmp_path)
    if table != GOLDEN.get(workload):
        # The whole entry, ready to paste into GOLDEN.
        entries = [f'        "{key}": "{digest}",' for key, digest in table.items()]
        print(f'    "{workload}": {{', *entries, "    },", sep="\n")
    assert table == GOLDEN.get(workload)
