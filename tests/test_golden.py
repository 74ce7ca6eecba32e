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
        "p0/compare/acquire": "02646399e50298fe835317919441cedc110d2ede38785a4e866924d91b6a32e8",
        "p0/compare/merge": "616963c3c386809ebf91c6f33293c2624f0db94f84fe3fd6864059cb55797ee6",
        "p0/merge/acquire": "f882f8bd14273e8bc7ff25e392f8e91ca821fadf27375ccce305c8aaba140019",
        "p0/merge/merge": "aafcd031b80f036b8e0ade1a76a8b1af52da07aa7a51b43a3dbb07cf36010017",
        "p1/compare/acquire": "2e6b7caaba6f59251c9665c510d809f4e0e936c14c42e4d7ac404afbade584fd",
        "p1/compare/merge": "c9f34a0b2010d5a7c96b0988ce17a91606ccc22916f10b1960b6692d6fa23125",
        "p1/merge/acquire": "e39aa27a5c4c21bf10297088a112ef2d5ac2d85e16ab8a56decda1072cb53b58",
        "p1/merge/merge": "1f5888243ca0906a73aaf234a54f62fd118234dc090ea2635e4bc87f38dd1767",
        "p2/compare/acquire": "efcfb0de84cd4e7733a32b20cf11c8d681323eb5b4827fc00587ff276b93987d",
        "p2/compare/merge": "18332dc8ea3606361ee0ac0ee9ecba0f3cec71baf1528e77fdbf20da343bacc0",
        "p2/merge/acquire": "0c19eebc61a1714ff96760509a8dc99da6e9e729cf706ba65839f9968356424d",
        "p2/merge/merge": "28fb3116205e8359812207f23e04f821e6d4d7f6a508c01b522cab7693552aea",
        "p3/compare/acquire": "4cc7273f34bc5537612bff602bbdc8a5799a4fa6afc89f9cc6a3e1ce1c987e1a",
        "p3/compare/merge": "328edfde665cc13ce23da897dd22adcec10dfcec37ef398b0f2e89a91dfa159e",
        "p3/merge/acquire": "fa7f26d95309600832497dcfc6aa5c9f8d6fd7afb31499c62dc6d9afed80a095",
        "p3/merge/merge": "8fabe9ab5fbd1db3066d56ca771f34df43acd8e04c9c992f6fffcbf400c76947",
    },
    "rfc3647": {
        "p0/compare/acquire": "7076f4eb01c26636e27f2ad473ba6bd5d8a7ca3008dc0939b16fbf3b2820a884",
        "p0/compare/merge": "fb246f1837c0adc231e7a98db6334e8d7a8ee011344f3bb0e412e4926d59dc31",
        "p0/merge/acquire": "dd47fbf4a2f222827e8dea60045450f1be3c7c9f996c56b56aec30186eefcc98",
        "p0/merge/merge": "a6fc2e0332689bcf245ea978db1957366af38f4fe280abc2913e2d4d71b63cf0",
        "p1/compare/acquire": "1c109864538a8f992e9fecf2440c014349762189abe1236e590e3c252b1d76ee",
        "p1/compare/merge": "4c16fb763fbdbc0ca36acfd352523b2326667a9b6b9cb204ae6365eae806ca19",
        "p1/merge/acquire": "643d2133fbb6fcdba00b7a308a6ac274ce4c683d2192ccaa25c1bbc6fb4a1a9f",
        "p1/merge/merge": "ca0e2f0e50e4cb0670708abbd7909486188d7be424a563faa04df4c0a1be7fc6",
        "p2/compare/acquire": "35b0726c6483e9950cc7b9dea077ec089a71d5d5648fa9d76bfb3a90ed2fcee2",
        "p2/compare/merge": "d9b005e6aef2a759d54c698da57ab134cf24dc47adc9b0d59361dcbaebd7e282",
        "p2/merge/acquire": "a46ef29dc8501af75af61273f28ba1917c57b8078926833fa5ec4eb60c1d653f",
        "p2/merge/merge": "089469f920fc80f26ab60b8769a5396f45cf6c44267cc92b08f6bf47cea87256",
        "p3/compare/acquire": "c9c85c4c2f63fa9193f75b899adb89a971b7ad307edc6cd4c9986e6eac0e50b2",
        "p3/compare/merge": "d9809e0d0720bdde64cc64c935244951e6acfc730f61ef9980646bd09681df4c",
        "p3/merge/acquire": "830168b226436be8b54ffae3a2d744bdb9b4bbe939c4f887c74c3d332722e66c",
        "p3/merge/merge": "3e98cfc608bea92a7164c1546bdde86dfbb4c26a19a503610014981802444663",
        "p4/compare/acquire": "373724b09e101ec07bba79bd0e9cf52e1a12d88fc4f432ec2c5c36e08304da95",
        "p4/compare/merge": "0830812db3fa40a5074b3e37822b2b9b3fb4d78a1dafef587b524c74d40dafed",
        "p4/merge/acquire": "7414bcf93aa64abbf7d599e68d71830c4c319b7e3783e99f3121672cf5d75f36",
        "p4/merge/merge": "539200f215216d6d7d60247093ddc2cfca985d62260752ee729590f2a76afe40",
        "p5/compare/acquire": "d234f003dc6edde0c2e17729ee4d1d0b45a75260426e5c80cd2a7f061608215f",
        "p5/compare/merge": "ce9807e37259788ad18267037bece3cb5828ba823a19d3115ee1d940c6416fe5",
        "p5/merge/acquire": "bc8f76a531d3c6b88c89ba0ac3bc2ad364fb747bdb8a54ab3209d60815650fd6",
        "p5/merge/merge": "8e2811b3aec2c1691c81a0618c0df762ccb47090cbee1ce7e6a8192d5aeca7f8",
        "p6/compare/acquire": "347636c761fe6edb9ee0778c3841a8357191dee0da46de84dca28ee0a366cbd3",
        "p6/compare/merge": "5d7bcf349fa3074e6ad992a055c2696b9453c682fa98738b393252186444e35b",
        "p6/merge/acquire": "2465ea21e223ce5c91ba0398eb18855f44f67195fe86aaebc5b98c204d5e6227",
        "p6/merge/merge": "5bc882f2f6d597612ffb337bdea2ff44d3c621044b90ea4fac78cf6958d2f470",
        "p7/compare/acquire": "1df380ce9ab368449205c3d79efcbe8dad9c893312291e0b3ce869571fb77eec",
        "p7/compare/merge": "c03901edb341a75942a46befd72bdb3e9e55447502cee3407d9e1d11ee4bb7a5",
        "p7/merge/acquire": "247450767c7e1448957206ca515f7d9676c9cd5503ec788b34c8269c21e6aee9",
        "p7/merge/merge": "c5d647892b6beae6590d5f2423337fce2de61a3bf223a45379f9aafa12c60944",
    },
    "wide": {
        "p0/compare/acquire": "f6afb20bc1f50410f37cf660fc6eb1246877b024a3addbf91dc877979620a6e8",
        "p0/compare/merge": "a3653241a25ae91a2d053c83f3cd45f15f9b3a3d730313cdc15ad169d5a63952",
        "p0/merge/acquire": "8d4b35b6ea43e38bf42383c6e8b9bed7f070a119d74ac283cf556ef1110a9117",
        "p0/merge/merge": "ba4132ba15f36a4d71ddb0ec1748d07e83c3cfae921cb9db27f0f5532e784953",
        "p1/compare/acquire": "0a6f9571e2f755eb7d67e4a9ebb19385726f99c2cca9e02c6a0b6ccbfe6312b4",
        "p1/compare/merge": "d607b8b2ae0c2269d4933940e6581dc77f8f2e018105dbc00e07650ac0bcd9a9",
        "p1/merge/acquire": "8d053c5c705f614dc8255ad2e50f966df635468c31de9245856f132e227280b1",
        "p1/merge/merge": "0c639f6765e82390abb639023ffd6a4b81f22402000b7c5bb4b5efc0c3f8d49d",
        "p2/compare/acquire": "0585c51f3e85ea7d3640f6c7f691c0a1a7b19a65c4ffb505c278695ac68c9a41",
        "p2/compare/merge": "1947d8887e2bc04adc4fec0777f326154cc9c38f08e81c39745374692b5339e6",
        "p2/merge/acquire": "beb9111b942d4a28a830adbefd898b53c713c0832975a6a89c29956dd6013370",
        "p2/merge/merge": "8b6bb58a31b4233ba89502c97716552cea3825e6abbceba8ca06c6d4eef109bf",
        "p3/compare/acquire": "dd834da4088fed290de3d1bbe211c71ad43a0221ef0f857ce7c0e42373a13ec6",
        "p3/compare/merge": "50f1ef2c6723ac79ab2292fdbce6224dea5945d7179a6a579d150b4f68d3c07c",
        "p3/merge/acquire": "e6dbaeaead20d46dfa713b2bfd3ceddbe742f3a36aaefc616a7f93131ae34741",
        "p3/merge/merge": "b82fd28510b46373bd15dcb5c41e56304824fe287963bb3ce93a33d7fca217a2",
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
