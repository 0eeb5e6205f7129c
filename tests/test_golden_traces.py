"""Golden traces: the JSONL bytes of every runnable bundle scenario.

``docs/trace-format.md`` promises that trace bytes stay fixed for a
given (model, config).  Each runnable sidecar scenario of the four
bundles (every one not expected to be a checker violation) is run at
seeds 0-4 and the sha256 of ``format_trace`` compared with the digest
recorded here.  So is each of ``successor_fixtures``, the ways a
completed step enters its successor or a delivery finds its receive,
as scenario None and ``"CH"`` with horizon 60.  A digest only changes when the trace format or the
simulation semantics change on purpose; then regenerate the table.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from fmaf.casestudy import BUNDLE_NAMES, load_bundle
from fmaf.simulator import SimConfig, format_trace, run

from _builders import successor_fixtures

SEEDS = range(5)

GOLDEN = {
    ("nominal", "nominal", 0): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 1): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 2): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 3): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("nominal", "nominal", 4): "252a9647913806f1d29ebb57e236d1088a8bc15df0a09f5364ce30b2caac6f14",
    ("fault1", "F1", 0): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 1): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 2): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 3): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1", 4): "f51af1dcd2609be3ff731e2902f58b2d2bce2d1c0c6520217d66ca58a1a14dd4",
    ("fault1", "F1.eru-only", 0): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 1): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 2): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 3): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault1", "F1.eru-only", 4): "8dd5fe69bcbd4308a50e753b54642f0e50a3cd04ace84e53fc9010f65e1453bb",
    ("fault2", "F2.1", 0): "78058f219b3ca6e2c45838d9cd207ea7550b3b5274e543fabda469fe2305f5d6",
    ("fault2", "F2.1", 1): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.1", 2): "78058f219b3ca6e2c45838d9cd207ea7550b3b5274e543fabda469fe2305f5d6",
    ("fault2", "F2.1", 3): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.1", 4): "e0c99b4d607dc711bd7a5b0cab339451809888dfd03836fd55d2a471105b7883",
    ("fault2", "F2.2", 0): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 1): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 2): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 3): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.2", 4): "ef15c8228a05ab54110e4a7dc010153021d2f887219c7ae16cd4d4a5e0635dc6",
    ("fault2", "F2.3", 0): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 1): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 2): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 3): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault2", "F2.3", 4): "2290a7f9f43db5247d108fa719ef681e8218b95907054ab4e8882796d531db37",
    ("fault3", "F3.2", 0): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 1): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 2): "961a10663843eae4ad7055dd8167f38d3321189ca750de0c2d8e73690b69f10b",
    ("fault3", "F3.2", 3): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.2", 4): "7e6170d0db90af0f231f43b99613f7f6a7b135db56d995d773edbdae5b2ff836",
    ("fault3", "F3.3", 0): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 1): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 2): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 3): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.3", 4): "75bd463dd1a0b0170df70148e41fb5120b673ac6e95b63b9286ba86c56bb904f",
    ("fault3", "F3.4", 0): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 1): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 2): "efa2f593c4fd0966113085943a9bfc0e03b159bfef0100d5d8a7179b460d9da9",
    ("fault3", "F3.4", 3): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("fault3", "F3.4", 4): "69cd840f253665c0f910cc4524ed642c9ccd766ecf15e62f28b177df999de71d",
    ("race", None, 0): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("race", None, 1): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("race", None, 2): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("race", None, 3): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("race", None, 4): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("race", "CH", 0): "d07ff448d1d9feaf23f4e370f38f7bc2f48cc0cb5c7aa96d5dfca2d6108c9ac9",
    ("race", "CH", 1): "cdda1464b942ecb90defb5f341dd06dbf8da118cb9e404ca4780b5bae98b9e06",
    ("race", "CH", 2): "d07ff448d1d9feaf23f4e370f38f7bc2f48cc0cb5c7aa96d5dfca2d6108c9ac9",
    ("race", "CH", 3): "cdda1464b942ecb90defb5f341dd06dbf8da118cb9e404ca4780b5bae98b9e06",
    ("race", "CH", 4): "cdda1464b942ecb90defb5f341dd06dbf8da118cb9e404ca4780b5bae98b9e06",
    ("coin-race", None, 0): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("coin-race", None, 1): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("coin-race", None, 2): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("coin-race", None, 3): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("coin-race", None, 4): "8c98ba3dd3fda5c506d9bf74de7baa1fffc0b491f56e952310aceee6821e39b3",
    ("coin-race", "CH", 0): "3aba6737f5b31bba4bcfa8b3cc0eab1f0cc7e0ab856b63cdc8e1811c88dfe72a",
    ("coin-race", "CH", 1): "d07ff448d1d9feaf23f4e370f38f7bc2f48cc0cb5c7aa96d5dfca2d6108c9ac9",
    ("coin-race", "CH", 2): "3aba6737f5b31bba4bcfa8b3cc0eab1f0cc7e0ab856b63cdc8e1811c88dfe72a",
    ("coin-race", "CH", 3): "d07ff448d1d9feaf23f4e370f38f7bc2f48cc0cb5c7aa96d5dfca2d6108c9ac9",
    ("coin-race", "CH", 4): "cdda1464b942ecb90defb5f341dd06dbf8da118cb9e404ca4780b5bae98b9e06",
    ("join", None, 0): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("join", None, 1): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("join", None, 2): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("join", None, 3): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("join", None, 4): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("join", "CH", 0): "8e7119c1fd9bdee94a3cacdf375e25698466bd382f00526a19ee8baa6c1a66ec",
    ("join", "CH", 1): "02ed1876f1a8851ff30ea2f9a155acb6d2a337c9de6b4e8e96bdc00c431b9b2d",
    ("join", "CH", 2): "8e7119c1fd9bdee94a3cacdf375e25698466bd382f00526a19ee8baa6c1a66ec",
    ("join", "CH", 3): "02ed1876f1a8851ff30ea2f9a155acb6d2a337c9de6b4e8e96bdc00c431b9b2d",
    ("join", "CH", 4): "02ed1876f1a8851ff30ea2f9a155acb6d2a337c9de6b4e8e96bdc00c431b9b2d",
    ("suspend", None, 0): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("suspend", None, 1): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("suspend", None, 2): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("suspend", None, 3): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("suspend", None, 4): "01d85ffb09fd5f351270eebedd8e7a49395963eca8f1abb66dcb0df21e404561",
    ("suspend", "CH", 0): "2a7f992eef6e2a9550a91100acda221409d0eca1419efbb752ff4cf6645bc670",
    ("suspend", "CH", 1): "bae7f0c9d0e6acbe976aedb049e085656b9140e26b4c41b3c61ff13fc653dcc9",
    ("suspend", "CH", 2): "2a7f992eef6e2a9550a91100acda221409d0eca1419efbb752ff4cf6645bc670",
    ("suspend", "CH", 3): "bae7f0c9d0e6acbe976aedb049e085656b9140e26b4c41b3c61ff13fc653dcc9",
    ("suspend", "CH", 4): "bae7f0c9d0e6acbe976aedb049e085656b9140e26b4c41b3c61ff13fc653dcc9",
    ("receive-waits", None, 0): "93cefef984b1dcbe85158efd831b09e1a106dda15bfbdc5dd9f1d024358662bb",
    ("receive-waits", None, 1): "32f0dd2cfb21c2b8c5bb485c4e0bfeaec7f43299dbbb73b2cee8a7cbdc0cd786",
    ("receive-waits", None, 2): "93cefef984b1dcbe85158efd831b09e1a106dda15bfbdc5dd9f1d024358662bb",
    ("receive-waits", None, 3): "32f0dd2cfb21c2b8c5bb485c4e0bfeaec7f43299dbbb73b2cee8a7cbdc0cd786",
    ("receive-waits", None, 4): "32f0dd2cfb21c2b8c5bb485c4e0bfeaec7f43299dbbb73b2cee8a7cbdc0cd786",
    ("receive-waits", "CH", 0): "2331fe13eb006a34ef06d2c469b31070c13d39bf0f8cc4c5584c08a98c9ba4e8",
    ("receive-waits", "CH", 1): "6a54d625eb75c6d742babc681048db8c8b5bddf678bc78d9997fc1ea82b2221a",
    ("receive-waits", "CH", 2): "2331fe13eb006a34ef06d2c469b31070c13d39bf0f8cc4c5584c08a98c9ba4e8",
    ("receive-waits", "CH", 3): "6a54d625eb75c6d742babc681048db8c8b5bddf678bc78d9997fc1ea82b2221a",
    ("receive-waits", "CH", 4): "6a54d625eb75c6d742babc681048db8c8b5bddf678bc78d9997fc1ea82b2221a",
    ("receive-has-mail", None, 0): "a75a978c4cc24ebe470791307542ca3b85b22f2d43cefe5d6d210d5b15b13fd8",
    ("receive-has-mail", None, 1): "d1de55f07da0f4b2fafd80f11ed847f22ace3255a0654e6e28eb466f600f8749",
    ("receive-has-mail", None, 2): "a75a978c4cc24ebe470791307542ca3b85b22f2d43cefe5d6d210d5b15b13fd8",
    ("receive-has-mail", None, 3): "d1de55f07da0f4b2fafd80f11ed847f22ace3255a0654e6e28eb466f600f8749",
    ("receive-has-mail", None, 4): "d1de55f07da0f4b2fafd80f11ed847f22ace3255a0654e6e28eb466f600f8749",
    ("receive-has-mail", "CH", 0): "50ba332091a32550ac3ff1207ab8f5adf7c2d738227d100b2953bc12bc33c67e",
    ("receive-has-mail", "CH", 1): "0ecb5265d6cb7ad4733f7b9d204831f79897d2387e8b25309aff47312b250a0e",
    ("receive-has-mail", "CH", 2): "50ba332091a32550ac3ff1207ab8f5adf7c2d738227d100b2953bc12bc33c67e",
    ("receive-has-mail", "CH", 3): "0ecb5265d6cb7ad4733f7b9d204831f79897d2387e8b25309aff47312b250a0e",
    ("receive-has-mail", "CH", 4): "0ecb5265d6cb7ad4733f7b9d204831f79897d2387e8b25309aff47312b250a0e",
    ("receive-fork", None, 0): "94928197141a8893af60e3a55763179879f00cf9a7b3485214197e677c10b0be",
    ("receive-fork", None, 1): "9404213f00f2fbc12ac61143fbd9ae4e7d6c7e92183532a871b807d8865f751b",
    ("receive-fork", None, 2): "94928197141a8893af60e3a55763179879f00cf9a7b3485214197e677c10b0be",
    ("receive-fork", None, 3): "39b26df4b20f0c1c323c202084502bca1c23ae9a1efec1d4088732ee3fda5926",
    ("receive-fork", None, 4): "5c8659ca154a293f576738f33fbc6a7417c712ef94226de748931de26e2af4f7",
    ("receive-fork", "CH", 0): "90d401e527a6b01dfb51e6a6669d5e819efd034d142ab1406c394a3c913fd4cb",
    ("receive-fork", "CH", 1): "3a55cf4c65a3536133dee5b744ee35d922491ff444401351c6bdc06ffe1e3cf4",
    ("receive-fork", "CH", 2): "90d401e527a6b01dfb51e6a6669d5e819efd034d142ab1406c394a3c913fd4cb",
    ("receive-fork", "CH", 3): "27e30d1c36800e8137fbadbc409e493e1ab1a59f5790b3365c4f58477f13e8ac",
    ("receive-fork", "CH", 4): "472dbd62ed48814c85751baf0777a764b61ea15ba0e8e03f0859b05ca15eb8b4",
    ("receive-chain", None, 0): "320b811bd130796ccde8aa0eb93d3476385647a5d3b7639ef754dd232c8768dd",
    ("receive-chain", None, 1): "320b811bd130796ccde8aa0eb93d3476385647a5d3b7639ef754dd232c8768dd",
    ("receive-chain", None, 2): "320b811bd130796ccde8aa0eb93d3476385647a5d3b7639ef754dd232c8768dd",
    ("receive-chain", None, 3): "320b811bd130796ccde8aa0eb93d3476385647a5d3b7639ef754dd232c8768dd",
    ("receive-chain", None, 4): "320b811bd130796ccde8aa0eb93d3476385647a5d3b7639ef754dd232c8768dd",
    ("receive-chain", "CH", 0): "66547c098855b4e049a1976d8b699238a32b49831452b9f9a01074453e3949ad",
    ("receive-chain", "CH", 1): "a6f314ba81bd5aa18589f0e8c27363b371a1a2d108b29cdc8e4ae9df25450a8c",
    ("receive-chain", "CH", 2): "66547c098855b4e049a1976d8b699238a32b49831452b9f9a01074453e3949ad",
    ("receive-chain", "CH", 3): "a6f314ba81bd5aa18589f0e8c27363b371a1a2d108b29cdc8e4ae9df25450a8c",
    ("receive-chain", "CH", 4): "a6f314ba81bd5aa18589f0e8c27363b371a1a2d108b29cdc8e4ae9df25450a8c",
}


FIXTURES = successor_fixtures()


def _runnable():
    for name in BUNDLE_NAMES:
        bundle = load_bundle(name)
        for sname in bundle.scenarios:
            if bundle.expected.get(sname, {}).get("outcome") == "checker-violation":
                continue
            yield name, sname
    for name in FIXTURES:
        yield name, None
        yield name, "CH"


RUNNABLE = list(_runnable())


def test_table_covers_every_runnable_scenario():
    assert set(GOLDEN) == {(b, s, seed) for b, s in RUNNABLE for seed in SEEDS}


@pytest.mark.parametrize("bundle_name,scenario", RUNNABLE)
def test_trace_bytes_are_pinned(bundle_name, scenario):
    if bundle_name in FIXTURES:
        model, config = FIXTURES[bundle_name], SimConfig(scenario=scenario, horizon=60)
    else:
        bundle = load_bundle(bundle_name)
        model, config = bundle.model, bundle.scenarios[scenario]
    for seed in SEEDS:
        text = format_trace(run(model, dataclasses.replace(config, seed=seed)))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN[(bundle_name, scenario, seed)], (bundle_name, scenario, seed)
