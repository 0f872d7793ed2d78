"""Golden command-line bytes.

Each entry runs one argv through ``cli.main`` in-process and compares the
exit code and the sha256 of stdout with values recorded before the
lattice layer moved to one fraction-free elimination.  Output bytes are
part of the contract: a change that alters any of them says so, and why,
and records the new digests.  The spectrum commands run once more through
the disk cache, as a miss and then a hit, so the bytes of a table read
back from a cache entry are pinned too.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from liespec import cli
from liespec.cli import main

# Inline arguments, named so that every argv below is split on spaces.
INLINE = {
    "METRIC": '{"group":"A2","embedding":"a1-in-a2-standard","t":"1","t_i":["1/2"]}',
    "BASIS": '{"basis":[["2","1","0"],["0","3/2","1/3"],["1","0","1"]]}',
    "GRAM": '{"gram":[["2","-1","0"],["-1","2","-1"],["0","-1","3/2"]]}',
    "SINGULAR": '{"basis":[["1","2"],["2","4"]]}',
    "NOT_PD": '{"gram":[["1","2"],["2","1"]]}',
    "E8SPEC": '{"factors":["E8"],"scales":["1"]}',
    "E8E8SPEC": '{"factors":["E8","E8"]}',
    "B2METRIC": '{"group":"B2","embedding":"a1xa1-in-b2","t":"1","t_i":["1/2","1/3"]}',
    "F4SPEC": '{"factors":["F4"]}',
    "A4SPEC": '{"factors":["A4"]}',
    # SU(3) x SU(3) over its diagonal center Z3
    "A2Z3SPEC": '{"factors":["A2","A2"],"gamma":[[["1/3","2/3"],["2/3","1/3"]]]}',
    "RANK1": '{"gram":[["3/2"]]}',
    "A1G2SPEC": '{"factors":["A1","G2"],"scales":["1","1/2"]}',
    # rank-deficient restriction rows: validate-embedding reports it
    "BADEMB": '{"ambient":"B2","factors":["A1","A1"],"restriction":[["0","0"],["2","2"]]}',
    # half-integral restriction rows: the adjoint weights restrict to
    # non-integer coordinates, and validate-embedding reports it
    "HALFEMB": '{"ambient":"A2","factors":["A1"],"restriction":[["1/2","1/2"]]}',
    # the E8 Cartan matrix written as a Gram matrix
    "E8GRAM": (
        '{"gram":[["2","0","-1","0","0","0","0","0"],'
        '["0","2","0","-1","0","0","0","0"],'
        '["-1","0","2","-1","0","0","0","0"],'
        '["0","-1","-1","2","-1","0","0","0"],'
        '["0","0","0","-1","2","-1","0","0"],'
        '["0","0","0","0","-1","2","-1","0"],'
        '["0","0","0","0","0","-1","2","-1"],'
        '["0","0","0","0","0","0","-1","2"]]}'
    ),
    # the E6 and E7 Cartan matrices written as Gram matrices
    "E6GRAM": (
        '{"gram":[["2","0","-1","0","0","0"],'
        '["0","2","0","-1","0","0"],'
        '["-1","0","2","-1","0","0"],'
        '["0","-1","-1","2","-1","0"],'
        '["0","0","0","-1","2","-1"],'
        '["0","0","0","0","-1","2"]]}'
    ),
    "E7GRAM": (
        '{"gram":[["2","0","-1","0","0","0","0"],'
        '["0","2","0","-1","0","0","0"],'
        '["-1","0","2","-1","0","0","0"],'
        '["0","-1","-1","2","-1","0","0"],'
        '["0","0","0","-1","2","-1","0"],'
        '["0","0","0","0","-1","2","-1"],'
        '["0","0","0","0","0","-1","2"]]}'
    ),
}

# argv -> (exit code, sha256 of stdout)
GOLDEN = {
    "torus-spectrum --gram identity2 --cutoff 3 --format json": (
        0,
        "0e3a1c466f819a9e251e3552c7887aed08ff4cbbc9559a66ccb5574d35449a28",
    ),
    "torus-spectrum --gram identity2 --cutoff 3 --format csv": (
        0,
        "0b9da25385b3a51d42551c99e0cc089664de765ed1b897896f306c997a9de0f0",
    ),
    "torus-spectrum --gram identity2 --cutoff 3 --format pretty": (
        0,
        "408dfef7844ccf248458f2d237a2c0abd73be0e23f851e270230fe07bb38d967",
    ),
    "torus-spectrum --gram identity2 --cutoff 25/2 --format json": (
        0,
        "3fbe2ca1f061f1a309902cc8deda285d045a961f2a57eef6bb8a9987fe98b7f2",
    ),
    "torus-spectrum --gram identity2 --cutoff 25/2 --format csv": (
        0,
        "8ab50a57f9df05f7c44b81930c60e06ae3c48b9fac0a508c29886a709680d401",
    ),
    "torus-spectrum --gram identity2 --cutoff 25/2 --format pretty": (
        0,
        "fb81e60932248827fb2bd3051fa451636f4aa9829fba3179fce13d24e7c49f20",
    ),
    "torus-spectrum --gram identity3 --cutoff 3 --format json": (
        0,
        "93fb38b7322d4fc91337da76fab721a914b9e6a5bb267dc253bbcd44618e3e9d",
    ),
    "torus-spectrum --gram identity3 --cutoff 3 --format csv": (
        0,
        "a858bd4b31466008bc1a61ca24ee963e7b83e9cb11e7095d4a0eed9a118d1a73",
    ),
    "torus-spectrum --gram identity3 --cutoff 3 --format pretty": (
        0,
        "a12091027612c3901fe77adb40b04cfe2d7f38ede417b6d30d85ef66c49d0ebf",
    ),
    "torus-spectrum --gram identity3 --cutoff 25/2 --format json": (
        0,
        "3b35e6db13e1ec040a15afc2b2e7651830d58bed0d795b09245769749a8de7e8",
    ),
    "torus-spectrum --gram identity3 --cutoff 25/2 --format csv": (
        0,
        "3894790e42921ec30330e46f4f291c6c5627d0b095f31ea898763c91ccde83d3",
    ),
    "torus-spectrum --gram identity3 --cutoff 25/2 --format pretty": (
        0,
        "ba8a3688b98cfee09bc701d492469dbf5117a6be8568389715134c9916cf6277",
    ),
    "torus-spectrum --gram identity4 --cutoff 3 --format json": (
        0,
        "80e6ee9e9e0bb8dfda62f5d51d22f609a95a1b990984cb29a72d60c6c9297041",
    ),
    "torus-spectrum --gram identity4 --cutoff 3 --format csv": (
        0,
        "588969ea9b4c95c614541f99c46c5efe0b9581529b8a4784e20d39a58fa44cda",
    ),
    "torus-spectrum --gram identity4 --cutoff 3 --format pretty": (
        0,
        "bc4d5b1b0080d8010b22e496cc69482d69c30b4c2e66de0886ed888fecd60cf4",
    ),
    "torus-spectrum --gram identity4 --cutoff 25/2 --format json": (
        0,
        "f4dad5723f0f2105c2391b280abd1555b392e0b01177bfedfe05825e8be432e6",
    ),
    "torus-spectrum --gram identity4 --cutoff 25/2 --format csv": (
        0,
        "a49fdbe87942ed9249401c6eaa61b57639368165369b3d4a6db879826e0117d3",
    ),
    "torus-spectrum --gram identity4 --cutoff 25/2 --format pretty": (
        0,
        "93f5415a6d5a3f718b7f610d755403284aac8dc48aecb47a168bdd788f41a921",
    ),
    "torus-spectrum --gram hexagonal --cutoff 3 --format json": (
        0,
        "25613f5e3e723536f9114daabd135a1e7a5a3f7acd424a6b0aedb9b9e066c867",
    ),
    "torus-spectrum --gram hexagonal --cutoff 3 --format csv": (
        0,
        "3da34e7fb52afaa30fe978dd13c9cb13303413db2b0de6212604224d94c004de",
    ),
    "torus-spectrum --gram hexagonal --cutoff 3 --format pretty": (
        0,
        "f30b13ffca16f129b86a7a64ae1a822d87c02b96637f6e3de75ae79b45e819dc",
    ),
    "torus-spectrum --gram hexagonal --cutoff 25/2 --format json": (
        0,
        "c482f72712f7b1811f91a9abc66fe2ec136e4646a6b44478f0b81938523708a3",
    ),
    "torus-spectrum --gram hexagonal --cutoff 25/2 --format csv": (
        0,
        "0d298f26b5e71b94d54690b9d8d3377caec52800c9433aea8ac64378e0114899",
    ),
    "torus-spectrum --gram hexagonal --cutoff 25/2 --format pretty": (
        0,
        "c98839cfa69fa670fe91c74a7d04ae0d45d63a91b5bfce06daad6ec81bd40dce",
    ),
    "torus-spectrum --gram BASIS --cutoff 3 --format json": (
        0,
        "915324ca01633b0c7af79f2e1cda90bc9513315645821a709122ed149bde2416",
    ),
    "torus-spectrum --gram BASIS --cutoff 3 --format csv": (
        0,
        "03e08bb6495e1c05874b00d0f04d4adac9149937f5167163e02164f8456a3acd",
    ),
    "torus-spectrum --gram BASIS --cutoff 3 --format pretty": (
        0,
        "713f0d5bc7b785be8c19cc5c9552dc18ecbe32fe4afee165fe0bc52e047fb5a4",
    ),
    "torus-spectrum --gram BASIS --cutoff 25/2 --format json": (
        0,
        "6bd93234f2eee111d06881d8cc5a3a325c52998d639f1a99385e22f2cb266f78",
    ),
    "torus-spectrum --gram BASIS --cutoff 25/2 --format csv": (
        0,
        "0acd4532a986496c0e7cc278e3204d4b1bc65e63d8dddf57568a0658919544ea",
    ),
    "torus-spectrum --gram BASIS --cutoff 25/2 --format pretty": (
        0,
        "a3ae972099467896f0b1d142b8a3964377b85aa2c5f3fa7b6863001e56be5b00",
    ),
    "torus-spectrum --gram GRAM --cutoff 3 --format json": (
        0,
        "061b0e98dfa860e2faf38f02813fb00ad1c47e900d60c137a4d1c44960fe9d86",
    ),
    "torus-spectrum --gram GRAM --cutoff 3 --format csv": (
        0,
        "d8c1ed72d1e861a8c7d8d1b28b1997a7c948750aafd8691353c219d38ac3685b",
    ),
    "torus-spectrum --gram GRAM --cutoff 3 --format pretty": (
        0,
        "3d1ae26db27c6845c3650ca4587ce3c75f03f3dceef2b28e40f22d0d0573c8f1",
    ),
    "torus-spectrum --gram GRAM --cutoff 25/2 --format json": (
        0,
        "c22d79d45ae4c5703f6fc8da6f40007df4fd596995109540b6bf2a42e0bb549d",
    ),
    "torus-spectrum --gram GRAM --cutoff 25/2 --format csv": (
        0,
        "7a13d05de1a1f96be0781c11e1bf6445ba6dba67373ebf615972a1b574c69abe",
    ),
    "torus-spectrum --gram GRAM --cutoff 25/2 --format pretty": (
        0,
        "f366607b72718e64915733cf6cce3b795be08ec45057fc1976daa3c5a003c5a6",
    ),
    # a 1-D form, which the kernel pads to 2-D: the norms 2k^2/3, k = 1..4
    "torus-spectrum --gram RANK1 --cutoff 25/2": (
        0,
        "7ff1e74e98f294cd3dbb4bded3cab0db921b9216184d0f30d4e353566c3063c0",
    ),
    # the kernel at a large bound: 46,813 entries of a rational dim-3 basis
    "torus-spectrum --gram BASIS --cutoff 1500": (
        0,
        "80228d27185afd079da85527043bf14aaee876794f490582401300fee22da9dd",
    ),
    # the dimension-8 dual path past the benchmark's cutoff 6: the E8
    # lattice's theta series 1, 240, 2160, 6720, 17520, 30240
    "torus-spectrum --gram E8GRAM --cutoff 10": (
        0,
        "2ec2e261f6d8d916511f8a78f699c1fa5b1cc59e0ebea5bf231899ffb6a6aecf",
    ),
    # dimensions 6 and 7, where the kernel's level-2 step carries tails of
    # length 3 and 4: the dual theta series of E6 (54 at 4/3) and E7 (56 at
    # 3/2) up to 8
    "torus-spectrum --gram E6GRAM --cutoff 8": (
        0,
        "a2221b8c4d53fa7238d33d71219f47c15cda7629442d774dbc87354f344dd646",
    ),
    "torus-spectrum --gram E7GRAM --cutoff 8": (
        0,
        "b07fae97fcf2395586cef66049759ce86f87c9cc20b09f018fbe7b271fe02aa1",
    ),
    "gamma --gram hexagonal": (
        0,
        "beda30913c809861f7e702418253c4c91b22abbe14bfdc8808a19f001da6115b",
    ),
    "gamma --gram BASIS": (
        0,
        "ddad4330504f96072cb170cf87692b712937b657b6e3ec01d442358ce12cb3c0",
    ),
    "gamma --gram GRAM": (
        0,
        "a2ea9a2d86fec23931cc1b28c6d3c23eef29f41e8db176cb6036b0b389593b0b",
    ),
    "torus-search --values 1,2 --dim 2 --lambda-min 1/2 --vol-min 1/2": (
        0,
        "ed3cf7f2b127aad5c574f66428d51bda097867c9c4b3ec350af998b68a647739",
    ),
    # 272 dual candidates reach the congruence test, 14 are kept
    "torus-search --values 1,2,3 --dim 3 --lambda-min 1/2 --vol-min 1/2": (
        0,
        "0e40ec94e518b2cab69c98705c3eb2ed4c0d71d7a082e6448b1b809b30b777ad",
    ),
    # dimension 4: 7 tori kept
    "torus-search --values 1,2 --dim 4 --lambda-min 1/2 --vol-min 1/2": (
        0,
        "5d2d7dcdc8d8429aa90feec79ddad5e442a2f89abde5498810d7ac5f47908a69",
    ),
    # non-integer values: 17 tori kept
    "torus-search --values 1/2,1,3/2 --dim 3 --lambda-min 1/4 --vol-min 1/4": (
        0,
        "345705a7b631fa6421f0a1ce31acb83803de2c17c0bab67fe1d51477955d88cf",
    ),
    "group-spectrum --spec su3 --cutoff 4": (
        0,
        "c227a13bb041d813a9c86a5f5402efbf4718744789a0aaafda525b1e33d15800",
    ),
    # the heavy tier: 56,165 dominant weights of E8 walked in one table
    "group-spectrum --spec E8SPEC --cutoff 40": (
        0,
        "12a2806096d5cc3a4e0eff53195a04af4d8c870632e277b4a33f62e5c59d4463",
    ),
    # the walk on a non-simply-laced type and on a classical one
    "group-spectrum --spec F4SPEC --cutoff 60": (
        0,
        "f8d3361d01139756501a0e6b4aa674b2e45ba5e0cb39b878f5c60bfbc5e106cf",
    ),
    "group-spectrum --spec A4SPEC --cutoff 60": (
        0,
        "548b3646c7d0a4847118fd76d13186feb6c5eeb58aa6f68666e58aa5eccaef48",
    ),
    # a product group: E8 x E8, each factor walked up to the full cutoff
    "group-spectrum --spec E8E8SPEC --cutoff 16": (
        0,
        "bafa68697c9b50d5be8525e3a4658dfe65d223d5322f164cc3d6aa2eb46f5292",
    ),
    # a large Gamma-quotient: 212 entries, folded over three classes
    "group-spectrum --spec A2Z3SPEC --cutoff 40": (
        0,
        "c51f0bd9578e70bcdf8c6dd25eb91dbf432ac5ebaa778955c1a6f086c10d86d6",
    ),
    "natred-spectrum --metric METRIC --cutoff 3": (
        0,
        "e9481be7cf210c09cc8c2bfff1aea41a25461b3b54456cc5283f4dfa77723b7f",
    ),
    # the heavy catalogue: every branching of A1xA1<B2 up to Casimir 80
    "natred-spectrum --metric B2METRIC --cutoff 80": (
        0,
        "71294a463579992d56a19cab6d6d0ff170cdfeafa8a8c2c8f36b0bb4c6ef2448",
    ),
    "scan --metric METRIC --radius 1/10 --steps 3 --cutoff 2": (
        0,
        "4b9d2c397697f45a01859192c93163cb491f1aaf4f56fb401d0c8b41542838ba",
    ),
    # one weight asked for alone: the peel's path, not the recursion's
    "branch --embedding a1xa1-in-b2 --weight 40,40": (
        0,
        "5878be5135378fb71dcb69e50f89bf2f754e975e22de4d7bbb5143148a379884",
    ),
    # every report command in csv and pretty, and in json where no line
    # above pins it
    "branch --embedding a1xa1-in-b2 --weight 2,1 --format json": (
        0,
        "505e9c290af753090f6eefd08e1c0c84d38e0bd0e12aa49e09f79b9b8f25dafa",
    ),
    "branch --embedding a1xa1-in-b2 --weight 2,1 --format csv": (
        0,
        "b57171a7fc4591f81ae4fbfd10971d63a155fb75d4f290adc4980bd1c3f59c3b",
    ),
    "branch --embedding a1xa1-in-b2 --weight 2,1 --format pretty": (
        0,
        "ac4ef983b8e0cc87dab60133c83873ade5f0339da461ca5630fde3e58f086302",
    ),
    "gamma --gram hexagonal --format csv": (
        0,
        "4e28e33bef331f7eec0e72f529bd5b02b4c7c3ce5faf675e3ad928a2390bd3a5",
    ),
    "gamma --gram hexagonal --format pretty": (
        0,
        "190e0667ac16f8dc139b012a3bf4f492dde7477f2096d98bf57d78d22368db49",
    ),
    "gamma --spec A1G2SPEC --format json": (
        0,
        "ad0016413b653e95214c9032d94520757ed095ffd3188c56478a6f511930b42b",
    ),
    "gamma --spec A1G2SPEC --format csv": (
        0,
        "93fccca96903d52c78686fe7d6ccd207db281020ba7f4ddf21ad02f084c8fa6c",
    ),
    "gamma --spec A1G2SPEC --format pretty": (
        0,
        "e24a15c01dc952e535881c60efb9f2ada879d29c791128ab9234933ff5936204",
    ),
    "scan --metric METRIC --radius 1/10 --steps 3 --cutoff 2 --format csv": (
        0,
        "d621055d23d972d18a0bc03baee617a33197b2f3fad0f5f35236b234af44f473",
    ),
    "scan --metric METRIC --radius 1/10 --steps 3 --cutoff 2 --format pretty": (
        0,
        "720de7f3bedfcf33605ce647364d768b79c274ffc7b4bce421e504d10d308783",
    ),
    "torus-search --values 1,2 --dim 2 --lambda-min 1/2 --vol-min 1/2 --format csv": (
        0,
        "8792f4e585766dfe3b5706fce8a6c6b05bee3df9c73488cf95675e1e1a5498aa",
    ),
    "torus-search --values 1,2 --dim 2 --lambda-min 1/2 --vol-min 1/2 --format pretty": (
        0,
        "62e5643a57f1fe9b3341358e6f6f19f63b80e7db616050b1a179ae1925f94ec4",
    ),
    "window --lambda1 2 --vol 1/3 --dim 3 --const 5 --format json": (
        0,
        "c8bdf05bee988349e4ecbe2d707aa4bad80d9819e8ef217a07b3862e00664f8c",
    ),
    "window --lambda1 2 --vol 1/3 --dim 3 --const 5 --format csv": (
        0,
        "1abb5c6d1b9953f60f5eece6d8919d62e4581993329daa4e02abe179920deb1e",
    ),
    "window --lambda1 2 --vol 1/3 --dim 3 --const 5 --format pretty": (
        0,
        "683cf98fd0b92e75130db32163e922583132bbf89000a04c34aa1a42ae0378a4",
    ),
    # each report lists the peel of the adjoint and of every fundamental
    # weight as its own check, then whether each factor's adjoint is a
    # K-type of the adjoint's branching
    "validate-embedding --embedding a1xa1-in-b2 --format json": (
        0,
        "81a00e45e7ff9c0a3b94ab2369077622c0e7accb9d5daf3cf23fba07963046cd",
    ),
    "validate-embedding --embedding a1xa1-in-b2 --format csv": (
        0,
        "5c696bd7bb187d736a736b5d3619ffc540447bdcf54d84082f4e828c281befae",
    ),
    "validate-embedding --embedding a1xa1-in-b2 --format pretty": (
        0,
        "893104be17d8debf9a2eabe7b35e75d778609426fdefd413183f63eba21028a8",
    ),
    "validate-embedding --embedding BADEMB --format json": (
        0,
        "e7b561e9049f15c93059be6e92b6c1f52496a93b0ac00dcd1248792010ed4792",
    ),
    "validate-embedding --embedding BADEMB --format csv": (
        0,
        "511d7a495b3da33c1c2375ed7acb0f7221207f3fb0f8321c25ef3c42046b1e5c",
    ),
    "validate-embedding --embedding BADEMB --format pretty": (
        0,
        "42100991581509bd5a3ba042135037570910884f5221e64f7828a3191796717d",
    ),
    "validate-embedding --embedding HALFEMB --format json": (
        0,
        "221ec05985444eb275905b9d7039c2cf4433fdf7307f4165c7f280fd1f9adfe2",
    ),
    "validate-embedding --embedding HALFEMB --format csv": (
        0,
        "69d014446dc9c0951e5efe2c31d29e708255a9eee2c29e32797e8ee07ec157ae",
    ),
    "validate-embedding --embedding HALFEMB --format pretty": (
        0,
        "948145dab6009a09e3deb74621fa7934cb48ab30aca848184c563883ce3ae672",
    ),
    "torus-spectrum --gram SINGULAR --cutoff 1": (
        2,
        "4039359d9c0a68de00984a0e05466ca341408c74995511dd817c22d70c5e5602",
    ),
    "torus-spectrum --gram NOT_PD --cutoff 1": (
        2,
        "4039359d9c0a68de00984a0e05466ca341408c74995511dd817c22d70c5e5602",
    ),
}


def test_cli_bytes_match_golden_digests(capsys, monkeypatch):
    monkeypatch.delenv("LIESPEC_CACHE_DIR", raising=False)
    seen = {}
    for line in GOLDEN:
        code = main([INLINE.get(word, word) for word in line.split(" ")])
        out = capsys.readouterr().out
        seen[line] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert seen == GOLDEN


SPECTRUM_COMMANDS = ("torus-spectrum", "group-spectrum", "natred-spectrum")


def test_cached_cli_bytes_match_golden_digests(capsys, monkeypatch, tmp_path):
    lines = [a for a in GOLDEN if a.split(" ")[0] in SPECTRUM_COMMANDS]
    assert len(lines) == 51
    for i, line in enumerate(lines):
        cache = tmp_path / str(i)  # one cache per command: a miss, then a hit
        monkeypatch.setenv("LIESPEC_CACHE_DIR", str(cache))
        argv = [INLINE.get(word, word) for word in line.split(" ")]
        stored = []
        for run in ("miss", "hit"):
            code = main(argv)
            out = capsys.readouterr().out
            seen = (code, hashlib.sha256(out.encode()).hexdigest())
            assert seen == GOLDEN[line], (line, run)
            # a rewritten entry is a new file, so a hit keeps the inode
            stored.append(
                {f.name: f.stat().st_ino for f in cache.iterdir()}
                if cache.exists()
                else {}
            )
        assert len(stored[0]) == (1 if code == 0 else 0), line
        assert stored[1] == stored[0], line


# Runs several subcommands, a usage error among them, through one fresh
# process's main; prints what each returned and how many parsers were
# built, at import and in all.
_ONE_PROCESS_SCRIPT = """
import contextlib, hashlib, io, json
import liespec.cli as cli
from test_golden import GOLDEN, INLINE

at_import = cli._build_parser.cache_info().currsize
seen = {}
for line in LINES:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([INLINE.get(word, word) for word in line.split(" ")])
    seen[line] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
print(json.dumps({"at_import": at_import, "seen": seen,
                  "builds": cli._build_parser.cache_info().misses}))
"""


def test_one_process_builds_one_parser_per_command():
    lines = [
        "group-spectrum --spec su3 --cutoff 4",
        "torus-spectrum --gram hexagonal --cutoff 3 --format csv",
        "torus-spectrum --gram SINGULAR --cutoff 1",
        "gamma --gram BASIS",
        "natred-spectrum --metric METRIC --cutoff 3",
        "torus-spectrum --gram identity2",  # no --cutoff: a usage error
        "torus-search --values 1,2 --dim 2 --lambda-min 1/2 --vol-min 1/2",
        "scan --metric METRIC --radius 1/10 --steps 3 --cutoff 2",
        "torus-spectrum --gram GRAM --cutoff 25/2 --format pretty",
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("LIESPEC_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", f"LINES = {lines!r}\n" + _ONE_PROCESS_SCRIPT],
        env=env, capture_output=True, check=True, text=True,
    )
    result = json.loads(proc.stdout)
    # one parser per distinct command, each with that subparser alone
    assert result["at_import"] == 0
    assert result["builds"] == len({line.split(" ")[0] for line in lines})
    assert result["builds"] == 6
    usage = result["seen"].pop("torus-spectrum --gram identity2")
    assert usage[0] == 1
    assert {k: tuple(v) for k, v in result["seen"].items()} == {
        line: GOLDEN[line] for line in lines if line in GOLDEN
    }
    assert len(result["seen"]) == len(lines) - 1


COMMANDS = (
    "torus-spectrum", "group-spectrum", "natred-spectrum", "branch", "gamma",
    "scan", "torus-search", "window", "validate-embedding",
)

# argv -> (exit code, sha256 of stdout) for help and usage errors, taken with
# all nine subparsers built, at COLUMNS=80 on CPython 3.11; --help and -h
# exit through SystemExit
PARSER_GOLDEN = {
    "--help": (
        0,
        "1644aa80edfbce34b16e9c9d09492bca4887c7cd38372141ed5ae944e424e326",
    ),
    "-h": (
        0,
        "1644aa80edfbce34b16e9c9d09492bca4887c7cd38372141ed5ae944e424e326",
    ),
    "": (
        1,
        "2da4b5132eda36d3dc656fdb92f98e57a14be094a6fe18695ba59a88b9b23e98",
    ),
    "nonsense": (
        1,
        "9c06c3409f20f98527173133a6a7244ef0b927e24a949a9808e136a16a993163",
    ),
    "torus-spectrum --help": (
        0,
        "cbda47e14a4c806879c8ed204455641366ea1ce2e2bd4cc11676451a0f85c65f",
    ),
    "group-spectrum --help": (
        0,
        "3d36b45961c87b711a5de8473d493938e4325d3d7b01b695f5ce30bfb1f02d46",
    ),
    "natred-spectrum --help": (
        0,
        "8c8d56f1f070cfb0d65939a0c7a0a7f1392fee5e90fcff1b2a47a1bd0d7b5ba8",
    ),
    "branch --help": (
        0,
        "cee3d84a244dce2d662e9ab1f84e890c684ff926177f38b0a9c1624c364d8d05",
    ),
    "gamma --help": (
        0,
        "6ece9dab73bdee591691792b85b813ad112627e979730d32e11d7b9918fd5f22",
    ),
    "scan --help": (
        0,
        "6f95f32bf289ed71c3c7841c9dba533fbc1bc0a78ffa6467a1d858eef3dbbb7d",
    ),
    "torus-search --help": (
        0,
        "9af3ae463dd8734a3a74fca9d9ee6ef3ab19c008f6e355663a6830fd170437b3",
    ),
    "window --help": (
        0,
        "e25b636ba95f9f138e41dbe80c20504256efa195db020274dd947b52bd0682ff",
    ),
    "validate-embedding --help": (
        0,
        "ce9a1ed0f17bf2a6c9bab7ff3cdba7af663285376a02aaffcff365151c570c9c",
    ),
    # a missing flag, an unknown flag, a bad --format, two exclusive flags
    "torus-spectrum --gram identity2": (
        1,
        "db493f84d14fa1016837870b717e0cb6254109f849dcb18f61b4bb4da701a042",
    ),
    "torus-spectrum --gram identity2 --cutoff 3 --threads 2": (
        1,
        "fe3e6dd7ad657d27784c58cd132aab40e79323caff27e83b341f8069e3dc0a60",
    ),
    "torus-spectrum --gram identity2 --cutoff 3 --format xml": (
        1,
        "997cd4845aa7fd09283c19afe185fbd7aa6b2f35dacf544ea481c0cb2df85701",
    ),
    "gamma --gram identity2 --spec su3": (
        1,
        "259411bf3efc4cfaf94c33b1281c22f8073c0fcef456667e421add80d4c76a95",
    ),
}


def _main_digest(capsys, line):
    """(exit code, sha256 of stdout) of main on the words of ``line``."""
    try:
        code = main(line.split(" ") if line else [])
    except SystemExit as exc:  # --help
        code = exc.code
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LIESPEC_CACHE_DIR", raising=False)
    seen = {line: _main_digest(capsys, line) for line in PARSER_GOLDEN}
    assert {f"{c} --help" for c in COMMANDS} <= set(seen)
    if sys.version_info[:2] == (3, 11):
        # argparse words its help and its errors differently on other
        # versions; the comparison below holds on all of them
        assert seen == PARSER_GOLDEN
    # a named command's parser holds that subparser alone, and prints what
    # the parser of all nine prints
    with pytest.raises(argparse.ArgumentError):
        cli._build_parser("gamma").parse_args(["window", "--help"])
    full = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full)
    assert {line: _main_digest(capsys, line) for line in PARSER_GOLDEN} == seen
