"""Byte-level pins of every subcommand's stdout, in text and ``--json`` mode.

The digests were recorded from the implementation in which each handler
wrote its JSON record and its text row separately. Any change to how the
command line renders results must reproduce the same bytes. The inputs are
the files of ``demos/data`` plus a few small ones written here (a coloring,
a vertex map, a lengths file, a regular graph, a graph that only a
relaxed plan fits and a uniform 13-label pmf); all are copied into one directory and named by relative
paths, so the manifest's flags line does not depend on where the suite runs. Every ``--json`` document must also be
strict JSON: no ``NaN`` or ``Infinity``.
"""

import hashlib
import io
import json
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from prefixcast.cli import run

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

EXTRA_INPUTS = {
    "network.coloring": "gw hub\nr1 relay\nr2 relay\ns1 leaf\ns2 leaf\ns3 leaf\ns4 leaf\n",
    "swap.map": "gw gw\nr1 r2\nr2 r1\ns1 s3\ns2 s4\ns3 s1\ns4 s2\n",
    "code.lengths": "# one length per line\n1\n2\n3\n3\n",
    "ring.edges": "a b\nb c\nc d\nd a\n",
    # the root has one child, so the code fits only with a leading 0 digit
    "relay.edges": "r a 1\na x 1\na y 2\ny p 1\ny q 1\n",
    # 13 labels at D=11 take two-digit paths, so digit 10 is written dotted
    "u13.pmf": "".join(f"L{i} {1 / 13!r}\n" for i in range(13)),
}

GOSSIP = "gossip --graph network.edges --bs gw --seed 7"
PLAN = "plan-multicast --graph network.edges --pmf importance.pmf --root gw"

# invocation (without --json) -> (sha256 of text stdout, sha256 of --json stdout)
GOLDEN = {
    "kraft --lengths 1,2,3,3": (
        "979931e5e332cf6e34b6842d2af7ab86b2213bffa6da5f71884539d00637c988",
        "a51ac755a1f9ff380f7ac56ea6315c41cf45f3e4e124f4958cf88be4c6c1b61e",
    ),
    "kraft --lengths 1,1,2": (
        "9a36d5cc15b090c0980d723a04c000ee2af02d018e63620d32ee9432beba1d7a",
        "7dedcd61914c08c9a4c4716dcb079b16a78508a717b02e77e775ab72ba1c0771",
    ),
    "kraft --lengths 1,2,3 --check-at 3": (
        "48a208fd0402a73374bc60cbb7d0a8861061ca6cd2ac942a74e3133a177142fc",
        "6b2e20d752f23aab6365d29f9697acab02ec2f25c0c15cbd5749fa9c857173af",
    ),
    "kraft --lengths-file code.lengths --D 3": (
        "a437fcb47f090f7a027a6b6f241750ec551d55c7c85eff3e2fc945541339c1c2",
        "4d1d2e77afae2037f9df78a3c79b446785a8f47a8416b3516ce2e1f704a5720f",
    ),
    "kraft --consecutive 2,3 --D 3": (
        "2601bbc88c9afdc22f622c9235b70b299808f0ba0df087b4731a817b5071c201",
        "a169f851ed4420eb4368ab79c7b1764972a9280570249bc4e11985d030ebd47e",
    ),
    "kraft --progression 1,2,4 --check-at 5": (
        "0dabd933503555e710652e805e69221c3e5d44bff37757d4af6390544ec7b793",
        "90a458ed7fa90456304c6c3647698932ddb5f11de996d7cff163ac366cfb8f5c",
    ),
    "huffman --pmf importance.pmf": (
        "44636cb352493d0b025786424e23508830b7b43af72d22ce0342c06e20ab1e57",
        "5d9d398830313c1e2bab49445c940f12a4d1539997d4ef27a88fb4c8ce92e472",
    ),
    "huffman --pmf importance.pmf --D 3": (
        "891fd56ee2e6bcf6a18bc137222e2e48ec9c452c35138bc5b9421c89b8da69d5",
        "13f11b543662168153e31dc74e8f2bc6a595951dc27f4cdfc49097e105540542",
    ),
    "code-from-lengths --lengths 1,2,2 --labels x,y,z": (
        "c7b76d336cc860f765a8283afab502e939ae6df1b3c65f0366ac88bd8483d767",
        "280e058fd308617ff9ffa775faeb67498415da910d498b24131dd8b9f2bc57c7",
    ),
    "code-from-lengths --lengths-file code.lengths --D 3": (
        "79628a7aefd7fa5a8766324a572f4e05dccc477e7add5a2a9444e758103bd77e",
        "e5122e97d9c89fda957bff9a91c0bbd24696105206961b0aa8dd97d18247f7d7",
    ),
    # rows such as "L0 10.0 2 0.076923" and "10 10.0 2" pin the dotted paths
    "huffman --pmf u13.pmf --D 11": (
        "bd05350cbc78e64d4d86ff556ad8eff9e578491ae5ac7ecee5d0539122323219",
        "522bb98c948d2ae006ef55ec4a9b973879ec8c0f54709ae957d2bee58aafd4b6",
    ),
    "code-from-lengths --lengths 1,1,1,1,1,1,1,1,1,1,2,2 --D 11": (
        "df939de32e7b0bd75f21b9afba7e815bafda164f18c03fa5b91318de2abc302f",
        "eab755e19c7e8e56fcfc2e7e5804ea41e73985f33f65579d5fd40150038a86d4",
    ),
    "entropy --pmf importance.pmf": (
        "749d5005839f4eefa084127cc9669831894ebd39896af094f9b33bd8ca1feec9",
        "ab9953f922ed2d72c163bfe73b969250a060a9d169a8992415b0b680f1b7b880",
    ),
    "entropy --pmf importance.pmf --base 3": (
        "d0413e1ae3a09dc2f21aace079d786147af170f7b1e38041187b90b402c50e52",
        "ad5f5bd7bd19482747cf07b023591d0364669880abf92c52f2ed4d613f959001",
    ),
    "graph-entropy --graph network.edges": (
        "12dc3f91baa7c1d46e4bec2760a84d9fd204f36272aeba5d94e05e3b84de5975",
        "cb12ebe54eab414cbf1ddfcbbb8fc6212268832024de7de616f367659aa45fb2",
    ),
    "graph-entropy --graph network.edges --digraph": (
        "2100be3ccc4f19e6427644702be99107cc1e9672fceded0cf2ba78b24298c162",
        "3073ea99a0a2555bbeb104ee8c3c43067ee2d64ef20a3176a5b661368cf9e7f6",
    ),
    "graph-entropy --graph network.edges --tsallis 2": (
        "21ed47cf1fc94f576980074b900fad9b59a6974e67639feca91e32d2b046bcbc",
        "1dde3118ad5e41d1f4df49e1770141474375e5c4b8b59289edd6d7dc51568707",
    ),
    "graph-entropy --graph network.edges --coloring network.coloring": (
        "57ba8260d39cae15dda05ac96e2cd666b69fd480b47b17039dfeb2d94a3aedca",
        "f68a0a55c86e455fbdec8078acf85e34ad4aa7e5a66b9e0b1b15ee171a7f335a",
    ),
    "graph-entropy --graph ring.edges --tsallis 0.5": (
        "d06a98bf355449f7d69e77f708104ac7b794fa309b982a00bade14b9b19aff14",
        "07ced6ca59e96b1c9a01ef1d369b0ef794beede975bd68360e809312835c9398",
    ),
    "kl --graph network.edges --graph2 network.edges": (
        "0dcda4bbe11c06a56aab78d8b7f03129eb1a6d785d9bfab40206447e0484b72a",
        "3366843dce3c5d2c4a94ffa5cd958135976cf9448f34ddf4b0b07db5c9cffbbe",
    ),
    "kl --graph network.edges --graph2 network.edges --map swap.map": (
        "8bc8b83757b2f09629a2e82bfa5e07807b7cd0462727022104bb7b75281696dc",
        "42693a4c3a98d12c887cf49331627bd2b737d5f454aaeb3861432e21b46b7f5a",
    ),
    "mst --graph network.edges": (
        "97291d5759b3182aa27bcbfbec2aaf39bae6d90b260206618421ac45b089d13e",
        "5b320bb99b5d3c9a129b51a5e46d1634c6d7fed5cbcf3dc93e7c741b0223b67a",
    ),
    "span-entropy --graph network.edges": (
        "5a93e99807fafae8b2a82b782832e75d365eee8d95af8697b773735169f6a7a2",
        "13679bda9d8919053888b360e845d82a25497689bb9ba247029dc2d08b63c1d0",
    ),
    "span-entropy --graph network.edges --msts-only": (
        "55ca92797c003768393704345ae765d5249ba4bc38fa0ece34250c7d4ca55e6c",
        "b1ac24d976130870b0cc78f8332fa369e796182effa172064c5b44501499bb3e",
    ),
    "assign-leaders --pmf importance.pmf": (
        "c25d48534edbe72bc7a436804adf707988d77b9d420e31906bbbebb5500989e7",
        "e751dbac3f4a1608c48d37b237a17de7b010c1c95e6c55c58c6007dafdd0811d",
    ),
    "assign-leaders --pmf importance.pmf --D 3": (
        "b8961827a17379f18de7abed5ea022c7415b1aea67a14bcc285b8e7f20522664",
        "f047ab7ebc56f2c361c92c0302e5a0e477d6d6262a8a6f192763d6d734e7487a",
    ),
    "assign-leaders --pmf u13.pmf --D 11": (
        "5985c4803ddfab8964a5f10456b27b40254d13e4e47b562e6879faf2afff9e7f",
        "de75c84ed1bd0a89bec101d1ce9bdffe2591bb3524b8ba0cf19b63fdbdd88aef",
    ),
    PLAN + " --audit": (
        "bbd65f26c1d7087d8fe39d43a6907d233d936ee252141d8791df7bcb19a66a75",
        "9f3b64c9a0818b6a6557daec4f4045101d1c62723fe465b6a647645fdff33a96",
    ),
    "plan-multicast --graph relay.edges --pmf importance.pmf --root r --relax --audit": (
        "e5fc5f419f41baeb926d64b026cb3d79e540e048789773d5c6afc16350384a90",
        "b32fe0dbcbb6b3a856c5d92308b6257c505033c6c1dce9f7794e65bec5ff2224",
    ),
    "reliability --q 0.1 --depth 4": (
        "479db4c7ab5c10b906516f2699c8859ff45e684aa0a72926bead88b5f5316767",
        "c21b333d6460348576f0fe3c9ac73a41ebfc527cabce5a9456579dc144d89fb7",
    ),
    "levels --graph network.edges --bs gw": (
        "8ecf82c58d743af9869b548d343f0e023ed9cd376a50db4457e4299fc6e4a27e",
        "9f9ce88b1b15acd3de4f4f628827bb99d85faf7cbba432013dc4b9121532c172",
    ),
    "sectors --positions positions.txt --bs gw --K 4": (
        "00b619641cb9d9554d87631a1c3d72ecb7573110e3aa605a015c02d4e5783f82",
        "c0e2b0417ad23a856860036a6713816088d85fb77a008491dde1b25abfe1dce6",
    ),
    GOSSIP + " --levels-probs 0.9,0.6,0.3 --trials 200": (
        "ba1cf0521d83202cac5d1a549fb7a6e15954615deb1c1b5657c4073c908ee831",
        "f9bc8878f1b0a66895a26d902d1e87f2b9c04194315ef9acc540ab530efbd825",
    ),
    GOSSIP + " --levels-probs 0.9,0.6,0.3 --q 0.2 --trials 30 --source r1 --trial-log": (
        "bcf244d6bd9f7135124b1cb2d6083fbb8474a58a81d19fce01783c37647aade8",
        "ad6923e31ea7ca87aaee61306c7dc88aefd6bd42b548e0136614f994a00ec6b3",
    ),
    GOSSIP + " --levels-probs 0.3,0.6,0.9 --trials 50 --allow-nonmonotone": (
        "4f7a54707e910dce2fd42f228176d4288ddd08b84ad0a2cb3c872f1fd626ba5f",
        "dc2cdf346524c495366a1048c1a6013d8703312856b72549ddf69706c031c1d5",
    ),
    "fuse --intervals readings.intervals --f 1": (
        "5a0e6d29ddea4c754c3e610488dd8b78dd7f6575c107c54db4f78550951c62e5",
        "1e25b34137a2e406943c70e1958b1c92845503e8f39e5fd4ba07d3c8eaec7186",
    ),
    "fuse --intervals readings.intervals --f 0": (
        "38887e3abc39a457db24255943ca78bd1d3dd37f68c8ab44cc3111962b5d4722",
        "588a5b43cc9fccee182ee56a540f0a72fa601aff9e73221be1a2f4f704c67359",
    ),
    "fuse --intervals readings.intervals --f 1 --function omega": (
        "3e367536613eb74a9749c1659882441d740d5320cf6876581afd96c8da4989a2",
        "ca2ce46b869e62189e87d9ab6aeeeb826f0e2c49a0605b7da0e5ec1a0c104e18",
    ),
    "fuse --intervals readings.intervals --f 1 --function m": (
        "2b3242d8846fa002ba8a890597ef1f7a78170fa512b26187d8574bd9c6975d5b",
        "5e9a76d94c0e46d645d058a0e3a6df4e4cc088e0ba30b5506b6cbf661e571621",
    ),
    "fuse --intervals readings.intervals --f 0 --function n": (
        "28c4ba399afedade4a28992e8990fae630d3b9e36bad49382e2117e5123bc89b",
        "0711d036ccf20e187a6e96499930c1c73391b9e1da3ea29473a0f5fc85f9cbb1",
    ),
    "fuse --intervals readings.intervals --f 0 --function s": (
        "1d3966d245433f839db76c46a71c93212d7cd220bca95bf0936ee1f3a8e89715",
        "c7f098cb2be57a775c0fd17f882b3a3a31e20a6c9b7e6c8e13a541dac8c22de5",
    ),
}


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    for path in DEMO_DATA.iterdir():
        shutil.copy(path, tmp_path / path.name)
    for name, text in EXTRA_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    return out.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("invocation", list(GOLDEN))
def test_text_output_is_byte_stable(invocation, data_dir):
    assert _sha256(_stdout(invocation.split())) == GOLDEN[invocation][0]


@pytest.mark.parametrize("invocation", list(GOLDEN))
def test_json_output_is_byte_stable_strict_json(invocation, data_dir):
    out = _stdout(invocation.split() + ["--json"])
    assert _sha256(out) == GOLDEN[invocation][1]
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["manifest"]["subcommand"] == invocation.split()[0]


STDIN_EDGES = b"a b\nb c\n"


@pytest.mark.parametrize("mode, digest", [
    ([], "3e7662e894f5998034eb235f5da3c39288f38df2659a46076e10de7da5be7a30"),
    (["--json"], "6641bd1652cd70456e260005bc2eddbcabb40c1b7726b27d93c6d1807e9fe7dd"),
])
def test_stdin_read_twice_is_listed_twice_in_read_order(mode, digest, monkeypatch):
    # '-' is read from standard input once; each flag that names it is one
    # manifest input, with the same digest, in the order the flags were read
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(STDIN_EDGES)))
    out = _stdout(["kl", "--graph", "-", "--graph2", "-"] + mode)
    assert _sha256(out) == digest
    stdin_digest = hashlib.sha256(STDIN_EDGES).hexdigest()
    if mode:
        assert json.loads(out)["manifest"]["inputs"] == [
            {"path": "-", "sha256": stdin_digest}
        ] * 2
    else:
        assert out.count(f"# input: - sha256={stdin_digest}\n") == 2
