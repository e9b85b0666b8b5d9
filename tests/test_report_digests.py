"""Report bytes are pinned: a refactor that changes what a run reports shows here.

Each digest is the sha256 of `render_report(run_scenario(...))` for a bundled
scenario and seed, or of `json.dumps(crash_sweep(...), sort_keys=True)` for a
bundled scenario's sweep. A change that means to alter reports regenerates
these digests and says why.
"""

import hashlib
import json

import pytest

import tra
from tra.harness import crash_sweep, render_report, run_scenario

DIGESTS = {
    "transfer.json seed 0": "b0ff5e171bbc6021ec41a5a921766133d673ab263a178560e6f853aa56806759",
    "transfer.json seed 1": "1b4e1d46c6f730f6550575f5431bc2becca5615220cdbe0bcb1e3000f21306ce",
    "transfer.json seed 2": "13c9c934f7b1a87ee15df1c0595b59c2de931a48083a8c436b38d7f7d633bf52",
    "transfer.json seed 3": "cf0f66fdfefd4ab9ab9da1d01f359b6f9a1076706598f01d8a95b7640b87db82",
    "transfer.json seed 4": "7f09f7f6c3e731051b8c0d89efc42a8b1111f881d56625801bbb5724d198fec5",
    "transfer.json seed 5": "510d0fcdcea578b254058194052c515ff1db3d9c63ac80cdba20cdc92a682f0b",
    "transfer.json seed 6": "91e156e4e4daa30e7bbad83f97304e2d541cafc5a4736907fc0c931fb22ebc0a",
    "transfer.json seed 7": "3f7ef5f7a735b474288d72a8b7a5e947747d2e04e02dc47a90156727d9d7f7b5",
    "transfer.json seed 8": "101ac2a8173604725809db71c6b202eff692f255ef16e983e7f21808079d7e1d",
    "transfer.json seed 9": "a1fe83ef23f562cc2c7cc578ab37e4a4ca41f36199694aa96f2210075599cefb",
    "cross_component.json seed 0": "8fa5b57f2962e8d27a07155b84794be3fbc4cf8df82dec8c3a34cb83a115abda",
    "cross_component.json seed 1": "5ce6874b604dab4e4d2cf4b3e75636c26fef26eb9484490c3b998cae43f05176",
    "cross_component.json seed 2": "82b631a2cefe3312f9bba05cd31efa41d519d8e684c4eb7f0c76965873bbc7c0",
    "cross_component.json seed 3": "a3854a5a01e5d73a5c6dc04d89866af4f861c155bf47649cbf58fe56cfc8c8d4",
    "cross_component.json seed 4": "fcdf7d9760f0fd6cd5a840ced44a0990bd076846256cff13c984e838d93337b0",
    "cross_component.json seed 5": "f30a5adb8d9104131c6e7edb916933c565493d2671ba65ddd84236bae15cc97b",
    "cross_component.json seed 6": "2acc5881070521f166d1036238a5098f9f10778cfa9b248f64b9c12e75c0c5fd",
    "cross_component.json seed 7": "b64710bcf8218e4816baf342c7ba2cc70a71d442cae4b092366801cba05c8dea",
    "cross_component.json seed 8": "65041053833bf0c4b5c6e2cddd077418455c7c8436dcace221dd3f0a176a4390",
    "cross_component.json seed 9": "cf07a20d956ea55ea55a8994c5d37cdb840e3e6b5f173f0f302419065d3dbc54",
    "broker_demo.json seed 0": "05d737b729caef10a2e78e5149401c053020e00b803c46e025a1d9046a52ceff",
    "broker_demo.json seed 1": "5ff6876baab6e9ae34621da43743c34811a27366cdf7ff516b499f6e1017e309",
    "broker_demo.json seed 2": "5235bfd8612495c63b9d10d95e70657fe675fb47ddf6bf7231644ff276d9cf23",
    "broker_demo.json seed 3": "9836ffe06a01d4f1b578494f6014ccd9c7854a02d79886083f2610df51a201bf",
    "broker_demo.json seed 4": "98f4a8d627bfeb520e23a78a116b4cb34a45743def5e133ccfd3fc54ec2280de",
    "broker_demo.json seed 5": "40c5a4fdaea1d6527b2b1d56a9354da7a6879f482c1e52e66ca696e25a683ad3",
    "broker_demo.json seed 6": "89fa64ddf86911e71470b1b2a0babdaf07d8a75d3e0e93d9f0ffacc89fd5b342",
    "broker_demo.json seed 7": "9d76cd6f6ed4fc668c7f6d373edebcfac8bdeb4d938b42239edb389736623c96",
    "broker_demo.json seed 8": "23af3a16a1f4667cad5b6584cf93ae43e860cdf1df23e91ddf055ce40287a012",
    "broker_demo.json seed 9": "394d2029865366e9686cb9abff8b0133b7dc21c3096a1dbd0f0dbbcd8b492e28",
    "process_demo.json seed 0": "98e2864aeb228fadd475b2e4d2fa29e1ce217979a26c7bb5087b6a5c07c52c1f",
    "process_demo.json seed 1": "323fc59f7ef7cbbed9b5f910e8b8ea67a37ea37b00d2b3ee3ade6f2a89f39b33",
    "process_demo.json seed 2": "09258c848ad9e11fcd2ab54c4c68ae7e6468c7bc68595c14c36faaf91a381365",
    "process_demo.json seed 3": "13736461857c730eebd0fc26ead73abad488ccfd74458c60c486bb2ce339c575",
    "process_demo.json seed 4": "574d799ccedc09afb6a2e48f9bc523d2912790776369860039abe0bb1501d5b2",
    "process_demo.json seed 5": "9870db5e9d25748fe558765d263c69eda23c2c0e1a60883a49faa2fbfbc221a9",
    "process_demo.json seed 6": "08a99da8a6f0db1369b9a6100075b2dffba0e3901eb5ac881983603789f978b2",
    "process_demo.json seed 7": "d13c747dbaafef8d1c290944c70bbe84cafe2d83f5ab0e7e8f347cdfb10c72eb",
    "process_demo.json seed 8": "fee7729728c6baeff9b0519db2714bf9d3db929019a06b6e0b6126c1392e9bbb",
    "process_demo.json seed 9": "0745ed03b73166ff753a22a00c15bffefabb4e06004967b85b30a79267bfd1a9",
    "transfer.json sweep": "d80a8c5c0099cffd0c51c1633d7cc388a47a03f7dc60ac3c8412e741310038a7",
    "cross_component.json sweep": "85ebf9d75cfb6fea7dd5ca8c93640c39c0ef13136fd80977e4d554de8a5d054d",
}


def _digest(case: str) -> str:
    name, what = case.split(" ", 1)
    path = tra.fixture_path(name)
    if what == "sweep":
        text = json.dumps(crash_sweep(path), sort_keys=True)
    else:
        text = render_report(run_scenario(path, seed=int(what.removeprefix("seed "))))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", list(DIGESTS))
def test_report_bytes_match_the_pinned_digest(case):
    assert _digest(case) == DIGESTS[case], f"{case}: report bytes changed"
