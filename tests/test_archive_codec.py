"""Golden bytes for the cold-chunk codec: the on-disk format is pinned.

The property suite (``test_rollup_property.py``) proves every codec round
trip is exact, but a round trip would also pass with a self-consistent
*different* bit order — one that silently breaks every saved snapshot.
This file hard-codes sha256 digests of the encoders' output (params JSON
plus payload bytes) over one fixed seeded input set, and one hand-computed
bit-order case, so any change to the bytes a chunk serialises to fails
here, whatever the kernels underneath look like.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.telemetry.archive import (
    _pack_width,
    _unpack_width,
    decode_timestamps,
    decode_values,
    encode_timestamps,
    encode_values,
)

SIZES = (0, 1, 2, 3, 9, 4320)


def _digest(params: dict, *payloads: np.ndarray) -> str:
    h = hashlib.sha256(json.dumps(params, sort_keys=True).encode())
    for payload in payloads:
        raw = np.ascontiguousarray(payload, dtype=np.uint8).tobytes()
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    return h.hexdigest()


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _value_cases() -> List[Tuple[str, np.ndarray]]:
    rng = np.random.default_rng(20261016)
    cases: List[Tuple[str, np.ndarray]] = []
    # XOR window exactly ``w`` bits wide at a width-dependent offset, with
    # repeats mixed in so the zero-XOR bitmap is exercised too.
    for w in range(1, 65):
        trail = (w * 7) % (65 - w)
        xs = rng.integers(0, 2**63, size=36, dtype=np.uint64) << np.uint64(1)
        xs |= rng.integers(0, 2, size=36, dtype=np.uint64)
        xs &= np.uint64((1 << w) - 1)
        xs[0] = np.uint64((1 << (w - 1)) | 1)
        xs[rng.random(36) < 0.2] = 0
        xs <<= np.uint64(trail)
        base = rng.integers(0, 2**63, dtype=np.uint64)
        bits = np.bitwise_xor.accumulate(np.concatenate([[base], xs]))
        cases.append((f"width{w}", bits.view(np.float64)))
    specials = np.array(
        [0x7FF8000000000001, 0xFFF0000000000ABC, 0x7FF0000000000000,
         0xFFF0000000000000, 0x8000000000000000, 0x0000000000000000,
         0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000003,
         0x7FF8000000000000, 0x7FF8000000000000],
        dtype=np.uint64,
    ).view(np.float64)
    cases.append(("specials", specials))
    for n in SIZES:
        # serve_tenants-shaped: noisy power rounded to 0.01 (~54-bit window).
        power = np.round(rng.normal(350.0, 40.0, n), 2)
        cases.append((f"power{n}", power))
        cases.append((f"quarter{n}", np.round(rng.normal(220.0, 8.0, n) * 4) / 4))
    return cases


def _time_cases() -> List[Tuple[str, np.ndarray]]:
    rng = np.random.default_rng(1016)
    cases: List[Tuple[str, np.ndarray]] = []
    for n in SIZES:
        t0 = 1.7e9
        cases.append((f"regular{n}", t0 + 60.0 * np.arange(n)))
        jitter = rng.integers(-3, 4, size=n) * 0.25
        cases.append((f"jitter{n}", t0 + 60.0 * np.arange(n) + jitter))
        steps = np.cumsum(rng.integers(1, 50, n))
        # Epoch-scale 0.1 s steps: int mode at a 22-bit tick shift.
        cases.append((f"fine{n}", t0 + 0.1 * steps))
        # Near-zero 0.1 s steps: no shift up to 2**40 fits -> key mode.
        cases.append((f"key{n}", 0.1 * steps))
    cases.append(("negzero", np.array([-0.0, 0.0, 1.0, 2.0])))
    cases.append(("subnormal", np.array([0.0, 5e-324, 1e-320, 2.2e-308])))
    cases.append(("inf", np.array([-np.inf, 0.0, 1.0, np.inf])))
    return cases


#: sha256 of (params JSON, payload bytes) per case.  Regenerate only for a
#: deliberate, versioned format change — never to make a kernel pass.
GOLDEN_VALUES: Dict[str, str] = {
    "width1": "a4479e5386e7612daa3aa3653b9b8a4610c7304e721e742e74fda7125d135062",
    "width2": "b64de5b88eb0c04d11b7712ccf350718705d4af491dc918a9f4b29ab6af5df88",
    "width3": "4b473cac8d920247ad03f498dd7122e00558e75b9522b636aced5c041a3eadce",
    "width4": "4baf7f4d711dd225b55618ca528b81d218a81d1bdfcefd43c8ac59c2cd329469",
    "width5": "cf00245c1c545c6eedd75e9b9d3aa0bb707dfc515a3a7b31fa57815341b2649d",
    "width6": "cf6d3f24bdc4651d5d5d70f8579c7892da03f01dd4816ecbe0a7b4273122f608",
    "width7": "2be006b2b7d44a1c5682579d1c9fa50ebdc40a459d584baf17cefb7c682da1a1",
    "width8": "a7b38d838af19d501f2d5afdd7550d53e1be5370fde43af1c3ca69a5bb5190f3",
    "width9": "b0461494a2d26f32998bacab7fe1448b04855212d0411803593e6c697efdaa7c",
    "width10": "f1c113d04609f6409d0dfd2813bbaabe9da6a411dc76c754e98c657a55704b00",
    "width11": "0bdee8b62c7dd3cc4e395eef0ee7fa797af7614ce4debfd00833744edcaa57e0",
    "width12": "30a502d4065fd7ef2c9c50efec58dd01c567a8208f63a35ba66374cc440381a8",
    "width13": "62db788c2db617a318fc0b181a14056eaef582127c3642db65cdbb5ed4dd8841",
    "width14": "f0db543d2d71fbb6f657337fbde389a5962def021cddc652318260416154a2ae",
    "width15": "085324c227fa6fad9fba668affb8fac2080535369327f660913851e455d825c1",
    "width16": "9d242fe33968ecdf5a6ed25ca40385372362a0627912b4ac3527164e53c74ea3",
    "width17": "60149db44b589cc615f66bec1df1bd1d681b2bea7bbc9b0521bc899a029feb1f",
    "width18": "e5649a0e578e1706c4d5d4fa643e59622be99cb20165ba1b2d7c2ad4bfdb2c24",
    "width19": "82728178ac2826a1a1e7f514d4b41923e1a39558ab602be540238b8bc2ee9d9a",
    "width20": "138db46a3d04e3085308a4b8e1ed2e7a0226eb15571929e16526a93316fd94b1",
    "width21": "ae53476d1c7fae5c12fc90e453d6d218b0d8f538f1c05e5fc4f7634d4af18605",
    "width22": "be1f68acd674f845fbd40e5ccafe409111d4cc1ac77d2d4ed1abaf289420aa79",
    "width23": "ec8d01564b07449eccecb647472048d1ff055fbadce8ccb99dedfd39838f34b5",
    "width24": "276e6b25706c0403bee70dd5e6b4053d0b41421e75d0c886dc56e2cf24bbde28",
    "width25": "22a670aca7e5657e4878d3a860b464f4083dd6c3864eb4fd8a435c73c1e24f6e",
    "width26": "50c70238fa58c3fe66ca09bf35cf9523cbb5160ce5e26196bae6a9b160096aed",
    "width27": "801da8d570082eea65117a7858144d1ff964fd9b7872e5551602bb8410730956",
    "width28": "f53c16acd2c866adabcf49e04c9ef5513ff0e5c8df54101c64a2e87eb236e57f",
    "width29": "548188743828f4be9de6c286255b4d9b3b758ada6ac28e6621c62f043139537c",
    "width30": "f0b905beab5ab2ddc1b675c77e2140d254ad79d7f4e13594ca45bdf659d915ad",
    "width31": "0866f09d3e4cb297c137839fb9c2baa4b4b0a8a9b8357c0157cdd15446fc5929",
    "width32": "7ab4174570f1daadc365a5aceb5d3258462b0eb49d29e07973a48353cc172f47",
    "width33": "6d560c0b715ab7858b7463aaada12fc2770d2cf57d2dcb1a7aa48853f55d81d6",
    "width34": "7325002205e13838aea3d3b61f5e1ed71acb4e03c405f0fab106e8e842f0311c",
    "width35": "e17b18d83d8c9ac59c852b0b702d7ff1b81947e1ae0e7d6c23546a986fdfe4d8",
    "width36": "99cc3e32b07895b2ed0f0a640adf47990ece76ddfc9e1d66294048970a369fb4",
    "width37": "ef1fe2a81400c3e3679facdffc813f5698add8c6e84f04f3cb5191fd28b0f56a",
    "width38": "c6364fc21b81601a1849bad7281e9116fc100426343ffa071efc899d5adaf394",
    "width39": "4ef0a6234ca31cdf2503113b7fa718dee04c01b3a83866d7e7d6399ad161f7bf",
    "width40": "a582e1bfd855bc427842eb91c502fa9c784e01a09d85d79ba41ff282050fd17d",
    "width41": "58f4a3cf2d10af0a6ad7224ce4bcf596a0700c0c12efe6b72edd229e60ce6a3e",
    "width42": "e9a090abd4c751a587d0553dfe81389f3f415b169ec3674bfeabdc4947668367",
    "width43": "02f25016786e44a1284ed40ad420b8139d4e0b9c621d202c7c38bdeb6ae856e8",
    "width44": "f9af5864bf7b9f7ff2ca5d7041f49f7a8a1f7df4b73dc8d065ff730a6cd65160",
    "width45": "98c04560ee1d522e6243bdc24b1577166008df1c42738c26787335c5427b57b9",
    "width46": "9340cdbde467032b67d5aa911742f61918f09380f344feb46178b16b9f716664",
    "width47": "154ca2e93935c6eb25d2c670581009264de329384ff365c3ebc989336bba3715",
    "width48": "f2dd4c2346888882e7570f65f548ea542f782a77b774851dbc439499234e5be2",
    "width49": "b97f62a1057970ea3b461a7b0e1e6ac7c6adb00452f93057731b2bade8d38907",
    "width50": "f0d87f3bae94cd6bf8633d336a2e3771315b9ba4fd8388d17ac00ca9bec8265d",
    "width51": "0655ebbc085f2d4f85b26a571d5905ac6b60bbd0642cbd4938eb0de8f4b4e46a",
    "width52": "4dfdba3a0e0372e5d98ae9172369fe4e969a8b3095bc50caf9a801aee6dfbbac",
    "width53": "9838fcbcaa25ea1f2087ff022b666b6b62b4db0c7e412b693f9958d91a1d40cc",
    "width54": "f7e841e87dee4493b136c09fb849948bbbcb34092254ff70b24abdc4d2568369",
    "width55": "affa79a0df6fbb9e7597c2d89169bcf2f66f6818ba256e486532e7754bb23fea",
    "width56": "a8ea6ddd753f3faa6164537a31d19fd464d41397bbf667874f8e7f626e37fdd5",
    "width57": "5bd6464ad293fc7f287986e31961bcfc39da951581f797be77d2cd4666ea394e",
    "width58": "3f91ccab7e9b6cd27332ab373a1c312b2012af421df93093362fb23fa5304504",
    "width59": "0581ff6e26a770fb3575f9b5d5fa74930ff20580915c0c20d7b1d53f252a6f74",
    "width60": "ffaafcb23bff037e38b27923db5da8857d94ae4c0476083a27519ef2268e5e62",
    "width61": "2a76688258777e52e9f6c532a194a6fafa4e32ed25caee7dde73f1cd2a63ad7b",
    "width62": "f869d1f933bb443d0256e7870cb2bd2af7eac651bea75f51f208c74016e27cfa",
    "width63": "80fff5967871cdc09778895d59d0fce10c6ad331edb36f12f08cf987328c48e4",
    "width64": "8c67304d0058e7637cd8b9d31cebe3febd83561f51990136a9755fdabb9a65e9",
    "specials": "b401a5c02d74d11abbf0470c1d4fe560edf5ebf97910e7b105b9646ffe81dc29",
    "power0": "3a225acf63c20a09de9c23006c8f09ae58617e229acdfd1fb718bf6d241713a0",
    "quarter0": "3a225acf63c20a09de9c23006c8f09ae58617e229acdfd1fb718bf6d241713a0",
    "power1": "e7c1060efaeb9b4db878abf41c9a2d872017d7c9d9319c226f1849c4fd23b0e7",
    "quarter1": "2a5fa3accf1977eb8af75f1fa6657be7b55408f6d682766497380c9654dc83e1",
    "power2": "1eb9bf9788444191b00da159b3533e7c0bce33e820a55efd258426fdc37411bd",
    "quarter2": "1b62e69883a1025dc6cda22a8a91fba4e2a89f222e3ecb6d68e3bbeaa1366edd",
    "power3": "c6ba1888a469a947006b44eeb4c10d7f34a6dcf08e43ff76e984cbe780ed5036",
    "quarter3": "b98dab1c32dccf602f84e5298c5334d0081ff266629a02d36cc368a1990482c9",
    "power9": "e394c5945b25f0ab2e703946f4744760841fec86e8dc6e59d940dee084dc6a65",
    "quarter9": "c62a128730c8a560de1e3a37b51bf8e48e09ab9e04bf7bebb85e0596f5f87630",
    "power4320": "03d55c6dd2f3a0aff838e49aee0adf619fb501bac7f3755bcf8acf643276aa1e",
    "quarter4320": "8f9442245083d0cc79dc0c19d7c1f104b68c7fa32535ca60f3457618f8552a24",
}

GOLDEN_TIMES: Dict[str, str] = {
    "regular0": "8c7a6524fa428ea93c628d02c4ae3f0292875bffdb987d8f807228b4a5d5a48d",
    "jitter0": "8c7a6524fa428ea93c628d02c4ae3f0292875bffdb987d8f807228b4a5d5a48d",
    "fine0": "8c7a6524fa428ea93c628d02c4ae3f0292875bffdb987d8f807228b4a5d5a48d",
    "key0": "8c7a6524fa428ea93c628d02c4ae3f0292875bffdb987d8f807228b4a5d5a48d",
    "regular1": "2fde27032d958ec9c78991f02ccb967a4d052edfbb1fd504819f1ddc3bdcd9cb",
    "jitter1": "39a2facb955abab8c865da0231d631c7c52b6a4e16390459fab1aaa0a81c95b7",
    "fine1": "702111e028609492b28d33bed1acb2c2479abff0e9e7fd5801d873f763450bda",
    "key1": "f6396568a8991794e6b9a5e896d185cfddbf1d9557c069fcc915536662f16611",
    "regular2": "79f9a59fa28ccabecec4ace49c2b15f46cff4c8d076fc08b083fde3bc89e03d2",
    "jitter2": "d473a0f7958121d6fe3ba71480c5ccf4fde1a2b32e6c86d00b0c9bba8a03912f",
    "fine2": "95cd3da581d3d84aafc4f493417fec78c5cbd7586a7ca69fef4105f21216c094",
    "key2": "ad0475df72f3c3f5774a4b2215b459a108dd10795ee55a16cb390b93783c1cf6",
    "regular3": "d01e024a1083e1db9f607a6031853cc8a25b88198b448ffd97fbd31e9d0d49f6",
    "jitter3": "56e67953603737d14f647e8cf399c2a7ea9acc383bc38480f9342e55fde074e9",
    "fine3": "9aa7c5d7ccbe7aa008e6df3cddda504893582323f4a5099c2a13d9c601448150",
    "key3": "989af2f1bfbdab552e72e00363dc7f1cfd0d8821f424bafbca7033da3a6a600c",
    "regular9": "e0a4b277b52e8e2e2f144bd036ba4196b536fb7226cba01efe5f4e77ed7b257d",
    "jitter9": "2fb89cff34439ef9dce883def03c9147f7cf68bf46acecefc6824f727952d028",
    "fine9": "02239da96936ad0508d0ed01821562cf60aeebdc1480d951370a858071822c05",
    "key9": "adcc35f91395a91b8efc58c78b651e02a0881d41ee694ce17d0e40c5c47ef294",
    "regular4320": "e6541e45f1182f25c6f5b7a4d79b7bb9ebb631cfe9c297f960011bc90d0573b8",
    "jitter4320": "e2f735916910394f0b8f4773c8256173c581a049485f0205fe19cde06b6a7232",
    "fine4320": "5d49a51836ea73fd43255bd57f112d9f0eb000f873ec9048a250b5639be5e30f",
    "key4320": "b142951439f43220585ce0bdda48cd41bf3ecbb076fceea41049bed773d315b8",
    "negzero": "e7f9993b18262d31f39875f70e8d73ffa6517b296e8c9af988638e8197aee327",
    "subnormal": "85cc4b71e554c5c795d6dfdfb9aef2fadad478b513df9c58b9b62dbe553a30a3",
    "inf": "17420e263dc4250122b7da68f632ae38d6f55c961bc62341f3b70d4d8525d371",
}


@pytest.mark.parametrize("name,values", _value_cases(),
                         ids=[c[0] for c in _value_cases()])
def test_value_bytes_are_golden(name, values):
    params, bitmap, payload = encode_values(values)
    assert _digest(params, bitmap, payload) == GOLDEN_VALUES[name]
    out = decode_values(params, bitmap, payload)
    assert np.array_equal(_bits(out), _bits(values))


@pytest.mark.parametrize("name,times", _time_cases(),
                         ids=[c[0] for c in _time_cases()])
def test_timestamp_bytes_are_golden(name, times):
    params, payload = encode_timestamps(times)
    assert _digest(params, payload) == GOLDEN_TIMES[name]
    out = decode_timestamps(params, payload)
    assert np.array_equal(_bits(out), _bits(times))


def test_cases_cover_every_mode_and_width():
    t_params = [encode_timestamps(t)[0] for _, t in _time_cases()]
    assert {p["mode"] for p in t_params} == {"int", "key"}
    int_widths = {p["width"] for p in t_params if p["mode"] == "int"}
    assert 0 in int_widths and max(int_widths) > 0
    v_widths = {encode_values(v)[0]["width"] for _, v in _value_cases()}
    assert set(range(1, 65)) <= v_widths


@pytest.mark.parametrize("width", range(1, 65))
def test_pack_round_trip_every_width(width):
    rng = np.random.default_rng(width)
    n = 13  # not a multiple of 8: the final byte is partial
    vals = rng.integers(0, 2**63, size=n, dtype=np.uint64) << np.uint64(1)
    vals |= rng.integers(0, 2, size=n, dtype=np.uint64)
    vals &= np.uint64((1 << width) - 1)
    packed = _pack_width(vals, width)
    assert packed.dtype == np.uint8 and packed.size == (n * width + 7) // 8
    assert np.array_equal(_unpack_width(packed, n, width), vals)


def test_pack_bit_order_is_msb_first():
    # 1, 2, 3 at 2 bits: 01 10 11 + two pad bits -> 0b01101100.
    packed = _pack_width(np.array([1, 2, 3], dtype=np.uint64), 2)
    assert packed.tolist() == [0x6C]
