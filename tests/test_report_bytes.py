"""Pinned report bytes: the sha256 of `to_json_text()` for a fixed set of
inputs and field modes, recorded before the exact linear algebra became
integer-native.  Any change to a report's bytes (a dimension, a check row,
a warning, the key order) fails here.

The set: the 8 corpus entries, x^6-y^6 (uncertified window test), x^2*y^2
(non-isolated), the Fermat cubic in 3 and 4 variables, 3 dense quintics drawn
like the `dense-exact` benchmark workload and one six-line arrangement drawn
like `lines-exact`, each at exact, mod:1000003 and mod:3 (a characteristic
that divides some exponents).  Slower inputs (x^5*y^5+z^10, more line
arrangements, the mod 2^31-1 column) were compared once when the hashes were
recorded and are left out to keep this file fast.
"""

import hashlib

import pytest

from jacsyz import analyze, field_from_name, parse_poly

XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")
FIELDS = ("exact", "mod:1000003", "mod:3")

# (id, variables, polynomial text, sha256 per field in FIELDS order)
PINNED = [
    (
        'three-cusp-quartic',
        XYZ,
        'x^2*y^2 + y^2*z^2 + z^2*x^2 - 2*x*y*z*(x + y + z)',
        '8e70354902dd7104fc7c8f4221e8f57734f81c11a57604a2811f064bd2e2fb6e',
        '213b1862ada37ee9f0ae3a10e755e0892bf5222a6887d937a51720d1c5057b47',
        'aaa9be9a9868cb8f43ab0d169d560fe008929e33de17eb1afba9fb5ab846e9b2',
    ),
    (
        'fermat-quartic',
        XYZ,
        'x^4 + y^4 + z^4',
        '6efc51bd1e439d7eaf6da8ed8364bf708efe62e7455c8fc08da129184e633ed8',
        'bbc9b28afc9c7641ad23efa33ac958ee530adf0d1216e7e757b3a6e7932886e0',
        '05a7d3b34c71a215c0146c59f9ca21b3f3ee3dd58f2d039b137caab3ce1c1f5b',
    ),
    (
        'coordinate-triangle',
        XYZ,
        'x*y*z',
        '4cafbc744aeda1cdf9efa45a7eed2d7bed27414abefa9c2303827b87ea74ea33',
        '89a4038b53fcb540ac94555f7c508b128904bc20f80ec83cb0ba889601aff817',
        '967a226485190367965d7fc13fd0efb2ea03ed40f703fab1f5af9db48efc0e6f',
    ),
    (
        'line-plus-fermat-cubic',
        XYZ,
        'x*(x^3 + y^3 + z^3)',
        '079242e5b0b13cf4ef065600cdcb24e0908a37e2bac8ccbbab2d81cf0a9a2ca4',
        'ae8fc88839f8b677c2178184a313b3c582f2494b100bb73bf44495718576d79e',
        'faef926fbf9fd568e1caa9862e53051796b04fd7385f740e88a01956d89abe57',
    ),
    (
        'binomial-2-2-4',
        XYZ,
        'x^2*y^2 + z^4',
        '71bd40c4afd20552620f03372077a3605064d24753ae849b64ad724abc3b3bb8',
        'af56de5f50541cad248865035b38ab4b9a04f13d36f32e167f95d1fbd866f807',
        '401abc5b447379243317437df1c64f027ed3b5c5dc2fd47674eb2ac46f3db9c8',
    ),
    (
        'binomial-1-2-3',
        XYZ,
        'x*y^2 + z^3',
        'aeec2e02628f78a4c9ced9a4824d87ec5e14392af383851cde063085f351d1d5',
        'bb8a08ceac6396e7c90693a1c178f5dd2a1bdb7bf4274b472eab487c34a01482',
        '607cc60cba2e8796365c2a7c6dc9ac50940097ac391a5a9637c71b5e02d21b17',
    ),
    (
        'binomial-2-3-5',
        XYZ,
        'x^2*y^3 + z^5',
        '6d73fdd4e531e2e45867284c2d8d729cbb1e75a81c6ee1ffbe13d0de13a6cf97',
        '7d79ccab907a7e656710c00b90e138f6041709a68e24557eecb495279b18dcd4',
        '9d13cd6fe2bda6c391dbcfd4ffe4ee66cfa5dd78e2f924a41eecf3dbbcf742cc',
    ),
    (
        'one-node-cubic',
        XYZ,
        'z*y^2 - x^3 - x^2*z',
        '78d4861bff674ad13eee5796cd3653842bfd66fd56b753ab8c4ab89dcfd30ade',
        '219a295493bfea6e24aaabcb0e435939396db76bb8f27731691813e94b86f303',
        '13ae55542b7a1ca0f4655eeb2b8cc916cd475b27c90f69399b2f4da0a9c10a8a',
    ),
    (
        'x6-y6',
        XYZ,
        'x^6-y^6',
        'a32853fc75d3832803b64c0830232492fa93e20c7a8392fe7d9023e04af6134c',
        '93c208955d34a9075b22fb5963c3e9355d62b09cb75c024714aab39b7e068904',
        'ab740f1cd6ab6a69050a964f8454390b391fcab4453f0a6157c98d530bff21a0',
    ),
    (
        'x2y2',
        XYZ,
        'x^2*y^2',
        '38186f8bb3439c42c365ecd18d71dddf5f319a7080c2e6a0b4278ac6b790d36c',
        '981fb69d2cc93120f46d1a6ed01abb84dfb326f6a5c9f30136700db4f634aab6',
        '465eafe18d349ca667eb1fefdec14fb65a75b2c8cd4f489fff9581115758f3ca',
    ),
    (
        'fermat-cubic',
        XYZ,
        'x^3+y^3+z^3',
        'f8472b92b589bd5a98a02eeb8db9734ee580aee4afa449493c512bee730b2f82',
        '1ae7533e9b101f53812fa562fd79923cf445b46098fac1f0ca2c8549631d5970',
        'f8ea72b5cbb9ced2330675108d86328590c47ac049ac7f76a4a8f2806a878222',
    ),
    (
        'fermat-cubic-4vars',
        XYZW,
        'x^3+y^3+z^3+w^3',
        'bd7c2a212c9152586fe49ebc1371ad29a67f024ae164f300a7634f721655bee2',
        '70258db27966f4e133ed8c15c7aed149496e250ec05e666449ba615dce507d7f',
        'd57e7ed1258195da48886642ce3a3e13e5984d601565f7032380228176f257df',
    ),
    (
        'dense-1',
        XYZ,
        '2*z^5 + 4*y*z^4 - 1*y^3*z^2 - 3*y^4*z - 3*y^5 + 5*x*z^4 - 5*x*y*z^3 + 3*x*y^3*z + 2*x*y^4 + 4*x^2*z^3 - 4*x^2*y*z^2 + 3*x^2*y^3 + 4*x^3*z^2 - 5*x^3*y*z + 1*x^3*y^2 - 3*x^4*z + 2*x^4*y + 1*x^5',
        '3ebe1eb2fce547c882d0d641e534bc7e60cff02768a83d15b73f5ba4a1cf97e2',
        'e0d6ac9d74b34c9d6fd40a3f6a04f53c8c94280e4ce586fa56d855c65400a5af',
        '683f0cd42bba4242616e9922396f6dc8e7d699b568cfe139d9b400c825a067a9',
    ),
    (
        'dense-2',
        XYZ,
        '-3*z^5 - 3*y*z^4 - 2*y^2*z^3 - 5*y^3*z^2 - 4*y^4*z - 3*y^5 + 3*x*z^4 + 4*x*y*z^3 - 4*x*y^2*z^2 + 1*x*y^3*z - 4*x*y^4 - 1*x^2*z^3 - 2*x^2*y*z^2 + 5*x^2*y^2*z - 2*x^2*y^3 + 1*x^3*z^2 - 4*x^3*y*z - 1*x^3*y^2 - 2*x^4*z + 1*x^4*y - 1*x^5',
        'd64900f732eaa0cbb077d8bd87d57f1c002bf1e9c20edae12e50d9b2cf53ad3e',
        '83bc840c38942adace1cd2d513fcac6ebb4023ec9a5d29d872ed6cc96372cd98',
        '577df1e16264e9b5a111993284c86687615cbcffe78dbcc1481329240b9134c9',
    ),
    (
        'dense-3',
        XYZ,
        '-5*y*z^4 - 2*y^2*z^3 - 5*y^3*z^2 + 1*y^4*z - 5*y^5 + 1*x*z^4 + 2*x*y*z^3 - 3*x*y^2*z^2 - 5*x*y^3*z - 2*x*y^4 + 1*x^2*z^3 - 4*x^2*y*z^2 + 4*x^2*y^2*z - 5*x^2*y^3 - 4*x^3*z^2 + 4*x^3*y*z - 2*x^3*y^2 - 2*x^4*z - 5*x^5',
        'ee78047f267ea2802120a2ac88f98c62e9cf481ed66f4bb63772c2c17a5dad88',
        '2210246cd8266709cf933cd05f6b1b5f60f7b63ba55f01bf584c0ba253ad459d',
        '72423de71c24592af25409f61ac26e26880faed853e7b54cff40432b41bd087b',
    ),
    (
        'lines-1',
        XYZ,
        'x*y*z*(x - 1*y - 1*z)*(x + 1*y + 2*z)*(x + 3*y - 3*z)',
        '714f047dc74d5563b4353a005a9a7da31f68760a02cf755457d701c1aade867b',
        '08b8b511088e0611abb2dbef9f721ae20fd626e608a9836038286fb852372020',
        '9bcd0bc162ff0b56d0512d6fd4031aace25fddca832a7c82acde1835612628ee',
    ),
]


@pytest.mark.parametrize(
    "names, text, digests", [p[1:3] + (p[3:],) for p in PINNED], ids=[p[0] for p in PINNED]
)
def test_report_bytes_are_pinned(names, text, digests):
    f = parse_poly(text, names)
    for mode, want in zip(FIELDS, digests):
        report = analyze(f, field=field_from_name(mode), var_names=names, source_text=text)
        got = hashlib.sha256(report.to_json_text().encode()).hexdigest()
        assert got == want, mode
