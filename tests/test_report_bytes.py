"""Pinned report bytes: the sha256 of `to_json_text()` for a fixed set of
inputs and field modes, recorded before the exact linear algebra became
integer-native.  Any change to a report's bytes (a dimension, a check row,
a warning, the key order) fails here.  The digests of reports whose
`isolated_method` became "bayer-stillman" were recorded again when that
certificate was added, and those of the uncertified reports (x^2*y^2 and
six mod:3 reports) when their tag became "not-certified"; apart from the
tag and its warning line those reports are unchanged.

The set: the 8 corpus entries, x^6-y^6 (tau = 25 beyond the scanned range:
certified by Bayer-Stillman, not certified at mod:3, where every partial
vanishes), x^2*y^2 (non-isolated), the Fermat cubic in 3 and 4 variables, 3 dense
quintics drawn like the `dense-exact` benchmark workload and one six-line
arrangement drawn like `lines-exact`, each at exact, mod:1000003 and mod:3 (a characteristic
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
        '802ada39653ee27add847ac3a7ede1cc7fc068be046d91419366b6b82ec01bde',
        'f2969afb55022845b202c4e4a1779292ac9df5f3b4277d2c81d43902a7f79209',
        '8aba985fefd88da31ebbcb93a0fdb4a3f4776794270bdfeb7a04de1cd212612d',
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
        '364fd45edca7079faa0889d7850a8d5abc3d90f3aef2ba4b3d6346e147874ffe',
        '1f2f2d54898fb1a1d65898d607d75557f3f39304f050e6316bf7417abefb3e12',
        '223c6cbf7dc89bc95a412b46290f0616105970c6e380ca9c030dcb427d761098',
    ),
    (
        'line-plus-fermat-cubic',
        XYZ,
        'x*(x^3 + y^3 + z^3)',
        '079242e5b0b13cf4ef065600cdcb24e0908a37e2bac8ccbbab2d81cf0a9a2ca4',
        'ae8fc88839f8b677c2178184a313b3c582f2494b100bb73bf44495718576d79e',
        '88757f4f5db5013712a76b7945f31ca60c7ef91da9575cf3483a3eba07dda846',
    ),
    (
        'binomial-2-2-4',
        XYZ,
        'x^2*y^2 + z^4',
        'd0f0e43cf2ca44f0f3bf9c90d83c1f7d29c228db28d1d0da2ab92585cdd12c4c',
        'f381d14e38b078b4a4b565091ed510c746b3eb32028e519eb27127857711914e',
        '252ddecb06706ffbb03fc2cfe2734269aec64c2971cdc4cf309c1071f1c64757',
    ),
    (
        'binomial-1-2-3',
        XYZ,
        'x*y^2 + z^3',
        'aeec2e02628f78a4c9ced9a4824d87ec5e14392af383851cde063085f351d1d5',
        'bb8a08ceac6396e7c90693a1c178f5dd2a1bdb7bf4274b472eab487c34a01482',
        'f3db2b9936ad3a781fc0556bc6635a433f44a1a70e8613f16a5fa2b4948ea7a8',
    ),
    (
        'binomial-2-3-5',
        XYZ,
        'x^2*y^3 + z^5',
        '8d12a8d54dbeddfc0144eed9939600243b347ae335dcd6b9e6b5c2836c76bf86',
        'a4cf12591070830278ff065624d0613cd90417e0313a8367d886a2799b96fa44',
        '758b0d53584aa4f510b9b7a3b365415bb1341a931e85ee698168a73d056d305a',
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
        'bff64e8ccd2a8627f43edfa43cccf89e673125e08ca719423587a05e2624e8b3',
        '1766f2e18846dd80193129835e5caa9874715ba4571a05e610d54b502bf78226',
        '1f5b680613ac3ec756840d5a6102c32f72fcc104fb0ca4dd780871e142303c5b',
    ),
    (
        'x2y2',
        XYZ,
        'x^2*y^2',
        '7818cf13266208229e51bfa49bd3ba1e8b1b6d9d8b3663999c885714c814afc4',
        '6bc2006615c70eece913fc3731633e95e62667e05d2a9382411b258f89cafb7d',
        '662f7dc85f66c85adb6b45c6e40ccebcde1c3e675cfd3bc06a45ceacfb20e138',
    ),
    (
        'fermat-cubic',
        XYZ,
        'x^3+y^3+z^3',
        'f8472b92b589bd5a98a02eeb8db9734ee580aee4afa449493c512bee730b2f82',
        '1ae7533e9b101f53812fa562fd79923cf445b46098fac1f0ca2c8549631d5970',
        '206c700de4d688d2af2bcded76d98cbaeecb7b5ce0d93d03388c42940be15f97',
    ),
    (
        'fermat-cubic-4vars',
        XYZW,
        'x^3+y^3+z^3+w^3',
        'bd7c2a212c9152586fe49ebc1371ad29a67f024ae164f300a7634f721655bee2',
        '70258db27966f4e133ed8c15c7aed149496e250ec05e666449ba615dce507d7f',
        '57070517fd1177d145f849a14ea6bd97c3138c73fad83e524140ab442b1e1fee',
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
        '62f27b75a328f29c8bfd6bf4b09c8a27fba2db71d5c7310c33196150566b778c',
        '8e53859fb4b8e6d126ffee28e7aa91d705b58972dc1cbc8e5cc7e59459a8dbbd',
        '77077f9c22016e33d1603b4f1a8b5b22673e1c67d80412e64dd8351d7faa830d',
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
