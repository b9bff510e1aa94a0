"""Pinned outputs of unit inversion, the conjugation solver and the
decomposition pipeline.

Each digest is the SHA-256 of one output's text: the `format_element` of an
inverse from `invert_unit` or of a unit from `solve_conjugation_unique_max`,
or the rendered factors of a `decompose_general` or `decompose_string`
result (kind, triviality, and the unit or the map).  The inputs are seeded
products of elementary units on every cycle fixture, the seeded streams of
`test_solver_on_random_inners`, the first 30 mixed items of acceptance
criterion 5 and seeded vertex-fixing automorphisms of the
finite-dimensional string fixtures, so any change in which inverse, unit or
factors the library returns shows here."""

import hashlib
import random
from fractions import Fraction

from stringalg import Path, format_element
from stringalg.decompose import (decompose_general, decompose_string,
                                 solve_conjugation_unique_max)
from stringalg.morphisms import format_endomorphism, invert_unit

from conftest import SOURCES, make_algebra
from factories import (elementary_unit_paths, random_graded_identity_automorphism,
                       random_inner, random_unit_factors, unit_product)

CYCLE_FIXTURES = ("two_cycle_free", "three_cycle_free", "two_loops",
                  "cycle_pendant", "cycle_with_diamond")
STRING_FIXTURES = ("two_cycle_rel", "kronecker", "double_diamond", "doubled_line")

INVERSE_GOLDENS = [
    "333c67f2e08c6f4cda5535cf03bc03b8281b34ddf1df419584aa31dd0ac831bb",
    "d9a219adc1a89384fb055a0a5e8769f60b73d160c2340de96dfd0cc636d8274e",
    "5d8575e3283666b7b95748029c3c4dcba5dba50f639f2d9df3b81f7fa45c6e20",
    "e8a3f9b8b2bd7fa8242338b3d3de48c8bd39323a6dc608ff14908c91754f7528",
    "215c9c89778013239a74cbf4a1281f8907454aa14db8988ddee20c7d77bb3bea",
    "caa4f135c9fb38876b5418d5838cc7dce6befea6a20973145177c36a84738629",
    "189998d42e06f5018fe60d32893f212a2d14204a19d16f65fb401b184984b4fc",
    "29aad880b47caeab98611bfd5bd9ec65930055d4383e2ee8922404581a73a7fb",
    "971d8dac8233039bfc00b36590ed224bd1f9d3270792eab4a69b197040c483f9",
    "93cdf143b9f2cdba163d84bae084247c8b3ada2ee5937f405d01823c274affed",
    "2533810efdc650d77b5f6b49471e0a031239f9d7bbda195ff6cd344df950f358",
    "8fb10e77090312bfaaedfd2326acb021d64adf44bfc1e587a7bda8fe19bce402",
    "0b3d0c72c19b4fb6c643d12ca1a60d3f706cf2c5a6596a7ea94e009e00283a00",
    "10bc3b30942c3c7214cd4e3c391aa43b87ff725e0160e3851d0d6ee57b7701d8",
    "6b7138f8bb44e0f61b8b2a829fbcdc1adf472323174e25da7acb1860c4680c79",
    "3625ad59116d9a960616efa4ac7a727848a516eaa88dda7aad53946a244fa799",
    "3fe917185e75b1250303ff8225e4d077735dc32f6d032505ade2713b0852f31a",
    "eea455b3c33e4a93624314c8b0c00524c7f9532a168e3b3cb7b45acfc52c27fa",
    "3b2c47c0d9accd607adf5ea646df8edb8b3c1e52a1002bdbe56eaeca2ef3d61b",
    "afff86dda5529f9e51e09a3fcef83c4ad09b569ca5e351f3fa30a14ac62c5e4e",
    "d3bbd678a8b72d4ca98dd04cec533e2618cd815e009f35e6d66e5dbe9dab7605",
    "60056d9f41d2f135932706ea549ca06baa3c166668171c0df813bf79b99d04f0",
    "efec6ba98a6e72b9562e6a0dab59810f8843b6cc4aba86a51a224ad08b0cdd91",
    "efec6ba98a6e72b9562e6a0dab59810f8843b6cc4aba86a51a224ad08b0cdd91",
    "2b8b8d1a2aa5cfcee71145fd4b7e5e311d411ad4e01e2de3218e2ca2135a7a42",
    "305e65e8c5babb6ee591026134e078d57fdc5196c59f66bce8a8346b58f5f461",
    "d4d690a12ffa07130ac0a42b70f08cad9a99b5e6cb052a6e0e5abd2bec819be2",
    "5d080f20dd6f0dce78d1de010f7b7a328f9f04e9b1063c3da3cb73e4134cf58c",
    "c5db7807250085f5c38d5455d67440461d1dbff52ec4cff0dc97e1be29c68b03",
    "eda3e3bd6188bef28f0972789d2fb47e68d5e5029e8f85e1d3ef487d215b4213",
    "028959f74a93ae84614ab81920a2a7c93314a820051e27bff8fb404c7133a7b4",
    "c071825fe3aad8d8a577adf132a78851cee67eb1eee2defc6bdb0c1f3a19e643",
    "06659af97fd23dc84b3a622e5da0f2b6b38cb0da21ae21521ac31ea699c29de3",
    "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    "707cec4a83d9871cad956a10d32ce46f862e70f898a86c31e1845602122aec3b",
    "0de31e4937436d99129ef958eb2cb19f58f20f69af34ba488e1372201d97a21c",
    "4379bb06506419bffaef45650307e9dd2f890cff1ae999d4c7a18d8b924d2c77",
    "7314312e1a700d1ed95d063812841818ac460e9ab602a3b7f6990e19a34d205e",
    "dec611f2388c3e6449ac2c0b41b0111ab5db51fb10cf2c9ee628a8f2c5473442",
    "b37de4c81cb89009a58214bbbe17156bcfa5b9abf7ad290d21ee5fa1fbb6dc21",
]
from test_compose import _criterion_5_items

SOLVER_UNIT_GOLDENS = [
    "7d5c1dd6d3807d7f3af0e1c2bf5b1d96b3c58532c2072ec2f9a5840ab17d1cb6",
    "7314312e1a700d1ed95d063812841818ac460e9ab602a3b7f6990e19a34d205e",
    "aaa9c0a6c1e04c690ba5b900ec512e448c29d53f3e2377f33022e529905767fe",
    "f57e95f812fb178f78f1dcca74fdde7f1fdade59f3ced7a874e854f1e4753b5e",
    "2e68aaeab8626dc5f97c2421167a8c688dbbf395fe03b4b30868dcf3e3a065be",
    "b224deb5465bd9b34b3e5ee09d73170bc0164c6c97a31f08b3a958d8edf34fd2",
    "14535e79a2eaa8033c66330f343372f1fdbdb3bd03778985e741c3de447323d6",
    "03af5cf4856c8901e1557b8d06ec5887dbf503113ef8d46e5ee927420ed3e7d0",
    "c31c235cc972e321f48bb938985f5b78d66808d3eb25dcbe83586c724fe045aa",
    "aa7c6e04a8d559abaf455f391e3d1435083a5cb661b72632716c3159bd570841",
    "837e66e01132c6c76d52ca9fb867116ecefe20229d2533802dbf814c835fe460",
    "385a959edfbc3855826193493088b875d6c533f0afcd81f81d0ef368f3d22a61",
    "834447e276346a1c174257f1e661775095ae3eecceabb5bf9b510aed046052b6",
    "1fa0762c1954c783a77aa14d979d39cb0dd629958e80df969f7887f116e34990",
    "1843388a6d8bb3b4c565361b10614e4d25466011b3abadb28add1e071e939002",
    "de7e4e5dafe2dbc5b5ebce16f7e030a8ca9a817f6ca13af27f159ef634fbc687",
    "b2cd8d52bd9570bb45b1562c063e5ed60f411908ede2fa97bccbf278169dc980",
    "b96f8689ddf795299fb1263c0dbe079489c1c55eae7701ebe404ba8e27e81b3d",
    "b96f8689ddf795299fb1263c0dbe079489c1c55eae7701ebe404ba8e27e81b3d",
    "31aa531047e9db13bb5a0a5445ef50fc7ef9fb9e1ff2d6fdae7beeaa85a305c7",
    "96f91891f0ff29942ed8610cea2f9de9e19e84d2bfc85938cacc1a8c65126a76",
    "b2cd8d52bd9570bb45b1562c063e5ed60f411908ede2fa97bccbf278169dc980",
    "3cb29640d61cfef2343c6ca78b7fa5f11fc9f89e7aa674566bf2a38ccb3bbc34",
    "b2fbed8311ef78409cb15142713afe83b3781bf1bd8df7c441047a083721d211",
]

DECOMPOSITION_GOLDENS = [
    "4607354b50c29f9c4787a957355bb754dc966fe07f4f126095b5d71636256aa9",
    "6ea1b25ac7c9b11f4bad6515d77c5a2d453f07fb581cd841f41bad8cbbfc299e",
    "11bbd09cbb4a68796f6719e8ed186496a1a7b38401d26b36e034d8d8639563c1",
    "dbfd3a0936097fcc56d50a82d7bce7d238095b73f69ddf7bf1c5524ed2252767",
    "886fbf26784e8ed67d0b842a21e9ea982b54cc57fe7af0e2912e9e350764f7ad",
    "fa30b0fe7a42923a717a82741d1d95a71a795da8a8ec02e1d2f404c49b83108a",
    "38d2fbae8424fc5425523c5b213f80295af81bfe537a9f59b2fa0998c2469896",
    "46d63441a385d86c56a2cb87e493e859c1e21a22d04c34050a40e8e989fbc54e",
    "bf5ec2a40a0886a1f37953b74aff9a7e6873d65fe8dd889a06a07a3cc8085863",
    "e00b743fe63fdc4feb2123e842a65a39d11f85530cbc68296c5661f1b4e7eaa9",
    "3921034612e5fc3960829998b780724181ebc2c8d5084bb015df7b9ca38405b3",
    "8289d8298c1eaf994e8018608c394a4d66524959fe36ff56680f1c7f63529546",
    "b7fced1325a2b9856220f03cccbedffc3d3e7f22b40214e7bcd4a2b20ebb6710",
    "d4856d12c9c456dd6577f3890f7c906d5358405866158f19eef4989b916d7bab",
    "d8f6018fab73908581b920516991cad768286daf83cc6b866364fed72deacf12",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "388fc5d977904025937bed9bd6628e2f5cefa8790f64aff6ac432a12a6321772",
    "6771bd561e555a2b11d2fd32bc2279a0749c5aaa3aef24810ead25be69b2b521",
    "4550c61b96db4d5508d9dd0312eb0fe62c9661f9c87d13d396adaeada3bfd7af",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "8a4e2de76ce5a0fa2e2942aa7c9feebb1687cec3c0f06ba6a931aea5b0354ce5",
    "f6afccbf178a1eb47897f8e532b0f25c6d6defc9771218727531fc0a337d0c05",
    "cdf4e9d50277742a36133e5ae7122ce39671c0056cea54ab1321fe5cfd5a7387",
    "2fe205a280775aca4d3030c15d90e7229b5be26071361b0e2a83efd033c629a0",
    "d4a53407cd4c90defb9a52fb4919003da2c3b6bad2a5143de2900fd65cd336e1",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "80b9d78c85d3414cdfa2d2485478ededfd8b31d76eeca48ab7e1b66d30b03bf7",
    "c40fefbef376688894fceb7687394e88b224bca6250cc993a118bf0db236967d",
    "6c920d02975f530be5c5b187aa8dcb851ed79f6dc6a8ea0a786019300d232c85",
    "50fc154988e7085310425523ae3077212e264851382ee8e51b8f8807619b318e",
]


STRING_DECOMPOSITION_GOLDENS = [
    "68554a1685a56c128a43be010a53050ede890d68e1f7103ffa41c6c084af3390",
    "4f9b4651f0278795aef81c2c828c0748b505ed8ecae4cd3174be3f0161e4e4c2",
    "544a222c0becfc6efbddda6a629793bd8387d99987b43045b517b5564f944b52",
    "529634f2d19b8f5dcf2980776cce67ff1d503da57ef7feec22dbfa47355fffab",
    "296464ebb28c3e73b50f70cb43125a70569da0376bdadfb066bb6d55e70a5684",
    "5e34a759c3d7f63b671c4e9a664fdc8980aa1731c44b3aea6390bd7cd718c87a",
    "64b422078c6db292f404324cad4ab514680a50f7074acdf32eaa8eae7f7518da",
    "43fbbc9505d6dedc5a3370cd1ca7f9e7f82994cfd17095578fcef0dcfbd7b62a",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7757124d1c1fa79dc1ee60d80c422e374dbc25450d32769b2c0cf9006c9e54c9",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "47b9a05de1d1c73108603dbfab4714e37563e47c4565d43a2ade4399de0eb0d5",
    "7e254094b03a2dad05f7d4776d90b5fefe9453e7a4bad90f1830decab1f167a2",
    "43ab0755863060cd71ee3bd9f6cf29a01988330bd2bc73c0cc6fe4b6d5c287c1",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "56d1e5e458b1d21c3383bb7adc9a3089510aa84229d941c74a2952590452bc1b",
    "1033b3ad37aa09ad355bf39772a277e30ce92428b02f2aecb16b0104cf34f2a0",
    "7b245acf0f28c09c181372f5b99278adca0fc3829a6e303f7989f77d7106deeb",
    "47b9a05de1d1c73108603dbfab4714e37563e47c4565d43a2ade4399de0eb0d5",
    "43ab0755863060cd71ee3bd9f6cf29a01988330bd2bc73c0cc6fe4b6d5c287c1",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
    "7a3549b26c2059a41c18020abdc805a43eb083fe8dd9f56ea816352cd749336c",
]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def inverse_texts():
    """Inverses of seeded units on every cycle fixture: values as
    random_inner draws them, longer products reaching x-degree 13, and one
    such product times a degree-0 part other than 1."""
    rng = random.Random(13)
    for name in CYCLE_FIXTURES:
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        long_paths = elementary_unit_paths(algebra, max_degree=12)
        values = [unit_product(algebra, random_unit_factors(rng, paths))
                  for _ in range(4)]
        values += [unit_product(algebra, random_unit_factors(rng, long_paths, most=5))
                   for _ in range(3)]
        low = algebra.element({Path.stationary(v): Fraction(rng.randint(1, 4))
                               for v in algebra.quiver.vertices})
        values.append(low * values[-1])
        for value in values:
            yield format_element(invert_unit(value).inverse)


def solver_unit_texts():
    """The units of test_solver_on_random_inners, in order."""
    rng = random.Random(9)
    for name in ("two_cycle_free", "three_cycle_free", "two_loops"):
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra)
        for _ in range(8):
            unit = solve_conjugation_unique_max(random_inner(rng, algebra, paths))
            yield format_element(unit.value)


def _render(decomposition):
    lines = []
    for factor in decomposition.factors:
        lines.append(f"factor {factor.kind} trivial={factor.is_trivial}")
        if factor.unit is not None:
            lines.append(f"unit {format_element(factor.unit.value)}")
        elif not factor.is_trivial:
            lines.append(format_endomorphism(factor.endomorphism))
    return "\n".join(lines)


def decomposition_texts():
    """The rendered decompositions of the first 30 criterion-5 mixed items."""
    for f in _criterion_5_items(30):
        yield _render(decompose_general(f))


def string_decomposition_texts():
    """The rendered `decompose_string` results of ten seeded automorphisms
    per finite-dimensional string fixture, drawn from exponentials and
    conjugations by units on closed paths, so every one fixes the vertices."""
    rng = random.Random(29)
    for name in STRING_FIXTURES:
        algebra = make_algebra(SOURCES[name])
        paths = elementary_unit_paths(algebra, cycles_only=True)
        for _ in range(10):
            f = random_graded_identity_automorphism(rng, algebra, paths=paths)
            yield _render(decompose_string(f))


def test_inverses_are_pinned():
    assert [_digest(t) for t in inverse_texts()] == INVERSE_GOLDENS


def test_solver_units_are_pinned():
    assert [_digest(t) for t in solver_unit_texts()] == SOLVER_UNIT_GOLDENS


def test_decompositions_are_pinned():
    assert [_digest(t) for t in decomposition_texts()] == DECOMPOSITION_GOLDENS


def test_string_decompositions_are_pinned():
    assert [_digest(t) for t in string_decomposition_texts()] == \
        STRING_DECOMPOSITION_GOLDENS
