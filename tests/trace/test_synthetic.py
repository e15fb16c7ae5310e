"""Statistical tests for the synthetic trace generator."""

import collections
import hashlib
from itertools import islice

import pytest

from repro.memory.request import LINE_BYTES
from repro.trace.record import AccessKind
from repro.trace.synthetic import SyntheticTraceGenerator
from repro.trace.workloads import ALL_WORKLOADS, get_workload


def _sample(name, n=20_000, seed=7, **kwargs):
    generator = SyntheticTraceGenerator(get_workload(name), seed=seed, **kwargs)
    return generator.take(n)


def test_generator_is_deterministic():
    a = _sample("canneal", n=500)
    b = _sample("canneal", n=500)
    assert a == b


def test_different_seeds_differ():
    a = SyntheticTraceGenerator(get_workload("canneal"), seed=1).take(200)
    b = SyntheticTraceGenerator(get_workload("canneal"), seed=2).take(200)
    assert a != b


def test_addresses_line_aligned():
    for record in _sample("MP1", n=2000):
        assert record.address % LINE_BYTES == 0


@pytest.mark.parametrize("name", ["canneal", "MP4", "cactusADM", "freqmine"])
def test_rpki_wpki_within_tolerance(name):
    workload = get_workload(name)
    records = _sample(name, n=30_000)
    instructions = sum(r.gap_instructions for r in records)
    reads = sum(1 for r in records if r.kind is AccessKind.READ)
    writes = len(records) - reads
    rpki = reads / instructions * 1000
    wpki = writes / instructions * 1000
    assert rpki == pytest.approx(workload.rpki, rel=0.15)
    assert wpki == pytest.approx(workload.wpki, rel=0.15)


def test_dirty_distribution_matches_profile():
    workload = get_workload("cactusADM")
    records = _sample("cactusADM", n=40_000)
    counts = collections.Counter(
        bin(r.dirty_mask).count("1")
        for r in records
        if r.kind is AccessKind.WRITE_BACK
    )
    total = sum(counts.values())
    for i, expected in enumerate(workload.dirty_word_distribution):
        observed = counts.get(i, 0) / total
        assert observed == pytest.approx(expected, abs=0.03), f"{i} words"


def test_offset_correlation_visible():
    """With correlation 0.32, successive write-backs share offsets far
    more often than with correlation 0."""
    import dataclasses

    def same_mask_fraction(correlation):
        profile = dataclasses.replace(
            get_workload("canneal"), offset_correlation=correlation
        )
        generator = SyntheticTraceGenerator(profile, seed=11)
        records = [
            r for r in generator.take(40_000)
            if r.kind is AccessKind.WRITE_BACK and r.dirty_mask
        ]
        same = sum(
            1
            for a, b in zip(records, records[1:])
            if a.dirty_mask == b.dirty_mask
        )
        return same / (len(records) - 1)

    assert same_mask_fraction(0.32) > 1.5 * same_mask_fraction(0.0)


def test_offset_bias_favours_low_words():
    records = _sample("MP4", n=40_000)
    word_counts = [0] * 8
    for record in records:
        for w in range(8):
            if (record.dirty_mask >> w) & 1:
                word_counts[w] += 1
    assert word_counts[0] > word_counts[7]


def test_mp_cores_have_disjoint_footprints():
    gen0 = SyntheticTraceGenerator(get_workload("MP1"), seed=1, core_id=0)
    gen1 = SyntheticTraceGenerator(get_workload("MP1"), seed=1, core_id=1)
    lines0 = {r.line_address for r in gen0.take(2000)}
    lines1 = {r.line_address for r in gen1.take(2000)}
    assert not lines0 & lines1


def test_mt_cores_share_footprint():
    gen0 = SyntheticTraceGenerator(get_workload("canneal"), seed=1, core_id=0)
    gen1 = SyntheticTraceGenerator(get_workload("canneal"), seed=1, core_id=1)
    lines0 = {r.line_address for r in gen0.take(4000)}
    lines1 = {r.line_address for r in gen1.take(4000)}
    assert lines0 & lines1


def test_every_workload_generates():
    for workload in ALL_WORKLOADS:
        generator = SyntheticTraceGenerator(workload, seed=3)
        records = generator.take(50)
        assert len(records) == 50


def test_sequential_reads_without_streams_are_refused():
    """The inlined stream draw would spin on zero streams; refuse first."""
    import dataclasses

    profile = dataclasses.replace(get_workload("canneal"), stream_count=0)
    with pytest.raises(ValueError, match="no read streams"):
        SyntheticTraceGenerator(profile).take(1)
    unused = dataclasses.replace(profile, sequential_fraction=0.0)
    assert len(SyntheticTraceGenerator(unused).take(100)) == 100


def test_write_bursts_exist():
    records = _sample("canneal", n=10_000)
    kinds = [r.kind for r in records]
    runs = 0
    current = 0
    for kind in kinds:
        if kind is AccessKind.WRITE_BACK:
            current += 1
            runs = max(runs, current)
        else:
            current = 0
    assert runs >= 3  # eviction waves produce back-to-back write-backs


def test_write_read_affinity_draws_from_recent_reads():
    """The affinity path must pick lines the generator actually read
    recently — this is the draw that must stay insertion-ordered."""
    workload = get_workload("canneal")
    generator = SyntheticTraceGenerator(workload, seed=3)
    seen_reads = []
    affinity_hits = 0
    for record in generator.take(20_000):
        line = record.address // LINE_BYTES
        if record.kind is AccessKind.READ:
            seen_reads.append(line)
        elif line in seen_reads[-32:]:
            affinity_hits += 1
    assert affinity_hits > 0


def test_stream_identical_across_hash_seeds():
    """PYTHONHASHSEED must not leak into the trace stream.

    ``_recent_reads`` is drawn from by index, so only insertion order can
    matter; this pins the whole record stream (the draw that PR 1's
    ``zlib.crc32`` fix and the deque-index affinity draw both protect)
    across interpreters with different hash randomisation.
    """
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import hashlib;"
        "from repro.trace.synthetic import SyntheticTraceGenerator;"
        "from repro.trace.workloads import get_workload;"
        "g = SyntheticTraceGenerator("
        "    get_workload('canneal'), seed=11, core_id=3, n_cores=8);"
        "h = hashlib.sha256();"
        "[h.update(repr((r.kind.value, r.address, r.dirty_mask,"
        " r.gap_instructions)).encode()) for r in g.take(4000)];"
        "print(h.hexdigest())"
    )
    digests = set()
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, f"stream depends on PYTHONHASHSEED: {digests}"


# ----------------------------------------------------------------------
# One stream per generator, drawn on demand
# ----------------------------------------------------------------------

#: sha256 over the first 1,500 records of every workload at cores 0 and 3
#: (seed 11, eight cores), hashing ``repr((kind.value, address,
#: dirty_mask, gap_instructions, new_words))`` per record.  Taken from the
#: epoch-buffered generator this stream replaced; a change to the draws,
#: or an interpreter whose ``random`` internals differ from the inlined
#: ones, fails here.
STREAM_DIGESTS = {
    "canneal": ("10c5bac3cb6f3f659da834c480eca875658a7c09bfefa990a6e96eb77254e049", "f06d18040135879487ae57ac4a36da551eecf9ff0ef0d7f63f232dda2cc76a24"),
    "dedup": ("7a89c49cf9ae2f8b6ba68a74c5dbd039b8837cb8e19df9328726a5406b34b5eb", "25a00dfc0593666ab204d7d59904c511da4b8551efe5552f901665a1147aae67"),
    "facesim": ("ee261a29d58a3c8b70786cb27ea900e48be12a385d9dbc69df594f1327d24340", "97d50c6023b64c742613851392dd059011d078cd547b1313c168d1c881ab99cc"),
    "fluidanimate": ("46b8f00019ff7ff098f8803e6002d2c2c86ea5621f642a0b6ed9946706f00bd6", "527fdc892c68e768de9bc5d4d7eeadb64634d8e347f8fdd7f5c9b2e456faeabc"),
    "freqmine": ("1d8269b8cccdef6d98938c171c651521b7752a788747fee343a3588ad01c41da", "0600917ffc9e24e973ceba12f79508089d4d1bb2461493a03c10e9d5dd5fcf81"),
    "streamcluster": ("14e7a8df5137e83836e34b6d276b9fe99a697e9045e1f24802dcf2900d961f4b", "f727009ef9911042d8b59e700adb369f2e7674d1d6825d1859014a46a6f80dee"),
    "ferret": ("e2b697ba493823bd09c9e4d05b2a1d1f7a21add3e4b9e5e9ab107eb720daa365", "f6ebb9bc9cccf526a0e0faab2012d4aa1083613c79968fdb975023f0a8c9209d"),
    "MP1": ("8650faa6eda9d611533a7eb922d6bcf4630109b937746444e0948451e5961772", "5d3791fcddcb57696d3a8d2018aa9e479a673032f7cafe8f38309de3558dcbdd"),
    "MP2": ("f7ea9c8abfa08293ee60a6772280ca9a54d9b6f65690a4d12dc9fbf4259fa2c8", "2fa3f5dbece90fc081ddc2e161907d06264c979c60fe29ac145f9a9be2981243"),
    "MP3": ("910a78c4dbc4ed9adfe9dbbd2e540f284bbb4af38aa6aa9580393e0c8213c48e", "75bc7c31217f4a2b5919583cbbf8b9ff11caef97ff9926432b19d6f91679d36c"),
    "MP4": ("fcac68ecd8ad09ad5c99fee4c78299df61cf2735bda683b291deb759f1f559fb", "298dfa2c7f95bb6da278bb089470062ddd5b4c42a0d7b5798ae8ef5abcf3da66"),
    "MP5": ("e9ed99624487410804ce22496e4fb0e2c91185812c1c862484dde1564c730fb7", "04f8cb16bfbeee04889287883ba0277f198efd11923718665d123daaa8b7b4ea"),
    "MP6": ("0abeac480dd29270cd5cfbe1ee6ff44876a86d5c7141ca1ac5bb71262af0019d", "c88e70d75eb7f0d4181ac2141101de4bc7e28de645918ccbab1e904a92071de8"),
    "mcf": ("608c10a22d23bea7d435d8365e61e7cabcdc4ad5e06001713f151c08d370fef3", "67ce09cb856c1d867099b0a48fb9061552cab0bf47befd6c2292ed2b58dbb27a"),
    "gemsFDTD": ("ff5cedb177786f383d35e87d32043bc122363b8e08724a53544e176acf7034c8", "6bc114dc50586215116f31c1627555a53efc4c31d99f234ab695633e6e0883a8"),
    "astar": ("6233dbc66c56cce1542d50a965bd0a7346395d9a25163e768c6a5dff39e21f54", "d346bb7943ca78a019001dff4af0458879388ae028837f0e9fe31dba5fd778a6"),
    "sphinx3": ("1dc34fb92d3c63be614c4e7fdf473b6786f441a7f647ed4ddd2379eda10f1ff1", "c93ee512df56f3b3c657395e5a9dd8f9be57b797f0f93aee416257a487a42bb1"),
    "gromacs": ("589a111f0f5541ad946eaf7aefca298e09f9467d74f0c048d520d0af2acd2186", "fa362a75f3c7aa9ed9a1e473b96d8d0b73a6c4cd04f556f8ee5bf1da85c78238"),
    "h264ref": ("e9c7182e873703cd0db456676c43d9ad7798e01a86926ed2493740ef5c26400d", "be9990173c996236fb4d1f21228367ef4b12b7e1e9b20fcaac077b875641165b"),
    "cactusADM": ("d5c2fd9c01358efa2299640812461689ea65c9b2ed45540481d26927072d2a1d", "a70a37a1e904ff0f4c0718ab185f6235667a4db7dc2cf624e4e3952b695400ce"),
    "soplex": ("7e440082498276383b20c8e0c549726774da75571bc25f7d8b4b6f127f29551a", "d794a0032b6070fa2d2fa97a3b34bf756dea3d7c1b3758276709028b618642e4"),
    "omnetpp": ("80444ffe3f12a7b87c141a57d6c1cccbb0ede3d1bcd0e6db01d8b4f940cce245", "2c324913c1bb2fdc0c24f55772bd705006b28fa741062eb78469e527964ca96f"),
    "milc": ("46924ee03e9513e313d3d593ca0716cb283764b61c9dbbc4344f6ce2eb03bbd6", "a7261489e36110c315988fecd6d1e518e40db81c156790f66850814f0937f9f7"),
    "lbm": ("baa2e95d7389f2439191585a2a14b71c7115794b5d44119257ad627b9cbaa838", "7d25d8ee9f569b9c85c514bb1b651cb40303ca4b04b9844229edc05893643aeb"),
    "leslie3d": ("b907c27e978a0cbe50ab33845857147c06982f621eaac9f8e83391502984c56e", "301ebe9303906728434fc1843c83b9b4e47bf46ae39802613033a22e0067f9d6"),
    "stream-copy": ("8b63ccfbdb825553d03b176c532cf2225d27bce77312bfceaebbf1a1b082bf57", "f2c7b971a6de9fb5d62eda2ce193af8fd182375c25fc32da6349bc48c08cfeab"),
    "stream-scale": ("e33436430cffc53311fc91bff3342aa74c042f50762ee8213bcafb8186eddc95", "6cb9c82d5c3ca57c19e46138aea08e9c2bf04612e90fab68e5dfa5820719bfbc"),
    "stream-triad": ("ba897a2e030c16b2a7c1014219f3584c8b3b5238fa944336f67d9e30f44b111a", "76327badb53be5d403c3b06e4e8c696332abc2a48f98ef8617e2fd66cb7f70b6"),
    "oltp": ("4fe677e3ff6195544b9cd6552990d042ef91312ed17d22581904f6eb2f4a62e4", "f9e2fdac91fb84aedb7057b51ce16d194e276f7202defb4bac0a3236b6cd7f66"),
    "webserve": ("9fe2380e67a64784db483c2cbcd31fe52f8e042221492dcac67f65df65b3fc4e", "e779cbb9d8281303d24f74b33f6ee28dc78201e2e012c7af3ad59c8a4c24680f"),
    "kvstore": ("0131a7f318938858b55947f959008876d4fcaf75414fb610686861b1eea5c6a9", "4a702897889d0965346fb2d7775a24acee1142e92e0ccdc89aa35f245e007515"),
}


def _digest(records):
    digest = hashlib.sha256()
    for r in records:
        digest.update(repr((
            r.kind.value, r.address, r.dirty_mask, r.gap_instructions,
            r.new_words,
        )).encode())
    return digest.hexdigest()


def _generator(name="canneal", core_id=3):
    return SyntheticTraceGenerator(
        get_workload(name), seed=11, core_id=core_id, n_cores=8
    )


def test_stream_digests_are_pinned_for_every_workload():
    assert sorted(STREAM_DIGESTS) == sorted(w.name for w in ALL_WORKLOADS)
    for workload in ALL_WORKLOADS:
        for core_id, expected in zip((0, 3), STREAM_DIGESTS[workload.name]):
            generator = _generator(workload.name, core_id)
            # Read three ways in turn; the stream must not notice.
            records = generator.take(700) + generator.take(300)
            records += islice(generator.records(), 500)
            assert _digest(records) == expected, (workload.name, core_id)


def test_uneven_take_chunks_and_records_read_one_stream():
    reference = _generator().take(1000)
    chunked = _generator()
    pieces = [chunked.take(n) for n in (1, 0, 7, 300, 2, 690)]
    assert [r for piece in pieces for r in piece] == reference
    assert list(islice(_generator().records(), 1000)) == reference
    assert list(islice(iter(_generator()), 1000)) == reference


def test_take_then_records_continues_mid_burst():
    reference = _generator().take(2000)
    # Stop between back-to-back write-backs, inside an eviction wave.
    cut = next(
        i for i in range(1, len(reference))
        if reference[i - 1].kind is reference[i].kind is AccessKind.WRITE_BACK
    )
    generator = _generator()
    head = generator.take(cut)
    assert head + list(islice(generator.records(), 2000 - cut)) == reference


@pytest.mark.parametrize("tier_mb, functional", [
    pytest.param(None, False, id="direct"),
    pytest.param(0.25, False, id="tier"),
    pytest.param(None, True, id="direct-functional"),
    pytest.param(0.25, True, id="tier-functional"),
])
def test_a_run_draws_only_the_records_its_cores_issue(tier_mb, functional,
                                                      monkeypatch):
    """Every core's generator stops just past its last issued record,
    with or without a backing store."""
    from repro.core.systems import make_front_end, make_system
    from repro.sim.simulator import SimulationParams, SystemSimulator

    built = []

    class RecordedGenerator(SyntheticTraceGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((self, args, kwargs))

    monkeypatch.setattr(
        "repro.cpu.multicore.SyntheticTraceGenerator", RecordedGenerator
    )
    extra = {}
    if tier_mb is not None:
        extra["front_end"] = make_front_end("dram", capacity_mb=tier_mb)
    sim = SystemSimulator(
        make_system("rwow-rde", functional=functional),
        "canneal",
        SimulationParams(target_requests=3000, seed=7, **extra),
    )
    sim.run()
    cores = sim.multicore.cores
    assert len(built) == len(cores) == 8
    for core, (generator, args, kwargs) in zip(cores, built):
        issued = core.reads_issued + core.writes_issued
        fresh = SyntheticTraceGenerator(*args, **kwargs)
        fresh.take(issued)
        assert generator.rng.getstate() == fresh.rng.getstate(), core.core_id
