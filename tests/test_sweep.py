import hashlib
import json
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

import ecsumprod.sampling as sampling_module
import ecsumprod.sweep as sweep_module
from ecsumprod import (
    RECORD_FIELDS,
    CurveParams,
    ExperimentRecord,
    TooLarge,
    build_orbit,
    extremal_report,
    parse_config,
    render_csv,
    render_json,
    run_sweep,
)
from ecsumprod.field import IS_PRIME_BOUND
from ecsumprod.residue import euler_phi, units_of
from ecsumprod.sampling import sample_unit_subset
from oracles import oracle_phi

BASE = {"mode": "theorem2", "p_list": [5, 7], "master_seed": 42}


def config(**overrides):
    return parse_config({**BASE, **overrides})


def test_sample_unit_subset_examples():
    assert sample_unit_subset(9, 6, 123).tolist() == [1, 2, 4, 5, 7, 8]
    assert sample_unit_subset(9, 0, 1).tolist() == []
    got = sample_unit_subset(100, 10, 7).tolist()
    assert len(got) == 10 and got == sorted(got)
    assert set(got) <= set(units_of(100))
    assert sample_unit_subset(100, 10, 7).tolist() == got  # same seed, same draw
    assert sample_unit_subset(100, 10, 8).tolist() != got  # different seed moves it


def test_sample_unit_subset_guards():
    with pytest.raises(TooLarge):
        sample_unit_subset(9, 7, 0)  # phi(9) = 6
    with pytest.raises(ValueError):
        sample_unit_subset(9, -1, 0)


def test_parse_config_defaults():
    cfg = config()
    assert cfg.mode == "theorem2"
    assert cfg.p_list == (5, 7)
    assert cfg.p_range is None
    assert cfg.curves_per_p == 1
    assert cfg.sets_per_curve == 1
    assert cfg.set_size_rule == ("fraction", 0.5)
    assert cfg.nu == 1
    assert cfg.master_seed == 42


def test_parse_config_rejections():
    bad = [
        {**BASE, "surprise": 1},
        {**BASE, "mode": "theorem9"},
        {k: v for k, v in BASE.items() if k != "mode"},
        {**BASE, "p_range": [5, 40]},  # both p sources
        {"mode": "theorem2", "master_seed": 42},  # neither p source
        {**BASE, "p_list": [6]},
        {**BASE, "p_list": [3]},
        {**BASE, "p_list": "5,7"},
        {**BASE, "curves_per_p": 0},
        {**BASE, "curves_per_p": True},
        {**BASE, "sets_per_curve": -2},
        {**BASE, "set_size_rule": {"fixed": 0}},
        {**BASE, "set_size_rule": {"fraction": 0.0}},
        {**BASE, "set_size_rule": {"fraction": 1.5}},
        {**BASE, "set_size_rule": {"weird": 1}},
        {**BASE, "set_size_rule": {"fixed": 2, "fraction": 0.5}},
        {**BASE, "master_seed": -1},
        {**BASE, "master_seed": 1 << 64},
        {**BASE, "master_seed": True},
        {**BASE, "nu": 0},
        # the caps are the package's, not config keys
        {**BASE, "enumeration_cap": 50},
        {**BASE, "scan_cap": 50},
        "not a dict",
    ]
    for data in bad:
        with pytest.raises(ValueError):
            parse_config(data)


@pytest.mark.parametrize("data, match", [
    ({**BASE, "set_size_rule": {"fraction": True}}, "fraction"),
    ({**BASE, "set_size_rule": {"fixed": True}}, "fixed"),
    ({**BASE, "nu": True}, "nu"),
    ({"mode": "identities", "p_range": [True, 20]}, "p_range"),
    ({"mode": "identities", "p_range": [False, True]}, "p_range"),
])
def test_parse_config_rejects_booleans(data, match):
    # JSON true and false are Python bools, which are ints
    with pytest.raises(ValueError, match=match):
        parse_config(data)


def test_parse_config_p_range():
    cfg = parse_config({"mode": "identities", "p_range": [1, 20]})
    assert cfg.primes() == (5, 7, 11, 13, 17, 19)
    with pytest.raises(ValueError):
        parse_config({"mode": "identities", "p_range": [20, 1]})
    # past is_prime's bound, the sweep would test every number below hi first
    for hi in (IS_PRIME_BOUND, 2 ** 40):
        with pytest.raises(ValueError, match=f"exact only below {IS_PRIME_BOUND}, got {hi}"):
            parse_config({"mode": "identities", "p_range": [5, hi]})
    cfg = parse_config({"mode": "identities", "p_range": [IS_PRIME_BOUND - 19, IS_PRIME_BOUND - 1]})
    assert cfg.primes() == (IS_PRIME_BOUND - 12,)


def test_set_size_rule():
    cfg = config(set_size_rule={"fixed": 4})
    assert cfg.set_size(6) == 4
    assert cfg.set_size(2) == 2  # clamped to phi
    cfg = config(set_size_rule={"fraction": 0.5})
    assert cfg.set_size(6) == 3
    assert cfg.set_size(1) == 1  # floor would give 0, clamped up


def test_fixed_set_size_beyond_a_double_clamps_to_phi():
    # 10**400 is valid JSON but overflows a float; a fixed size stays an int
    cfg = config(set_size_rule={"fixed": 10**400})
    assert cfg.set_size_rule == ("fixed", 10**400)
    assert cfg.set_size(6) == 6
    (rec,) = run_sweep(parse_config({"mode": "theorem2", "p_list": [101], "master_seed": 1,
                                     "set_size_rule": {"fixed": 10**400}}))
    assert rec.error == "" and rec.sizeA == rec.sizeB == euler_phi(rec.T)


def test_sweep_deterministic():
    cfg = config(curves_per_p=2, sets_per_curve=2)
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert first == second
    assert render_csv(first) == render_csv(second)
    assert [r.experiment_id for r in first] == list(range(8))


def test_sweep_csv_golden():
    # pins every byte of each mode's CSV; the theorem1 cells at p = 1009
    # take the scan's FFT route (#M^2 > 2p)
    golden = {
        "theorem1": "663032780f3cb689ba516732608fdf7736fec2a64fb67dbfe35f67847d7f50af",
        "theorem2": "57a9ca97216d0ab2926505ad5f8c30450261dad3cb81770b14940d81ffbf1f6d",
        "theorem3": "27d899dc8a918e8d1f145be0961a3107d676d860c8d42ffcf565731dccee4784",
        "identities": "a0c0ff91229a1e5dfe246f946e252448dd188053492f6c6aba1f0dfe7cf8f403",
    }
    for mode, digest in golden.items():
        records = run_sweep(parse_config({
            "mode": mode, "p_list": [101, 211, 1009], "curves_per_p": 2,
            "sets_per_curve": 2, "nu": 2, "master_seed": 1}))
        assert all(r.error == "" for r in records)
        assert hashlib.sha256(render_csv(records).encode()).hexdigest() == digest, mode


def test_sweep_instance_golden():
    # pins which curve and which base point each (master_seed, p, curve) picks
    cfg = parse_config({"mode": "identities", "p_list": [101, 211, 307],
                        "curves_per_p": 2, "master_seed": 5})
    assert [(r.p, r.a4, r.a6, r.Px, r.Py, r.T) for r in run_sweep(cfg)] == [
        (101, 84, 97, 23, 37, 54),
        (101, 82, 34, 75, 83, 112),
        (211, 159, 183, 192, 3, 227),
        (211, 206, 178, 153, 98, 112),
        (307, 191, 70, 249, 201, 306),
        (307, 57, 31, 125, 184, 305),
    ]


def test_sweep_rows_populated():
    rows = run_sweep(config())
    assert len(rows) == 2
    for rec in rows:
        assert rec.error == ""
        assert rec.J is not None and rec.J >= rec.J_lower
        assert rec.N == rec.p + 1 - rec.t
        assert rec.T is not None and rec.N % rec.T == 0
        assert rec.seed is not None


def test_sweep_crash_isolation():
    # p = 10000019 is above curve.ENUMERATION_CAP; p = 5 still succeeds
    cfg = parse_config({"mode": "theorem2", "p_list": [10000019, 5], "master_seed": 1})
    rows = run_sweep(cfg)
    assert len(rows) == 2
    assert rows[0].p == 10000019 and rows[0].error == "CapExceeded"
    assert rows[0].a4 is None
    assert rows[1].p == 5 and rows[1].error == ""
    assert [r.experiment_id for r in rows] == [0, 1]


def test_capped_curve_fails_before_any_p_length_allocation(monkeypatch):
    seeds = []
    derive_seed = sweep_module.derive_seed

    def recording_derive_seed(*args):
        seeds.append(args)
        return derive_seed(*args)

    monkeypatch.setattr(sweep_module, "derive_seed", recording_derive_seed)
    tracemalloc.start()
    try:
        rows = run_sweep(config(p_list=[10000019], sets_per_curve=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.p, r.error) for r in rows] == [(10000019, "CapExceeded")] * 2
    # curve_summary's counts alone would take 10 MB at this p
    assert peak < 1 << 20
    # the curve's seed is derived before the check, as the benchmark's
    # cell marker expects
    assert seeds[0] == (42, 10000019, 0)


def test_capped_scan_fails_before_any_set_is_drawn(monkeypatch):
    def no_draw(*args, **kwargs):
        raise RuntimeError("sample_unit_subset was called")

    monkeypatch.setattr(sweep_module, "sample_unit_subset", no_draw)
    # p = 100003 is above charsum.SCAN_CAP but within the enumeration cap
    rows = run_sweep(config(mode="theorem1", p_list=[100003, 5]))
    assert [(r.p, r.error) for r in rows] == [(100003, "CapExceeded"), (5, "RuntimeError")]
    assert rows[0].a4 is not None and rows[0].thm_lhs is None


def test_sweep_prep_failure_of_any_class(monkeypatch, capsys):
    def broken_random_curve(p, rng, **kwargs):
        raise RuntimeError("no curve today")

    # a package error such as CapExceeded is an expected outcome: no traceback
    assert run_sweep(config(p_list=[10000019]))[0].error == "CapExceeded"
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(sampling_module, "random_curve", broken_random_curve)
    rows = run_sweep(config(sets_per_curve=2))
    assert [(r.p, r.error) for r in rows] == [(5, "RuntimeError")] * 2 + [(7, "RuntimeError")] * 2
    assert all(r.a4 is None and r.J is None for r in rows)
    # an exception from outside the package leaves its traceback on stderr
    assert capsys.readouterr().err.count("RuntimeError: no curve today") == 2


def test_sweep_cell_memory_error_fails_that_cell_alone(monkeypatch):
    cfg = config(curves_per_p=2, sets_per_curve=2)
    clean = run_sweep(cfg)
    real_report = sweep_module.sum_product_report
    calls = []

    def report_out_of_memory_once(table, a_set, b_set):
        calls.append(table.p)
        if len(calls) == 2:
            raise MemoryError
        return real_report(table, a_set, b_set)

    monkeypatch.setattr(sweep_module, "sum_product_report", report_out_of_memory_once)
    rows = run_sweep(cfg)
    assert len(calls) == len(rows) == 8
    assert rows[1].error == "MemoryError" and rows[1].J is None
    assert rows[1].a4 == clean[1].a4 and rows[1].T == clean[1].T  # instance columns stay
    assert rows[:1] + rows[2:] == clean[:1] + clean[2:]


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
def test_sweep_interrupts_propagate(monkeypatch, stop):
    def interrupted(*args, **kwargs):
        raise stop

    monkeypatch.setattr(sweep_module, "sum_product_report", interrupted)
    with pytest.raises(stop):
        run_sweep(config())
    monkeypatch.setattr(sampling_module, "random_curve", interrupted)
    with pytest.raises(stop):
        run_sweep(config())


def test_theorem2_rows_lie_in_the_band():
    # lhs = #S #T is at least max(#A, #B)^2 / 4 for any sets (an x is hit by
    # at most two units, and #T >= #H / 2 >= max(#A, #B) / 2) and at most
    # p ceil(phi(T) / 2) (#S <= p, and the units give at most that many x);
    # a row with S = F_p has J = #B^2 #H, one u for each (b1, b2, h)
    rows = []
    for seed in (1, 7):
        for f in (0.25, 0.5, 1.0):
            rows += run_sweep(parse_config({
                "mode": "theorem2", "p_list": [101, 211, 1009, 10007], "sets_per_curve": 2,
                "set_size_rule": {"fraction": f}, "master_seed": seed}))
    assert len(rows) == 48
    for r in rows:
        assert r.error == ""
        assert max(r.sizeA, r.sizeB) ** 2 / 4 <= r.thm_lhs <= r.p * -(-oracle_phi(r.T) // 2)
        if r.sizeS == r.p:
            assert r.J == r.sizeB ** 2 * r.sizeH


def test_sweep_identities_mode():
    cfg = parse_config({
        "mode": "identities", "p_list": [5, 7, 11],
        "curves_per_p": 3, "master_seed": 9,
    })
    rows = run_sweep(cfg)
    assert len(rows) == 9
    assert all(r.error == "" for r in rows)


def test_sweep_theorem1_columns():
    rows = run_sweep(config(mode="theorem1", p_list=[11, 13]))
    for rec in rows:
        assert rec.error == ""
        assert rec.thm_lhs is not None and rec.thm_rhs is not None
        assert rec.ratio == pytest.approx(rec.thm_lhs / rec.thm_rhs)
        assert rec.J is None  # not a counting mode


def test_sweep_theorem3_columns():
    # the first curve at p = 5 has an empty window
    rows = run_sweep(config(mode="theorem3", p_list=[5, 101, 151]))
    assert rows[0].error == "EmptyConstruction"
    for rec in rows:
        assert rec.H is not None
        assert rec.predicted_sizeA is not None
        phi = euler_phi(rec.T)
        assert rec.sizeT <= phi
        if rec.error == "":
            assert rec.sizeA_over_predicted == pytest.approx(
                rec.sizeA / rec.predicted_sizeA)
        # the row's theorem-3 pair and ratio are the report's own
        table = build_orbit(CurveParams(rec.p, rec.a4, rec.a6), (rec.Px, rec.Py), rec.T)
        rep = extremal_report(table)
        assert (rec.thm_lhs, rec.thm_rhs, rec.ratio) == (rep.lhs, rep.rhs, rep.ratio)
    assert rows[0].thm_rhs is None and rows[0].ratio is None


def test_empty_p_list():
    # p_list may be empty: zero records, header-only CSV
    cfg = parse_config({"mode": "theorem2", "p_list": []})
    rows = run_sweep(cfg)
    assert rows == []
    assert render_csv(rows) == ",".join(RECORD_FIELDS) + "\n"


def test_readme_csv_header_is_record_fields():
    # the README documents the wire format: its header block must be the code's
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    after = readme.split("Output columns, in wire order", 1)[1]
    block = after.split("```", 2)[1]
    assert block.strip() == ",".join(RECORD_FIELDS)


def test_config_docs_match_the_config_keys():
    # README's "Sweep configs" section and parse_config's schema name
    # exactly the keys that parse_config accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Sweep configs", 1)[1].split("\n## ", 1)[0]
    example = section.split("```json", 1)[1].split("```", 1)[0]
    parse_config(json.loads(example))
    keys = sweep_module._CONFIG_KEYS
    assert {k for k in keys if f"`{k}`" in section} == keys
    schema = parse_config.__doc__.split("Schema (JSON object):\n", 1)[1].split("\n\n", 1)[0]
    assert sorted(line.split()[0] for line in schema.splitlines()) == sorted(keys)


def test_csv_shape():
    rows = run_sweep(config())
    text = render_csv(rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert lines[0].startswith("experiment_id,p,a4,a6,N,t,T,Px,Py,nu,")
    assert len(lines) == len(rows) + 2 and lines[-1] == ""
    # None renders empty, floats carry 17 significant digits
    cells = lines[1].split(",")
    delta_cell = cells[RECORD_FIELDS.index("Delta")]
    assert delta_cell == format(rows[0].Delta, ".17g")
    assert cells[RECORD_FIELDS.index("H")] == ""


def test_json_round_trip():
    rows = run_sweep(config(mode="theorem3", p_list=[101]))
    text = render_json(rows)
    parsed = json.loads(text)
    assert parsed == [asdict(r) for r in rows]
    assert list(parsed[0].keys()) == list(RECORD_FIELDS)


def test_theorem3_empty_window_row():
    # At p = 13, seed 0, the low-x window holds no unit: the row keeps the
    # counts at 0, leaves ratio and thm_rhs empty and names the case.
    rows = run_sweep(config(mode="theorem3", p_list=[13], master_seed=0))
    assert len(rows) == 1
    rec = rows[0]
    assert (rec.sizeA, rec.sizeS, rec.sizeT) == (0, 0, 0)
    assert rec.ratio is None and rec.thm_rhs is None
    assert rec.error == "EmptyConstruction"
    cells = dict(zip(RECORD_FIELDS, render_csv(rows).splitlines()[1].split(",")))
    assert cells["ratio"] == cells["thm_rhs"] == ""
    assert cells["error"] == "EmptyConstruction"


def test_record_field_order():
    assert RECORD_FIELDS == (
        "experiment_id", "p", "a4", "a6", "N", "t", "T", "Px", "Py", "nu",
        "sizeA", "sizeB", "sizeS", "sizeT", "sizeH", "J", "J_lower", "Delta",
        "thm_lhs", "thm_rhs", "ratio", "seed", "H", "predicted_sizeA",
        "sizeA_over_predicted", "error",
    )
    assert ExperimentRecord(experiment_id=0, p=5).error == ""
