"""The package's one record base, `errors.Record`: construction, freezing,
equality, `replace` and `fields`."""

import numpy as np
import pytest

from cavitycool.analysis import BiExpFit
from cavitycool.config import ProtocolConfig, SynthConfig, default_run_config, with_seed
from cavitycool.errors import MISSING, DomainError, fields, replace
from cavitycool.synth import NoiseTrace
from cavitycool.thermal import BathPort, BathSet, CavityMode


def test_fields_cannot_be_assigned_or_deleted():
    cfg = default_run_config()
    for record, name in ((cfg, "n_shots"), (cfg.synth, "rng_seed"), (cfg.mode, "extra")):
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(record, name)
    assert cfg.n_shots == 600 and cfg.synth.rng_seed == 20260817
    trace = NoiseTrace(np.arange(3.0), np.zeros((1, 3)))
    with pytest.raises(AttributeError):
        trace.voltages_v = np.ones((1, 3))


def test_replace_reruns_every_bound_and_rule():
    base = default_run_config()
    with pytest.raises(DomainError, match=r"^rng_seed must be <= 18446744073709551615, got "):
        with_seed(base, 2**64)
    with pytest.raises(DomainError, match=r"^n_shots must be >= 1, got 0$"):
        replace(base, n_shots=0)
    with pytest.raises(DomainError, match="cool_duration_s = 0.001 must not exceed"):
        replace(base.protocol, cool_duration_s=1e-3)
    with pytest.raises(DomainError, match="must sit below Nyquist"):
        replace(base.synth, one_over_f_corner_hz=1e9)
    with pytest.raises(DomainError, match="port name must be non-empty"):
        replace(base, baths=replace(base.baths, ports=base.baths.ports[:1] * 2))
    with pytest.raises(TypeError, match="'n_shot'"):
        replace(base, n_shots=2, n_shot=2)
    changed = replace(base, n_shots=2)
    assert changed.n_shots == 2 and base.n_shots == 600
    assert replace(changed, n_shots=600) == base


def test_equal_fields_give_equal_records_and_hashes():
    a, b = default_run_config(), default_run_config()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, with_seed(a, 1)}) == 2
    assert with_seed(a, 1) != a
    # Records of different classes never compare equal.
    assert ProtocolConfig() != (40e-6, 160e-6)
    assert CavityMode(1e9, 1e4) != BathSet(1e9, ())


def test_positional_and_keyword_construction_agree():
    assert CavityMode(1e9, 1e4) == CavityMode(intrinsic_q=1e4, frequency_hz=1e9)
    port = BathPort(5.0, 50.0, 0.1, role="cooling", name="cool")
    assert port == BathPort(
        coupling=5.0, load_temperature_k=50.0, link_loss_db=0.1, name="cool", role="cooling"
    )
    assert (port.link_temperature_k, port.loss_model) == (0.0, BathPort(0.0, 0.0).loss_model)
    assert repr(CavityMode(1e9, 1e4)) == "CavityMode(frequency_hz=1000000000.0, intrinsic_q=10000.0)"


def test_post_init_normalises_through_the_frozen_guard():
    port = BathPort(1.0, 4.0)
    assert BathSet(300.0, [port]).ports == (port,)
    trace = NoiseTrace(np.arange(3.0), np.zeros((1, 3)))
    assert not trace.times_s.flags.writeable and not trace.voltages_v.flags.writeable


@pytest.mark.parametrize("args, kwargs, message", [
    ((1e9,), {}, "CavityMode() missing argument 'intrinsic_q'"),
    ((1e9, 1e4), {"q": 1.0}, "CavityMode() got an unexpected argument 'q'"),
    ((1e9,), {"frequency_hz": 1e9}, "CavityMode() got multiple values for argument 'frequency_hz'"),
    ((1e9, 1e4, 1.0), {}, "CavityMode() takes 2 arguments, got 3"),
], ids=["missing", "unknown", "repeated", "too-many"])
def test_a_bad_argument_list_raises_type_error_naming_it(args, kwargs, message):
    with pytest.raises(TypeError) as exc:
        CavityMode(*args, **kwargs)
    assert str(exc.value) == message


def test_fields_list_names_and_bounds_in_declaration_order():
    assert [(f.name, f.bounds) for f in fields(SynthConfig)] == [
        ("sample_interval_s", ("> 0",)),
        ("rng_seed", (">= 0", "<= 18446744073709551615")),
        ("one_over_f_corner_hz", (">= 0",)),
        ("artifact_duration_s", ("> 0",)),
        ("artifact_amplitude_v", (">= 0",)),
        ("voltage_scale", (">= 0",)),
    ]
    assert fields(SynthConfig()) == fields(SynthConfig)
    port = {f.name: f for f in fields(BathPort)}
    assert list(port) == [
        "coupling", "load_temperature_k", "link_loss_db", "link_temperature_k",
        "loss_model", "name", "role",
    ]
    assert (port["coupling"].default, port["link_loss_db"].default, port["name"].default) == (
        MISSING, 0.0, ""
    )
    assert port["loss_model"].type == "LossModel" and port["loss_model"].bounds == ()
    # Unannotated class constants are not fields.
    assert "a2_db" not in {f.name for f in fields(BiExpFit)} and BiExpFit.a2_db == 0.0
