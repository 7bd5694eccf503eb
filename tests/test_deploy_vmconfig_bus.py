"""Control plane: VM configuration files and the message bus."""

import pytest

from repro.deploy import MessageBus, VmConfigFile
from repro.errors import ConfigError, SimulationError
from repro.simulator import Simulator


class TestVmConfigFile:
    def test_valid_config(self):
        config = VmConfigFile(vmid=42, disk_image="/nfs/disks/42.img")
        assert config.vmid_str == "0042"
        assert config.memory_mib == 4096.0
        assert config.vcpus == 1
        assert "network" in config.devices

    def test_vmid_is_four_digits(self):
        with pytest.raises(ConfigError):
            VmConfigFile(vmid=10000, disk_image="x.img")
        with pytest.raises(ConfigError):
            VmConfigFile(vmid=-1, disk_image="x.img")

    def test_requires_disk_image(self):
        with pytest.raises(ConfigError):
            VmConfigFile(vmid=1, disk_image="")

    def test_positive_resources(self):
        with pytest.raises(ConfigError):
            VmConfigFile(vmid=1, disk_image="x.img", memory_mib=0.0)
        with pytest.raises(ConfigError):
            VmConfigFile(vmid=1, disk_image="x.img", vcpus=0)

    def test_file_roundtrip(self, tmp_path):
        config = VmConfigFile(
            vmid=7, disk_image="/nfs/disks/7.img", memory_mib=2048.0,
            vcpus=2, devices={"network": "br1", "vfb": "vnc"},
        )
        path = tmp_path / "0007.cfg"
        config.save(path)
        loaded = VmConfigFile.load(path)
        assert loaded == config

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            VmConfigFile.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            VmConfigFile.load(tmp_path / "nope.cfg")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            VmConfigFile.from_dict(
                {"vmid": 1, "disk_image": "x", "color": "red"}
            )

    def test_from_dict_requires_vmid(self):
        with pytest.raises(ConfigError):
            VmConfigFile.from_dict({"disk_image": "x"})


class TestMessageBus:
    def test_delivery_with_latency(self):
        sim = Simulator()
        bus = MessageBus(sim, latency_s=0.5)
        received = []
        bus.register("b", lambda source, msg: received.append((source, msg)))
        a = bus.register("a", lambda source, msg: None)
        a.send("b", "hello")
        assert received == []  # not yet delivered
        sim.advance(1.0)
        assert received == [("a", "hello")]
        assert sim.now == 1.0

    def test_unknown_destination(self):
        sim = Simulator()
        bus = MessageBus(sim)
        a = bus.register("a", lambda s, m: None)
        with pytest.raises(SimulationError):
            a.send("ghost", "boo")

    def test_duplicate_registration(self):
        bus = MessageBus(Simulator())
        bus.register("a", lambda s, m: None)
        with pytest.raises(ConfigError):
            bus.register("a", lambda s, m: None)

    def test_log_queries(self):
        sim = Simulator()
        bus = MessageBus(sim)
        bus.register("b", lambda s, m: None)
        a = bus.register("a", lambda s, m: None)
        a.send("b", 1)
        a.send("b", "two")
        sim.advance(1.0)
        assert bus.messages_to("b") == [1, "two"]
        assert bus.messages_of_type(str) == ["two"]

    def test_ordering_preserved_for_same_destination(self):
        sim = Simulator()
        bus = MessageBus(sim)
        received = []
        bus.register("b", lambda s, m: received.append(m))
        a = bus.register("a", lambda s, m: None)
        for value in range(5):
            a.send("b", value)
        sim.advance(1.0)
        assert received == [0, 1, 2, 3, 4]

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            MessageBus(Simulator(), latency_s=-1.0)
