package gpu

import (
	"testing"
)

func TestNewFleetIndependentAllocators(t *testing.T) {
	f, err := NewFleet([]Spec{
		{Name: "small", MemBytes: 100},
		{Name: "big", MemBytes: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Fatalf("Size() = %d, want 2", f.Size())
	}
	if got := f.MaxCapacity(); got != 1000 {
		t.Errorf("MaxCapacity() = %d, want 1000", got)
	}
	if got := f.FitCount(500); got != 1 {
		t.Errorf("FitCount(500) = %d, want 1", got)
	}
	if got := f.FitCount(50); got != 2 {
		t.Errorf("FitCount(50) = %d, want 2", got)
	}

	// Claims on one device never consume another's capacity, and each
	// device meters on its own meter.
	a, err := f.Device(0).Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Device(1).Available(); got != 1000 {
		t.Errorf("device 1 available = %d after device-0 alloc, want 1000", got)
	}
	if _, err := f.Device(0).Alloc(1); err == nil {
		t.Error("device 0 over-capacity alloc succeeded")
	}
	f.Device(0).CopyToDevice(64)
	if got := f.Device(1).Meter().Snapshot().PCIeBytes; got != 0 {
		t.Errorf("device 1 metered %d PCIe bytes from device 0's copy", got)
	}
	if got := f.Device(0).Meter().Snapshot().PCIeBytes; got != 64 {
		t.Errorf("device 0 metered %d PCIe bytes, want 64", got)
	}
	a.Free()

	if _, err := NewFleet(nil); err == nil {
		t.Error("empty fleet constructed")
	}
	if _, err := NewFleet([]Spec{{Name: "nomem"}}); err == nil {
		t.Error("zero-capacity fleet device constructed")
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("K40, 2xK20X ,P100")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"K40", "K20X", "K20X", "P100"}
	if len(specs) != len(want) {
		t.Fatalf("parsed %d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		if specs[i].Name != w {
			t.Errorf("spec %d = %s, want %s", i, specs[i].Name, w)
		}
	}
	for _, bad := range []string{"", "NoSuchCard", "0xK40", "K40,,Nope"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) succeeded, want error", bad)
		}
	}
}
