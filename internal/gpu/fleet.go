package gpu

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/costmodel"
)

// Fleet is a fixed set of simulated devices — the multi-GPU substrate the
// serving scheduler and the cluster simulation both run on. Each device
// has its own allocator, meter, and hooks, so per-device memory pressure,
// metering, and tracing never bleed across cards. Specs may be
// heterogeneous: a fleet can mix a 6 GB K20X with a 16 GB P100 and the
// placement layers above decide which card a job fits on.
//
// The fleet itself holds no scheduling state; it is the inventory. The
// serve scheduler leases job demands off fleet devices for admission, and
// the cluster layer binds node i to device i for sharded execution.
type Fleet struct {
	devs []*Device
}

// NewFleet builds one device per spec, each with a private meter. At
// least one spec is required and every spec needs memory capacity.
func NewFleet(specs []Spec) (*Fleet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("gpu: fleet needs at least one device spec")
	}
	f := &Fleet{devs: make([]*Device, len(specs))}
	for i, s := range specs {
		if s.MemBytes <= 0 {
			return nil, fmt.Errorf("gpu: fleet device %d (%s) has no memory capacity", i, s.Name)
		}
		f.devs[i] = NewDevice(s, costmodel.NewMeter())
	}
	return f, nil
}

// Size returns the number of devices in the fleet.
func (f *Fleet) Size() int { return len(f.devs) }

// Device returns the i-th device.
func (f *Fleet) Device(i int) *Device { return f.devs[i] }

// Devices returns the fleet's devices in index order. The slice is the
// fleet's own; callers must not mutate it.
func (f *Fleet) Devices() []*Device { return f.devs }

// MaxCapacity returns the largest single-device capacity: the biggest
// unsharded job the fleet can ever place.
func (f *Fleet) MaxCapacity() int64 {
	var m int64
	for _, d := range f.devs {
		if c := d.Capacity(); c > m {
			m = c
		}
	}
	return m
}

// FitCount returns how many devices can hold a claim of n bytes — the
// maximum shard count for a job whose per-shard demand is n.
func (f *Fleet) FitCount(n int64) int {
	count := 0
	for _, d := range f.devs {
		if d.Capacity() >= n {
			count++
		}
	}
	return count
}

// ParseSpecs parses a comma-separated device list like "K40,K40,P100"
// into fleet specs. Each element is a catalog card name, optionally with
// a count prefix ("4xK40" expands to four K40s).
func ParseSpecs(list string) ([]Spec, error) {
	var specs []Spec
	for _, item := range strings.Split(list, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		count := 1
		name := item
		if i := strings.IndexByte(item, 'x'); i > 0 {
			if n, err := strconv.Atoi(item[:i]); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("gpu: device count %d in %q must be >= 1", n, item)
				}
				count = n
				name = item[i+1:]
			}
		}
		spec, ok := SpecByName(name)
		if !ok {
			return nil, fmt.Errorf("gpu: unknown device %q (want one of the catalog cards)", name)
		}
		for i := 0; i < count; i++ {
			specs = append(specs, spec)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("gpu: empty device list %q", list)
	}
	return specs, nil
}
