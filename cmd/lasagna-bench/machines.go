package main

import (
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gpu"
)

// machine is a scaled stand-in for one of the paper's testbeds. Block
// sizes are scaled so the same qualitative regime holds as in the paper:
// on QB2 (128 GB host) the largest partition of the H.Genome-like dataset
// sorts in a single disk pass, while on SuperMic (64 GB host) it needs one
// extra merge pass — exactly the effect the paper calls out when
// explaining why only H.Genome slows down on the smaller machine.
type machine struct {
	name string
	gpu  gpu.Spec
	// hostBlockPairs is m_h; at profile scale 1.0 the largest partition
	// holds ~250k pairs.
	hostBlockPairs int
	devBlockPairs  int
	// hostBudgetBytes emulates total host memory at scale 1.0 for the SGA
	// baseline's out-of-memory behaviour (Table VI).
	hostBudgetBytes int64
}

var (
	// qb2 models a QueenBee II node: 128 GB host + K40 (12 GB).
	qb2 = machine{
		name:            "QB2 (128GB+K40)",
		gpu:             gpu.K40,
		hostBlockPairs:  1 << 18, // 262,144: largest partition in one pass
		devBlockPairs:   1 << 15,
		hostBudgetBytes: 400 << 20,
	}
	// supermic models a SuperMic node: 64 GB host + K20X (6 GB).
	supermic = machine{
		name:            "SuperMic (64GB+K20)",
		gpu:             gpu.K20X,
		hostBlockPairs:  1 << 17, // 131,072: largest partition needs a merge pass
		devBlockPairs:   1 << 14,
		hostBudgetBytes: 200 << 20,
	}
)

// config builds a pipeline configuration for this machine, scaling block
// sizes with the dataset scale so the pass-count regimes are preserved at
// reduced scale.
func (m machine) config(workspace string, lmin int, scale float64) core.Config {
	cfg := core.DefaultConfig(workspace)
	cfg.MinOverlap = lmin
	cfg.GPU = m.gpu
	cfg.HostBlockPairs = scaleBlock(m.hostBlockPairs, scale)
	cfg.DeviceBlockPairs = scaleBlock(m.devBlockPairs, scale)
	cfg.BreakCycles = true
	// One partition at a time on the device, as in the paper. With more
	// workers the device peaks sum however many partitions' claims happen
	// to overlap, so they vary between runs and with the core count.
	cfg.Workers = 1
	return cfg
}

func (m machine) profile() costmodel.Profile {
	return m.gpu.CostProfile(costmodel.DefaultDisk.ReadBps, costmodel.DefaultDisk.WriteBps)
}

func scaleBlock(pairs int, scale float64) int {
	v := int(float64(pairs) * scale)
	if v < 64 {
		v = 64
	}
	return v
}
