package core

import "testing"

// TestConfigFingerprintStable pins Config.Fingerprint's output: a resumed
// run, a serve job workspace and a cluster node manifest all match on these
// strings, so a change to the spelling silently turns every resume into a
// cold run. The hex values were recorded before the full string graph moved
// from its own FullGraph flag into GraphBackend (and later left the
// product) and before the map-kernel and traversal ablations left Config;
// they must not change.
func TestConfigFingerprintStable(t *testing.T) {
	cells := []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"greedy", func(c *Config) {},
			"2f1516ae7225b7adfdc6395f9988fd03ef134b67d2720bcbaa4ec40c8be4f033"},
		{"greedy-explicit", func(c *Config) { c.GraphBackend = BackendGreedy },
			"2f1516ae7225b7adfdc6395f9988fd03ef134b67d2720bcbaa4ec40c8be4f033"},
		{"spmat", func(c *Config) { c.GraphBackend = BackendSpmat },
			"232aacbe049c07889084affab070aee0abc7172a0e990d534983587f3298727f"},
		{"succinct", func(c *Config) { c.GraphBackend = BackendSuccinct },
			"5aec6b3910fbf07031425ba02e54b88a2b5d44922f7925f6f4d0a6334902cded"},
		{"every-bool", func(c *Config) {
			c.IncludeSingletons, c.BreakCycles, c.KeepIntermediate, c.Resume = true, true, true, true
			c.PackedReads, c.DedupeReads, c.VerifyOverlaps = true, true, true
		}, "d856749d5f87bd097d36be0a06fa0b74847d98e749da77a34210aa6ba85d5190"},
	}
	for _, cell := range cells {
		cfg := DefaultConfig("ws")
		cell.set(&cfg)
		if got := cfg.Fingerprint(); got != cell.want {
			t.Errorf("%s: fingerprint %s, want %s", cell.name, got, cell.want)
		}
	}
}
