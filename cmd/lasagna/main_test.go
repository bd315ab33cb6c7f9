package main

import (
	"strings"
	"testing"
)

// Every assembly flag is accepted on one node and on a cluster; the only
// refusal left is a shuffle option without a shuffle.
func TestCheckModeFlags(t *testing.T) {
	assembly := []string{"verify", "dedupe", "packed", "keep-intermediate", "workers", "graph-backend", "resume", "lmin"}
	cases := []struct {
		nodes int
		set   []string
		want  string // substring of the error, "" for none
	}{
		{1, nil, ""},
		{1, assembly, ""},
		{4, assembly, ""},
		{2, append([]string{"partition-by-fingerprint"}, assembly...), ""},
		{1, []string{"partition-by-fingerprint"}, "-partition-by-fingerprint needs -nodes above 1"},
		{1, []string{"verify", "partition-by-fingerprint"}, "-partition-by-fingerprint"},
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkModeFlags(tc.nodes, set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("nodes=%d %v: unexpected error %v", tc.nodes, tc.set, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("nodes=%d %v: error = %v, want one naming %q", tc.nodes, tc.set, err, tc.want)
		}
	}
}
