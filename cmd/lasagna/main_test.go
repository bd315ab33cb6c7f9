package main

import (
	"strings"
	"testing"
)

func TestCheckModeFlags(t *testing.T) {
	cases := []struct {
		nodes int
		set   []string
		want  string // substring of the error, "" for none
	}{
		{1, nil, ""},
		{1, []string{"verify", "dedupe", "packed", "fullgraph", "parallel-traversal", "keep-intermediate", "workers"}, ""},
		{1, []string{"partition-by-fingerprint"}, "-partition-by-fingerprint needs -nodes"},
		{4, []string{"partition-by-fingerprint", "graph-backend", "workers", "resume"}, ""},
		{4, []string{"verify"}, "-verify is not supported with -nodes"},
		{4, []string{"dedupe"}, "-dedupe"},
		{4, []string{"packed"}, "-packed"},
		{4, []string{"fullgraph"}, "-fullgraph"},
		{4, []string{"parallel-traversal"}, "-parallel-traversal"},
		{2, []string{"lmin", "keep-intermediate"}, "-keep-intermediate"},
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
