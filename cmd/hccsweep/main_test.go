package main

import (
	"strings"
	"testing"

	"hccsim/internal/batch"
)

// TestBuildJobsNativeMode: -modes cc reads cc as each platform's native
// protection (tdx-h100 is illegal on a B300), and every job hashes exactly
// like the same job spelled with an explicit mode name.
func TestBuildJobsNativeMode(t *testing.T) {
	cases := []struct {
		modes     string
		platforms []string
		want      []string // mode@platform of each job, in order
	}{
		{"cc,base", []string{"h100-tdx", "b300-bridge"},
			[]string{"tdx-h100@h100-tdx", "tee-io-bridge@b300-bridge", "off@h100-tdx", "off@b300-bridge"}},
		{"cc,base", nil, []string{"tdx-h100@", "off@"}},
		// A cc job that resolves to a listed mode is a duplicate and dropped.
		{"cc,tee-io-bridge", []string{"b300-bridge"}, []string{"tee-io-bridge@b300-bridge"}},
	}
	for _, c := range cases {
		jobs, err := buildJobs("gemm", "", "", "", false, c.modes, c.platforms, nil)
		if err != nil || len(jobs) != len(c.want) {
			t.Fatalf("-modes %s -platforms %v: %d jobs (%v), want %d", c.modes, c.platforms, len(jobs), err, len(c.want))
		}
		for i, j := range jobs {
			mode, plat, _ := strings.Cut(c.want[i], "@")
			explicit := batch.WorkloadJob("gemm", false, mode)
			explicit.Platform = plat
			got, err1 := j.Key()
			want, err2 := explicit.Key()
			if j.Label() != explicit.Label() || err1 != nil || err2 != nil || got != want {
				t.Errorf("-modes %s: job %s, want %s with its key (%v, %v)", c.modes, j.Label(), explicit.Label(), err1, err2)
			}
		}
	}
	if _, err := buildJobs("gemm", "", "", "", false, "cc,sgx", nil, nil); err == nil {
		t.Error("buildJobs accepted an unknown mode")
	}
}

func TestParseServeCell(t *testing.T) {
	cells := map[string]bool{"vllm:bf16:1.4": true, "vllm:bf16:0": false, "vllm:bf16:-1": false,
		"vllm:bf16:NaN": false, "vllm:bf16:+Inf": false, "vllm:bf16:fast": false, "vllm:bf16": false}
	for cell, ok := range cells {
		if _, _, rate, err := parseServeCell(cell); (err == nil) != ok {
			t.Errorf("parseServeCell(%q) = %g, %v; want ok=%v", cell, rate, err, ok)
		}
	}
}
