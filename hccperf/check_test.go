package main

import (
	"errors"
	"testing"

	"hccsim/internal/figures"
)

// TestPerturbedOutputFails checks each way an operation can fail against
// a real figure and its recorded reference digest.
func TestPerturbedOutputFails(t *testing.T) {
	ref, err := loadReference("figures")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := figures.Generate("fig8")
	if err != nil {
		t.Fatal(err)
	}
	good := output{op: "fig8", digest: tableDigest(tab)}
	perturbed := tab
	perturbed.Rows = append([][]string(nil), tab.Rows...)
	perturbed.Rows[0] = append([]string(nil), tab.Rows[0]...)
	perturbed.Rows[0][len(perturbed.Rows[0])-1] += "0"
	bad := output{op: "fig8", digest: tableDigest(perturbed)}

	cases := []struct {
		name       string
		strict     bool
		cold, warm []output
		failed     int
	}{
		{"matches reference", true, []output{good}, []output{good}, 0},
		{"perturbed cell", true, []output{bad}, []output{bad}, 1},
		{"warm pass differs", true, []output{good}, []output{bad}, 1},
		{"warm pass missing", true, []output{good}, []output{}, 1},
		{"errored", true, []output{{op: "fig8", err: errors.New("boom")}}, nil, 1},
		{"unknown op, strict", true, []output{{op: "fig99", digest: good.digest}}, nil, 1},
		{"unknown op, not strict", false, []output{{op: "fig99", digest: good.digest}}, nil, 0},
		{"one bad of two", true, []output{good, bad}, []output{good, bad}, 1},
	}
	for _, c := range cases {
		failed, reasons := checkOutputs(ref, c.strict, c.cold, c.warm)
		if failed != c.failed {
			t.Errorf("%s: %d failed (%v), want %d", c.name, failed, reasons, c.failed)
		}
		if frac := float64(failed) / float64(len(c.cold)); (frac > 0) != (c.failed > 0) {
			t.Errorf("%s: fail_frac %v", c.name, frac)
		}
	}
}

// TestFig4bDigestIgnoresHostMeasurement: fig4b's local-measured column
// times the host, so it must not reach the digest; every other cell must.
func TestFig4bDigestIgnoresHostMeasurement(t *testing.T) {
	a := figures.Fig04bCrypto(false)
	b := figures.Fig04bCrypto(false)
	col := len(b.Columns) - 1
	if b.Columns[col] != "local-measured" {
		t.Fatalf("fig4b's last column is %q, want local-measured", b.Columns[col])
	}
	b.Rows = append([][]string(nil), b.Rows...)
	b.Rows[0] = append([]string(nil), b.Rows[0]...)
	b.Rows[0][col] = "9.99"
	if tableDigest(a) != tableDigest(b) {
		t.Error("fig4b digest depends on the host-measured column")
	}
	b.Rows[0][1] = "0"
	if tableDigest(a) == tableDigest(b) {
		t.Error("fig4b digest ignores a simulated cell")
	}
}
