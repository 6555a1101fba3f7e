package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Reference digests of every simulated output, recorded with -record from
// a known-good build. A speed-up must leave each one unchanged.
//
//go:embed reference/*.json
var referenceFS embed.FS

// loadReference returns the op -> digest map recorded for a workload.
func loadReference(workload string) (map[string]string, error) {
	b, err := referenceFS.ReadFile("reference/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", workload, err)
	}
	var ref map[string]string
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", workload, err)
	}
	return ref, nil
}

// checkOutputs counts the failed operations of one process. An operation
// fails when it errored, when its cold digest differs from the reference,
// or when the warm pass produced anything else than the cold pass did.
// strict makes an operation without a reference digest a failure too;
// the serve workload is not strict, because the reference holds only the
// seeds it was recorded for.
func checkOutputs(ref map[string]string, strict bool, cold, warm []output) (failed int, reasons []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf(format, args...))
		}
	}
	for i, o := range cold {
		want, ok := ref[o.op]
		switch {
		case o.err != nil:
			fail("%s: %v", o.op, o.err)
		case ok && want != o.digest:
			fail("%s: output digest %s, reference %s", o.op, o.digest, want)
		case !ok && strict:
			fail("%s: no reference digest", o.op)
		case warm == nil:
		case i >= len(warm) || warm[i].op != o.op:
			fail("%s: missing from the warm pass", o.op)
		case warm[i].err != nil:
			fail("%s: warm pass: %v", o.op, warm[i].err)
		case warm[i].digest != o.digest:
			fail("%s: warm pass output differs from the cold pass", o.op)
		}
	}
	return failed, reasons
}

// record regenerates every workload's reference digests into dir.
func record(dir string) error {
	refs := map[string]func() ([]output, error){
		"figures": recordFigures,
		"serve":   recordServe,
		"sweep":   recordSweep,
		"trace":   recordTrace,
	}
	for _, name := range workloadNames {
		outs, err := refs[name]()
		if err != nil {
			return fmt.Errorf("recording %s: %w", name, err)
		}
		ref := make(map[string]string, len(outs))
		for _, o := range outs {
			if o.err != nil {
				return fmt.Errorf("recording %s: %s: %w", name, o.op, o.err)
			}
			ref[o.op] = o.digest
		}
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d %s digests in %s\n", len(ref), name, path)
	}
	return nil
}

func recordFigures() ([]output, error) {
	w := &figuresWL{workers: 1}
	if err := w.setup(0); err != nil {
		return nil, err
	}
	return w.run(nil, map[string]float64{}, false), nil
}

// recordServe records seeds 0-9, the ten a spread check usually draws.
func recordServe() ([]output, error) {
	var outs []output
	for seed := int64(0); seed < 10; seed++ {
		w := &serveWL{}
		if err := w.setup(seed); err != nil {
			return nil, err
		}
		outs = append(outs, w.run(nil, map[string]float64{}, false)...)
	}
	return outs, nil
}

// recordSweep covers the whole bandwidth menu, so every grid a seed can
// draw is checked.
func recordSweep() ([]output, error) {
	dir, err := os.MkdirTemp("", "hccperf-record-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := &sweepWL{workers: 1, dir: dir}
	w.jobs, w.labels = sweepJobs(bandwidthMenu)
	return w.run(nil, map[string]float64{}, false), nil
}

func recordTrace() ([]output, error) {
	w := &traceWL{workers: 1}
	if err := w.setup(0); err != nil {
		return nil, err
	}
	return w.run(nil, map[string]float64{}, false), nil
}
