package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minRounds is the fewest repetitions (traced: untraced+traced pairs)
	// a run makes, however long each takes.
	minRounds = 3
	// runLimit bounds a whole run: no child is started that could not end
	// before it, and children still running at the limit are killed.
	runLimit = 170 * time.Second
)

// childRun is one finished child process.
type childRun struct {
	setup time.Duration // start of the process to the end of its set-up
	res   childResult
}

// runParent repeats fresh-process repetitions of a workload for seconds,
// then prints a summary and the result line.
func runParent(name string, seed int64, seconds int, traced bool, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if name == "all" {
		for _, n := range workloadNames {
			if err := runParent(n, seed, seconds, traced, out); err != nil {
				return err
			}
		}
		return nil
	}
	if !slices.Contains(workloadNames, name) {
		return fmt.Errorf("unknown workload %q (known: figures, serve, sweep, trace, all)", name)
	}
	dir, err := filepath.Abs(filepath.Join(out, name))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	began := time.Now()
	// An interrupt kills the running child (exec.CommandContext) and is
	// reported once it has exited.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithDeadline(ctx, began.Add(runLimit))
	defer cancel()
	spawnOne := func(kind string, tr bool) (childRun, error) {
		return spawn(ctx, exe, kind, name, seed, tr, dir)
	}

	var plain, withTrace, figtime []childRun
	var longest time.Duration
	for round := 0; ; round++ {
		// Stop at the round boundary nearest to the requested duration.
		elapsed := time.Since(began)
		if round >= minRounds && elapsed+elapsed/time.Duration(2*round) >= time.Duration(seconds)*time.Second {
			break
		}
		if round > 0 && elapsed+2*longest > runLimit {
			break
		}
		roundStart := time.Now()
		r, err := spawnOne("run", false)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		if traced {
			if r, err = spawnOne("run", true); err != nil {
				return err
			}
			withTrace = append(withTrace, r)
			if name == "figures" {
				if r, err = spawnOne("figtime", false); err != nil {
					return err
				}
				figtime = append(figtime, r)
			}
		}
		longest = max(longest, time.Since(roundStart))
	}

	all := slices.Concat(plain, withTrace, figtime)
	attempted, failed := 0, 0
	var reasons []string
	for _, r := range all {
		attempted += r.res.Attempted
		failed += r.res.Failed
		reasons = append(reasons, r.res.Reasons...)
	}
	metrics := map[string]float64{}
	fmt.Printf("hccperf %s: seed %d, %d fresh-process repetitions", name, seed, len(plain))
	if traced {
		fmt.Printf(" + %d traced", len(withTrace))
	}
	fmt.Printf(", %.1f s\n", time.Since(began).Seconds())
	if !traced {
		samples := map[string]func(childRun) float64{
			"setup_s":     func(r childRun) float64 { return r.setup.Seconds() },
			"wall_s":      func(r childRun) float64 { return r.res.WallS },
			"warm_wall_s": func(r childRun) float64 { return r.res.WarmWallS },
			"peak_rss_mb": func(r childRun) float64 { return r.res.PeakRSSMB },
		}
		for _, m := range endToEnd {
			xs := make([]float64, len(plain))
			for i, r := range plain {
				xs[i] = samples[m.Name](r)
			}
			// Peak RSS is bimodal (it depends on where the last GC cycle
			// falls), and the median of a few bimodal samples jumps between
			// the modes; their mean moves far less.
			stat, v := "median", median(xs)
			if m.Name == "peak_rss_mb" {
				stat, v = "mean", mean(xs)
			}
			metrics[m.Name] = v
			fmt.Printf("  %-26s %.6g %s  (%s of %d, range %.4g .. %.4g)\n",
				m.Name, v, m.Unit, stat, len(xs), slices.Min(xs), slices.Max(xs))
		}
	} else {
		for _, m := range perLayer {
			metrics[m.Name] = medianOf(withTrace, func(r childRun) float64 { return r.res.Layer[m.Name] })
		}
		for _, id := range topFigures {
			k := "figures." + id + "_s"
			metrics[k] = medianOf(figtime, func(r childRun) float64 { return r.res.Layer[k] })
		}
		metrics["trace_overhead_s"] = medianOf(withTrace, func(r childRun) float64 { return r.res.WallS }) -
			medianOf(plain, func(r childRun) float64 { return r.res.WallS })
		metrics["fail_frac"] = float64(failed) / float64(max(attempted, 1))
		printMetrics(perLayer, metrics)
		fmt.Printf("  spans and CPU profiles: %s\n", dir)
	}
	fmt.Printf("  %-26s %.4g (%d of %d operations failed)\n", "fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, r := range reasons[:min(len(reasons), 10)] {
		fmt.Printf("  FAILED %s\n", r)
	}
	return printResult(traced, attempted, failed, metrics)
}

func medianOf(runs []childRun, f func(childRun) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

// printMetrics prints one line per metric, with each CPU bucket's share of
// the folded total.
func printMetrics(defs []metric, values map[string]float64) {
	var cpuTotal float64
	for _, m := range defs {
		if strings.HasPrefix(m.Name, "cpu.") {
			cpuTotal += values[m.Name]
		}
	}
	for _, m := range defs {
		v := values[m.Name]
		line := fmt.Sprintf("  %-26s %.6g %s", m.Name, v, m.Unit)
		if strings.HasPrefix(m.Name, "cpu.") && cpuTotal > 0 {
			line += fmt.Sprintf("  (%.1f%%)", 100*v/cpuTotal)
		}
		fmt.Println(line)
	}
}

// printResult writes the machine-readable last line: every end-to-end
// metric (untraced) or every per-layer metric (traced), by name and unit.
func printResult(traced bool, attempted, failed int, values map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, make(map[string]value, len(defs))}
	for _, m := range defs {
		out.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// spawn runs one child repetition to completion and decodes its result.
// Set-up time is measured from starting the process to the byte the child
// writes on the ready pipe once its set-up is done.
func spawn(ctx context.Context, exe, kind, name string, seed int64, traced bool, dir string) (childRun, error) {
	if err := ctx.Err(); err != nil {
		return childRun{}, fmt.Errorf("%s repetition not started: %w", name, err)
	}
	readyR, readyW, err := os.Pipe()
	if err != nil {
		return childRun{}, err
	}
	defer readyR.Close()
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", kind, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", tr, "-out", dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.ExtraFiles = []*os.File{readyW}
	start := time.Now()
	err = cmd.Start()
	readyW.Close()
	if err != nil {
		return childRun{}, err
	}
	ready := make(chan time.Duration, 1)
	go func() {
		// Returns on the ready byte, or at end of file once the child exits.
		n, _ := readyR.Read(make([]byte, 1))
		if n == 1 {
			ready <- time.Since(start)
		} else {
			ready <- -1
		}
	}()
	waitErr := cmd.Wait()
	setup := <-ready
	if waitErr != nil {
		return childRun{}, fmt.Errorf("%s %s repetition: %v\n%s", name, kind, waitErr, stderr.Bytes())
	}
	var r childRun
	r.setup = setup
	if err := json.Unmarshal(stdout.Bytes(), &r.res); err != nil {
		return childRun{}, fmt.Errorf("%s %s repetition: decoding result: %w", name, kind, err)
	}
	if kind == "run" && setup < 0 {
		return childRun{}, errors.New(name + " repetition never reported the end of its set-up")
	}
	return r, nil
}
