package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hccsim/internal/sim"
)

// profileHz is the traced runs' CPU sampling rate: the default 100 Hz
// gives too few samples per layer in a one-second measured phase.
const profileHz = 500

// childResult is what one repetition reports to the parent, as JSON on
// its standard output.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reasons   []string           `json:"reasons,omitempty"`
	WallS     float64            `json:"wall_s"`
	WarmWallS float64            `json:"warm_wall_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Layer     map[string]float64 `json:"layer"`
}

// runChild runs one repetition in this process. kind "run" is the set-up,
// cold pass and warm pass of a workload; kind "figtime" times the slowest
// figures one by one. outDir is the parent's per-workload directory.
func runChild(kind, name string, seed int64, traced bool, outDir string) error {
	res := childResult{Layer: make(map[string]float64)}
	switch kind {
	case "run":
		if err := runRepetition(&res, name, seed, traced, outDir); err != nil {
			return err
		}
	case "figtime":
		ref, err := loadReference("figures")
		if err != nil {
			return err
		}
		outs := timeFigures(res.Layer)
		res.Attempted = len(outs)
		res.Failed, res.Reasons = checkOutputs(ref, true, outs, nil)
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func runRepetition(res *childResult, name string, seed int64, traced bool, outDir string) error {
	pid := os.Getpid()
	scratch := filepath.Join(outDir, fmt.Sprintf("scratch-%d", pid))
	defer os.RemoveAll(scratch)
	w, err := newWorkload(name, scratch)
	if err != nil {
		return err
	}
	if err := w.setup(seed); err != nil {
		return err
	}
	signalReady()

	var rec *recorder
	var prof *os.File
	if traced {
		rec = newRecorder()
		prof, err = os.Create(filepath.Join(outDir, fmt.Sprintf("cpu-%d.pprof", pid)))
		if err != nil {
			return err
		}
		defer prof.Close()
		// StartCPUProfile keeps a rate that is already set (it warns on
		// standard error that it cannot change it).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	sim.ResetGlobalStats()
	start := time.Now()
	cold := w.run(rec, res.Layer, false)
	res.WallS = time.Since(start).Seconds()
	res.PeakRSSMB = float64(peakRSSKiB()) / 1024
	st := sim.GlobalStats()
	res.Layer["sim.handoffs"] = float64(st.Handoffs)
	res.Layer["sim.events_fired"] = float64(st.Fired)
	res.Layer["sim.actor_steps"] = float64(st.ActorSteps)

	if traced {
		pprof.StopCPUProfile()
		if _, err := prof.Seek(0, 0); err != nil {
			return err
		}
		cpu, err := foldProfile(prof)
		if err != nil {
			return err
		}
		for bucket, s := range cpu {
			res.Layer["cpu."+bucket] = s
		}
		w.probe(rec, res.Layer)
	}

	start = time.Now()
	warm := w.run(nil, res.Layer, true)
	res.WarmWallS = time.Since(start).Seconds()

	ref, err := loadReference(name)
	if err != nil {
		return err
	}
	res.Attempted = len(cold)
	res.Failed, res.Reasons = checkOutputs(ref, name != "serve", cold, warm)
	if traced {
		return rec.write(filepath.Join(outDir, fmt.Sprintf("spans-%d.json", pid)))
	}
	return nil
}

// signalReady tells the parent that set-up is over by writing one byte to
// the pipe it passed as file descriptor 3; the parent times set-up up to
// that byte. Without such a pipe (a child started by hand) it does nothing.
func signalReady() {
	var st syscall.Stat_t
	if err := syscall.Fstat(3, &st); err != nil || st.Mode&syscall.S_IFMT != syscall.S_IFIFO {
		return
	}
	f := os.NewFile(3, "ready")
	f.Write([]byte{1})
	f.Close()
}
