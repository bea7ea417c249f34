package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"feasim/internal/rng"
)

// The pins below fix the general and multi-job simulators' output to the
// bit at fixed seeds. They hold exactly when the engine executes the same
// events in the same (time, schedule sequence) order and the model draws
// its random numbers in the same order, so any change to event scheduling
// that moves one answer shows here first. A failure prints the current
// values in the table's syntax.

// pinConfigs are the general-model configurations the pins cover: W from 1
// to 32, geometric, exponential and hyperexponential owners, station speeds,
// zero-demand owner bursts and tasks (which complete without yielding), and
// deterministic, exponential and Erlang task demand.
func pinConfigs() map[string]GeneralConfig {
	homog4 := HomogeneousGeometric(4, 50, 10, 0.02)
	homog4.Seed, homog4.WarmupJobs = 42, 3
	homog32 := HomogeneousGeometric(32, 100, 10, 1.0/90)
	homog32.Seed = 3
	hyper := GeneralConfig{TaskDemand: rng.Exponential{M: 80}, Seed: 9}
	for _, speed := range []float64{1, 1.5, 2, 0, 1.5, 2} {
		hyper.Stations = append(hyper.Stations, StationConfig{
			OwnerThink:  rng.Geometric{P: 0.01},
			OwnerDemand: rng.BalancedHyperExp(10, 4),
			Speed:       speed,
		})
	}
	single := GeneralConfig{
		Stations:   []StationConfig{{OwnerThink: rng.Exponential{M: 20}, OwnerDemand: rng.Deterministic{V: 5}}},
		TaskDemand: rng.Deterministic{V: 40},
		Seed:       5,
	}
	idleOwners := GeneralConfig{TaskDemand: rng.Erlang{K: 3, M: 20}, Seed: 17, WarmupJobs: 2}
	for i := 0; i < 3; i++ {
		idleOwners.Stations = append(idleOwners.Stations,
			StationConfig{OwnerThink: rng.Geometric{P: 0.1}, OwnerDemand: rng.Deterministic{V: 0}})
	}
	zeroTasks := HomogeneousGeometric(2, 0, 10, 0.05)
	zeroTasks.Seed = 19
	return map[string]GeneralConfig{
		"homog4": homog4, "homog32": homog32, "hyper": hyper,
		"single": single, "idleOwners": idleOwners, "zeroTasks": zeroTasks,
	}
}

// generalPin is one pinned general-model run: the hash of every sample's
// bits, the last sample, Stats() and the engine's clock and event count.
type generalPin struct {
	jobs        int
	sampleHash  uint64
	lastJob     string
	lastTask    string
	util        string
	preemptions uint64
	now         string
	processed   uint64
}

var generalPins = map[string]generalPin{
	"homog4":     {300, 0x4fd146b05a626489, "0x1.9p+05", "0x1.9p+05", "0x1.5e958e43026e7p-03", 1213, "0x1.5144p+14", 8931},
	"homog32":    {300, 0xe3904660a7fd50f8, "0x1.ep+06", "0x1.aep+06", "0x1.9813ccd22c14cp-04", 10583, "0x1.440ap+15", 70649},
	"hyper":      {300, 0xec7bd044d723d91e, "0x1.b2eedd0866dp+07", "0x1.b2e62591836p+05", "0x1.775b32e9a51cap-04", 1074, "0x1.8a3024029109ep+15", 15592},
	"single":     {300, 0x49f2e39b2c18605, "0x1.4p+05", "0x1.4p+05", "0x1.b148536d546fbp-03", 644, "0x1.dbap+13", 3134},
	"idleOwners": {300, 0x96b903786b2fa7ce, "0x1.c58dde23fdap+04", "0x1.616256d209aabp+04", "0x0p+00", 0, "0x1.100ee4e94bea2p+13", 6235},
	"zeroTasks":  {300, 0xd0549f149dd63a25, "0x0p+00", "0x0p+00", "0x0p+00", 0, "0x0p+00", 903},
}

func hexf(v float64) string { return fmt.Sprintf("%x", v) }

func hashSamples(ss []JobSample) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, s := range ss {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.JobTime))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.MeanTask))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestGeneralRunPinned(t *testing.T) {
	for name, cfg := range pinConfigs() {
		t.Run(name, func(t *testing.T) {
			g, err := NewGeneral(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const jobs = 300
			run := g.Start()
			if err := run.Extend(context.Background(), jobs); err != nil {
				t.Fatal(err)
			}
			ss := run.Samples()
			last := ss[len(ss)-1]
			st := run.Stats()
			got := generalPin{
				jobs:        len(ss),
				sampleHash:  hashSamples(ss),
				lastJob:     hexf(last.JobTime),
				lastTask:    hexf(last.MeanTask),
				util:        hexf(st.ObservedUtil),
				preemptions: st.Preemptions,
				now:         hexf(run.eng.Now()),
				processed:   run.eng.Processed(),
			}
			if want, ok := generalPins[name]; !ok || got != want {
				t.Errorf("pin mismatch:\n got %q: {%d, %#x, %q, %q, %q, %d, %q, %d},\nwant %+v",
					name, got.jobs, got.sampleHash, got.lastJob, got.lastTask, got.util,
					got.preemptions, got.now, got.processed, want)
			}
		})
	}
}

// multiJobPin is one pinned RunMultiJob answer.
type multiJobPin struct {
	completed  int64
	mean       string
	max        string
	throughput string
	util       string
}

var multiJobPins = map[int]multiJobPin{
	1: {100, "0x1.7415e7c70e42fp+06", "0x1.00b7ab0c633dp+08", "0x1.0761b791391a2p-07", "0x1.97b1a0f617d64p-04"},
	3: {300, "0x1.7147cbf82bb0fp+07", "0x1.88e3658b6b9ap+08", "0x1.c66d870ae71bdp-07", "0x1.9d26814590341p-04"},
}

func TestMultiJobPinned(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprint("K=", k), func(t *testing.T) {
			cfg := MultiJobConfig{
				Stations:     pinConfigs()["hyper"].Stations,
				TaskDemand:   rng.Deterministic{V: 60},
				Jobs:         k,
				JobThink:     rng.Exponential{M: 30},
				Seed:         23,
				WarmupPerJob: 2,
			}
			st, err := RunMultiJob(cfg, 100)
			if err != nil {
				t.Fatal(err)
			}
			got := multiJobPin{
				completed:  st.Completed,
				mean:       hexf(st.Response.Mean()),
				max:        hexf(st.Response.Max()),
				throughput: hexf(st.Throughput),
				util:       hexf(st.ObservedUtil),
			}
			if want, ok := multiJobPins[k]; !ok || got != want {
				t.Errorf("pin mismatch:\n got %d: {%d, %q, %q, %q, %q},\nwant %+v",
					k, got.completed, got.mean, got.max, got.throughput, got.util, want)
			}
		})
	}
}

// TestGeneralRunStartsNoGoroutines pins that the engine runs the model on
// the caller's goroutine: a whole run leaves the goroutine count unchanged.
func TestGeneralRunStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g, err := NewGeneral(pinConfigs()["homog32"])
	if err != nil {
		t.Fatal(err)
	}
	run := g.Start()
	if err := run.Extend(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d during a run, %d before", after, before)
	}
}

// TestGeneralRunSteadyStateAllocs pins the recycled calendar: once a run is
// warm (event and request records, the heap and the server queues at their
// working size), extending it by 1000 jobs at W = 32 allocates at most one
// object per job, given room for the samples.
func TestGeneralRunSteadyStateAllocs(t *testing.T) {
	g, err := NewGeneral(pinConfigs()["homog32"])
	if err != nil {
		t.Fatal(err)
	}
	const jobs, runs = 1000, 3
	run := g.Start()
	ctx := context.Background()
	if err := run.Extend(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	run.samples = slices.Grow(run.samples, (runs+1)*jobs)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := run.Extend(ctx, jobs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > jobs {
		t.Errorf("%.0f allocations per %d jobs, want at most one per job", allocs, jobs)
	}
}
