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
	"time"

	"feasim/internal/core"
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
// the caller's goroutine: a live run holds no goroutine, so the count after
// a whole run equals the count before it.
func TestGeneralRunStartsNoGoroutines(t *testing.T) {
	before := settledGoroutines()
	g, err := NewGeneral(pinConfigs()["homog32"])
	if err != nil {
		t.Fatal(err)
	}
	run := g.Start()
	if err := run.Extend(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d after a run, %d before", after, before)
	}
}

// settledGoroutines returns the goroutine count once goroutines that were
// already exiting are gone (the previous test's runner can still be
// returning when a test starts): the count is read until it holds for
// several reads in a row, yielding and sleeping briefly between reads.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for range 1000 {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m != n {
			n, same = m, 0
			continue
		}
		if same++; same == 5 {
			break
		}
	}
	return n
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

// exactPin is one pinned run of the exact simulator: the hash of every
// sample's four fields, the bursts summed over all samples, and the stream's
// next draw after the run (so a sampler that consumes one draw more or less
// shows even where the samples agree).
type exactPin struct {
	sampleHash uint64
	bursts     int
	next       string
}

// exactPinConfigs span the sampler's regimes: tiny, moderate and large P,
// the P = 0, P = 1 and O = 0 paths that draw nothing, W from 1 to 32, and
// task demands past 2048 trials.
var exactPinConfigs = map[string]core.Params{
	"rare":     {J: 400, W: 4, O: 10, P: 1e-6},
	"w1":       {J: 200, W: 1, O: 10, P: 0.01},
	"w8":       {J: 800, W: 8, O: 5, P: 0.2},
	"w32":      {J: 3200, W: 32, O: 10, P: 0.02},
	"busy":     {J: 60, W: 3, O: 5, P: 0.9},
	"always":   {J: 50, W: 2, O: 5, P: 1},
	"idle":     {J: 50, W: 2, O: 5, P: 0},
	"freeOwn":  {J: 50, W: 2, O: 0, P: 0.3},
	"long":     {J: 3000, W: 1, O: 10, P: 0.005},
	"longBusy": {J: 20000, W: 4, O: 5, P: 0.3},
	"longRare": {J: 40000, W: 4, O: 10, P: 1e-4},
}

var exactPins = map[string]exactPin{
	"always":   {0x3942a42d63219325, 10000, "0x1.43edb959c7158p-03"},
	"busy":     {0x178343f7785cc3ca, 10817, "0x1.d557462883113p-01"},
	"freeOwn":  {0xd59e7ce86466ae25, 0, "0x1.43edb959c7158p-03"},
	"idle":     {0xd59e7ce86466ae25, 0, "0x1.43edb959c7158p-03"},
	"long":     {0x59e7aa1d417fbdb5, 3008, "0x1.c23ab3dbdb7ccp-02"},
	"longBusy": {0x7d91fd3d960b0092, 1199373, "0x1.0f7c7b11ab674p-01"},
	"longRare": {0x73c4ab1d38133e98, 787, "0x1.d8d9e13e129ep-06"},
	"rare":     {0x8ffe0632dd90ae25, 0, "0x1.6996a3c3db2fep-02"},
	"w1":       {0xa2b0b9a99aa89b85, 385, "0x1.76871190ec8ccp-02"},
	"w32":      {0x70195e4b9c22862d, 12956, "0x1.42d8c25348b4dp-01"},
	"w8":       {0x335f02f6795c4ed8, 32267, "0x1.a217ef7d803a8p-03"},
}

func exactSamples(x *Exact, n int) []JobSample {
	ss := make([]JobSample, n)
	for i := range ss {
		ss[i] = x.Sample()
	}
	return ss
}

func TestExactPinned(t *testing.T) {
	for name, p := range exactPinConfigs {
		t.Run(name, func(t *testing.T) {
			x, err := NewExact(p, 1993)
			if err != nil {
				t.Fatal(err)
			}
			ss := exactSamples(x, 200)
			h := fnv.New64a()
			var b [32]byte
			got := exactPin{}
			for _, s := range ss {
				binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.JobTime))
				binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(s.MeanTask))
				binary.LittleEndian.PutUint64(b[16:24], uint64(s.MaxBursts))
				binary.LittleEndian.PutUint64(b[24:], uint64(s.TotalBursts))
				h.Write(b[:])
				got.bursts += s.TotalBursts
			}
			got.sampleHash = h.Sum64()
			got.next = hexf(x.stream.Float64())
			if want, ok := exactPins[name]; !ok || got != want {
				t.Errorf("pin mismatch:\n got %q: {%#x, %d, %q},\nwant %+v",
					name, got.sampleHash, got.bursts, got.next, want)
			}
		})
	}
}
