package sim

import (
	"context"
	"fmt"

	"feasim/internal/des"
	"feasim/internal/rng"
)

// Priorities on the workstation CPU: owner processes preempt parallel tasks.
const (
	PrioTask  = 0
	PrioOwner = 1
)

// StationConfig describes the owner workload of one workstation in the
// general model. Owner processes cycle: think (wall-clock) then compute for
// a sampled demand at preemptive priority.
type StationConfig struct {
	OwnerThink  rng.Dist // wall-clock think time between owner bursts
	OwnerDemand rng.Dist // owner burst service demand
	// Speed scales task execution: a sampled task demand d takes d/Speed
	// units of CPU on this station. Owner bursts are wall-clock and are
	// not scaled. Zero means the reference rate 1.
	Speed float64
}

// speed returns the effective task-execution rate, defaulting 0 to 1.
func (c StationConfig) speed() float64 {
	if c.Speed == 0 {
		return 1
	}
	return c.Speed
}

// Utilization returns the station's long-run owner utilization
// E[demand] / (E[think] + E[demand]).
func (c StationConfig) Utilization() float64 {
	d, z := c.OwnerDemand.Mean(), c.OwnerThink.Mean()
	if d <= 0 {
		return 0
	}
	return d / (z + d)
}

// GeneralConfig configures the des-based simulator.
type GeneralConfig struct {
	// Stations lists per-workstation owner workloads; len(Stations) is W.
	// Homogeneous systems repeat the same StationConfig.
	Stations []StationConfig
	// TaskDemand is the per-task demand distribution. The paper's model is
	// Deterministic{J/W}; imbalance ablations use wider distributions.
	TaskDemand rng.Dist
	// Seed drives all sampling.
	Seed uint64
	// WarmupJobs are discarded executions that bring the owner processes to
	// steady state before measurement begins.
	WarmupJobs int
}

// HomogeneousGeometric builds the general-model configuration matching the
// paper's workload: W identical stations, geometric owner think with
// per-unit probability p, deterministic owner burst o, deterministic task
// demand t.
func HomogeneousGeometric(w int, t, o, p float64) GeneralConfig {
	st := StationConfig{
		OwnerThink:  rng.NewGeometric(p),
		OwnerDemand: rng.Deterministic{V: o},
	}
	cfg := GeneralConfig{TaskDemand: rng.Deterministic{V: t}}
	for i := 0; i < w; i++ {
		cfg.Stations = append(cfg.Stations, st)
	}
	return cfg
}

// Validate checks the configuration.
func (c GeneralConfig) Validate() error {
	if len(c.Stations) == 0 {
		return fmt.Errorf("sim: general config needs at least one station")
	}
	if c.TaskDemand == nil {
		return fmt.Errorf("sim: general config needs a task demand distribution")
	}
	for i, s := range c.Stations {
		if s.OwnerThink == nil || s.OwnerDemand == nil {
			return fmt.Errorf("sim: station %d missing owner distributions", i)
		}
		if s.Speed < 0 {
			return fmt.Errorf("sim: station %d speed must be >= 0, got %v", i, s.Speed)
		}
	}
	return nil
}

// MeanUtilization is the average configured owner utilization across
// stations.
func (c GeneralConfig) MeanUtilization() float64 {
	var sum float64
	for _, s := range c.Stations {
		sum += s.Utilization()
	}
	return sum / float64(len(c.Stations))
}

// General is the des-based simulator. Each Run constructs a fresh engine;
// jobs execute back-to-back against continuously running owner processes.
// The owner processes, the job driver and the tasks are written as engine
// callbacks (see package des): each callback is scheduled where the process
// would have scheduled its wake-up, so event order and random-number draw
// order are those of the process model.
type General struct {
	cfg GeneralConfig
}

// NewGeneral builds the simulator.
func NewGeneral(cfg GeneralConfig) (*General, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &General{cfg: cfg}, nil
}

// GeneralStats augments the job samples with observed station behaviour.
type GeneralStats struct {
	Samples []JobSample
	// ObservedUtil is the measured owner busy fraction averaged over
	// stations, to be compared against the configured utilization.
	ObservedUtil float64
	// Preemptions counts task preemptions by owner processes.
	Preemptions uint64
}

// Run simulates n measured job executions (after warmup) and returns the
// samples plus observed statistics.
func (g *General) Run(n int) (GeneralStats, error) {
	return g.RunCtx(context.Background(), n)
}

// RunCtx is Run with cancellation: the event loop checks ctx periodically
// and returns ctx.Err() once cancelled.
func (g *General) RunCtx(ctx context.Context, n int) (GeneralStats, error) {
	if n < 1 {
		return GeneralStats{}, fmt.Errorf("sim: need at least one sample, got %d", n)
	}
	run := g.Start()
	if err := run.Extend(ctx, n); err != nil {
		return GeneralStats{}, err
	}
	return run.Stats(), nil
}

// GeneralRun is an in-progress general-model simulation that can be extended
// incrementally: the owner processes and the job driver keep their state
// between Extend calls, so a precision-driven protocol (sim.RunGeneralCtx)
// grows the sample set without discarding earlier work or breaking
// owner-process continuity. A run holds no goroutines; dropping it releases
// everything.
type GeneralRun struct {
	g          *General
	eng        *des.Engine
	servers    []*des.PreemptiveServer
	samples    []JobSample
	job        *forkJoin
	taskStream *rng.Stream
	jobs       int // jobs started so far, warmup included
}

// Start sets up the engine: owner processes on every station and a driver
// that executes jobs back-to-back indefinitely (discarding WarmupJobs
// first). No simulated time elapses until the first Extend.
func (g *General) Start() *GeneralRun {
	r := &GeneralRun{g: g, eng: des.NewEngine()}
	root := rng.NewStream(g.cfg.Seed)
	r.taskStream = root.Split(0)
	r.servers = startOwners(r.eng, g.cfg.Stations, root)
	speeds := make([]float64, len(g.cfg.Stations))
	for i, st := range g.cfg.Stations {
		// Per-station speed scales the sampled demand into effective CPU
		// time; owner bursts stay wall-clock.
		speeds[i] = st.speed()
	}
	r.job = newForkJoin(r.eng, r.servers, speeds, r.jobDone)
	r.eng.Schedule(r.eng.Now(), r.nextJob)
	return r
}

// nextJob forks the next job's tasks.
func (r *GeneralRun) nextJob() {
	r.jobs++
	r.job.fork(r.g.cfg.TaskDemand, r.taskStream)
}

// jobDone records the finished job (past warmup) and starts the next.
func (r *GeneralRun) jobDone() {
	if r.jobs > r.g.cfg.WarmupJobs {
		r.samples = append(r.samples, JobSample{
			JobTime:  r.eng.Now() - r.job.start,
			MeanTask: r.job.sum / float64(len(r.servers)),
		})
	}
	r.nextJob()
}

// Extend steps the simulation until n more measured samples exist, checking
// ctx periodically. Because the same seeded engine keeps running, the first
// k samples of a run extended to m >= k are identical to a fresh run of k —
// extension replays nothing and discards nothing.
func (r *GeneralRun) Extend(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("sim: need at least one sample, got %d", n)
	}
	target := len(r.samples) + n
	const ctxCheckEvery = 4096
	for steps := 0; len(r.samples) < target; steps++ {
		if steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !r.eng.Step() {
			// Unreachable with a live driver, but fail loudly over spinning.
			return fmt.Errorf("sim: engine drained before %d samples completed", target)
		}
	}
	return nil
}

// Samples returns all measured samples so far. The slice is owned by the run
// and grows on Extend; callers must not modify it.
func (r *GeneralRun) Samples() []JobSample { return r.samples }

// Stats assembles the observed statistics over the whole run so far.
func (r *GeneralRun) Stats() GeneralStats {
	stats := GeneralStats{Samples: r.samples}
	var busy float64
	for _, s := range r.servers {
		busy += s.BusyTime(PrioOwner)
		stats.Preemptions += s.Preemptions()
	}
	if horizon := r.eng.Now() * float64(len(r.servers)); horizon > 0 {
		stats.ObservedUtil = busy / horizon
	}
	return stats
}

// startOwners creates one preemptive server per station and starts its
// owner process. Station i draws from root.Split(1+i).
func startOwners(eng *des.Engine, stations []StationConfig, root *rng.Stream) []*des.PreemptiveServer {
	servers := make([]*des.PreemptiveServer, len(stations))
	for i, st := range stations {
		servers[i] = eng.NewPreemptiveServer(fmt.Sprintf("ws%d", i))
		o := &owner{eng: eng, srv: servers[i], cfg: st, stream: root.Split(uint64(1 + i))}
		o.think, o.burst = o.doThink, o.doBurst
		eng.Schedule(eng.Now(), o.think)
	}
	return servers
}

// owner is a station's owner process: think for a sampled wall-clock time,
// then a burst of sampled demand at owner priority, forever.
type owner struct {
	eng          *des.Engine
	srv          *des.PreemptiveServer
	cfg          StationConfig
	stream       *rng.Stream
	think, burst func() // doThink and doBurst, bound once
}

func (o *owner) doThink() { o.eng.Schedule(o.eng.Now()+o.cfg.OwnerThink.Sample(o.stream), o.burst) }

func (o *owner) doBurst() { o.srv.Use(o.cfg.OwnerDemand.Sample(o.stream), PrioOwner, o.think) }

// forkJoin is a parallel job: one task per station at task priority, and a
// driver that resumes once every task has finished. The first completion
// after the driver blocks schedules one wake-up, and a wake-up that finds
// tasks outstanding blocks it again — the wake-ups of a driver process
// receiving W completion messages, so the event sequence, and with it every
// pinned answer, is that of the process formulation.
type forkJoin struct {
	eng     *des.Engine
	tasks   []task
	joined  func() // runs when every task of the current fork has finished
	wake    func() // f.resume, bound once
	start   des.Time
	sum     float64 // task times of the current fork, in completion order
	arrived int
	blocked bool
}

// task is one parallel task: its demand is the sampled demand divided by
// its station's speed.
type task struct {
	srv           *des.PreemptiveServer
	speed         float64
	demand, start des.Time
	begin, finish func()
}

// newForkJoin builds a job over servers; speeds scales each task's demand,
// nil leaves it unscaled.
func newForkJoin(eng *des.Engine, servers []*des.PreemptiveServer, speeds []float64, joined func()) *forkJoin {
	f := &forkJoin{eng: eng, tasks: make([]task, len(servers)), joined: joined}
	f.wake = f.resume
	for i := range f.tasks {
		t := &f.tasks[i]
		*t = task{srv: servers[i], speed: 1}
		if speeds != nil {
			t.speed = speeds[i]
		}
		t.begin = func() {
			t.start = eng.Now()
			t.srv.Use(t.demand, PrioTask, t.finish)
		}
		t.finish = func() { f.taskDone(eng.Now() - t.start) }
	}
	return f
}

// fork samples every task's demand from d in station order and starts the
// tasks at the current instant.
func (f *forkJoin) fork(d rng.Dist, s *rng.Stream) {
	f.start, f.sum, f.arrived = f.eng.Now(), 0, 0
	for i := range f.tasks {
		t := &f.tasks[i]
		t.demand = d.Sample(s) / t.speed
		f.eng.Schedule(f.start, t.begin)
	}
	f.blocked = true
}

func (f *forkJoin) taskDone(d float64) {
	f.sum += d
	f.arrived++
	if f.blocked {
		f.blocked = false
		f.eng.Schedule(f.eng.Now(), f.wake)
	}
}

func (f *forkJoin) resume() {
	if f.arrived < len(f.tasks) {
		f.blocked = true
		return
	}
	f.joined()
}
