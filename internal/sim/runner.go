package sim

import (
	"context"
	"fmt"

	"feasim/internal/stats"
)

// Protocol is the output-analysis protocol. DefaultProtocol matches the
// paper: "confidence intervals of 1 percent or less at a 90 percent
// confidence level ... batch means with 20 batches per simulation run and a
// batch size of 1000 samples".
type Protocol struct {
	Batches   int
	BatchSize int
	Level     float64
	// MaxRel, when positive, extends the run past Batches·BatchSize samples
	// until the relative CI half-width reaches it (or MaxSamples is hit).
	MaxRel     float64
	MaxSamples int64
}

// DefaultProtocol is the paper's protocol.
func DefaultProtocol() Protocol {
	return Protocol{Batches: 20, BatchSize: 1000, Level: 0.90, MaxRel: 0.01, MaxSamples: 2_000_000}
}

// Validate checks the protocol.
func (pr Protocol) Validate() error {
	if pr.Batches < 2 || pr.BatchSize < 1 {
		return fmt.Errorf("sim: protocol needs >= 2 batches and batch size >= 1")
	}
	if pr.Level <= 0 || pr.Level >= 1 {
		return fmt.Errorf("sim: confidence level must be in (0,1), got %v", pr.Level)
	}
	return nil
}

// RunResult is the output of a measured simulation run.
type RunResult struct {
	JobTime  stats.CI // batch-means CI on E_j
	MeanTask stats.CI // batch-means CI on E_t
	Samples  int64
	// MetPrecision reports whether the MaxRel target was reached (always
	// true when MaxRel is zero).
	MetPrecision bool
	// ObservedUtil is filled by general-model runs.
	ObservedUtil float64
}

// RunExactCtx applies the protocol to the exact simulator. The sampling
// loop checks ctx before each sample and returns ctx.Err() on cancellation.
func RunExactCtx(ctx context.Context, x *Exact, pr Protocol) (RunResult, error) {
	if err := pr.Validate(); err != nil {
		return RunResult{}, err
	}
	job := stats.NewBatchMeans(pr.BatchSize)
	task := stats.NewBatchMeans(pr.BatchSize)
	gen := func() {
		s := x.Sample()
		job.Add(s.JobTime)
		task.Add(s.MeanTask)
	}
	return drive(ctx, job, task, gen, pr)
}

// RunGeneralCtx applies the protocol to the general simulator. The engine
// runs in slabs of one batch between precision checks, and checks ctx
// periodically while stepping and between precision attempts.
func RunGeneralCtx(ctx context.Context, g *General, pr Protocol) (RunResult, error) {
	if err := pr.Validate(); err != nil {
		return RunResult{}, err
	}
	// Precision-driven growth: run the protocol's minimum sample count,
	// then — if the relative CI half-width target is missed — keep the same
	// engine alive and extend the run, doubling the total each attempt.
	// Earlier samples are carried forward into the batch-means accumulators,
	// so nothing is re-simulated and owner-process continuity is preserved
	// by construction (the owners never stop between slabs).
	run := g.Start()
	job := stats.NewBatchMeans(pr.BatchSize)
	task := stats.NewBatchMeans(pr.BatchSize)
	fed := 0
	feed := func() {
		for _, s := range run.Samples()[fed:] {
			job.Add(s.JobTime)
			task.Add(s.MeanTask)
		}
		fed = len(run.Samples())
	}
	total := pr.Batches * pr.BatchSize
	if err := run.Extend(ctx, total); err != nil {
		return RunResult{}, err
	}
	for attempt := 0; ; attempt++ {
		feed()
		res, err := summarize(job, task, pr)
		if err != nil {
			return RunResult{}, err
		}
		res.ObservedUtil = run.Stats().ObservedUtil
		if res.MetPrecision || pr.MaxRel <= 0 ||
			int64(2*total) > pr.MaxSamples || attempt >= 6 {
			return res, nil
		}
		if err := run.Extend(ctx, total); err != nil { // double the total
			return RunResult{}, err
		}
		total *= 2
	}
}

func drive(ctx context.Context, job, task *stats.BatchMeans, gen func(), pr Protocol) (RunResult, error) {
	// One sample can run long (a huge task demand), so the context is
	// checked before each sample rather than once per batch.
	done := ctx.Done()
	batch := func() error {
		for i := 0; i < pr.BatchSize; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			gen()
		}
		return nil
	}
	minSamples := int64(pr.Batches * pr.BatchSize)
	for job.N() < minSamples {
		if err := batch(); err != nil {
			return RunResult{}, err
		}
	}
	res, err := summarize(job, task, pr)
	if err != nil {
		return RunResult{}, err
	}
	if pr.MaxRel > 0 {
		for !res.MetPrecision && job.N() < pr.MaxSamples {
			if err := batch(); err != nil {
				return RunResult{}, err
			}
			res, err = summarize(job, task, pr)
			if err != nil {
				return RunResult{}, err
			}
		}
	}
	return res, nil
}

func summarize(job, task *stats.BatchMeans, pr Protocol) (RunResult, error) {
	jci, err := job.MeanCI(pr.Level)
	if err != nil {
		return RunResult{}, err
	}
	tci, err := task.MeanCI(pr.Level)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		JobTime:      jci,
		MeanTask:     tci,
		Samples:      job.N(),
		MetPrecision: pr.MaxRel <= 0 || jci.Relative() <= pr.MaxRel,
	}, nil
}
