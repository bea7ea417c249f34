package sim

import (
	"context"
	"testing"
)

func TestGeneralRunExtendMatchesOneShot(t *testing.T) {
	// Extending a run must carry samples forward, not re-simulate: the same
	// seeded simulator run as 30+70 incremental samples must produce exactly
	// the samples of a single 100-sample run.
	cfg := HomogeneousGeometric(4, 50, 10, 0.02)
	cfg.Seed = 42
	cfg.WarmupJobs = 3

	g1, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := g1.Start()
	ctx := context.Background()
	if err := run.Extend(ctx, 30); err != nil {
		t.Fatal(err)
	}
	if got := len(run.Samples()); got != 30 {
		t.Fatalf("after first extend: %d samples, want 30", got)
	}
	if err := run.Extend(ctx, 70); err != nil {
		t.Fatal(err)
	}
	incremental := run.Samples()

	g2, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := g2.Run(100)
	if err != nil {
		t.Fatal(err)
	}

	if len(incremental) != len(oneShot.Samples) {
		t.Fatalf("incremental %d samples vs one-shot %d", len(incremental), len(oneShot.Samples))
	}
	for i := range incremental {
		if incremental[i] != oneShot.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, incremental[i], oneShot.Samples[i])
		}
	}
	if st := run.Stats(); st.ObservedUtil != oneShot.ObservedUtil {
		t.Errorf("observed util differs: %v vs %v", st.ObservedUtil, oneShot.ObservedUtil)
	}
}

func TestGeneralRunExtendRejectsBadCount(t *testing.T) {
	g, err := NewGeneral(HomogeneousGeometric(2, 20, 5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	run := g.Start()
	if err := run.Extend(context.Background(), 0); err == nil {
		t.Error("Extend(0) should error")
	}
}

func TestGeneralRunExtendHonorsCancel(t *testing.T) {
	g, err := NewGeneral(HomogeneousGeometric(8, 500, 10, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	run := g.Start()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run.Extend(ctx, 1000); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunGeneralPrecisionGrowsWithoutRestart(t *testing.T) {
	// An unreachable precision target must make the runner extend the run in
	// doubling slabs up to the sample cap — and every slab's samples count
	// toward the result (carried forward, not discarded).
	cfg := HomogeneousGeometric(4, 100, 10, 1.0/90)
	cfg.Seed = 7
	g, err := NewGeneral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pr := Protocol{Batches: 4, BatchSize: 25, Level: 0.9, MaxRel: 1e-9, MaxSamples: 400}
	res, err := RunGeneralCtx(context.Background(), g, pr)
	if err != nil {
		t.Fatal(err)
	}
	// 100 -> 200 -> 400: stops there because doubling again would pass the cap.
	if res.Samples != 400 {
		t.Errorf("samples = %d, want 400 (two doublings from 100)", res.Samples)
	}
	if res.MetPrecision {
		t.Error("1e-9 relative precision should not be met at 400 samples")
	}
}
