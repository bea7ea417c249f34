package stats

import (
	"math/rand/v2"
	"testing"
)

func TestBatchMeansCounts(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 95; i++ {
		bm.Add(float64(i))
	}
	if bm.Batches() != 9 {
		t.Errorf("Batches = %d, want 9 (partial batch excluded)", bm.Batches())
	}
	if bm.N() != 95 {
		t.Errorf("N = %d", bm.N())
	}
	if bm.BatchSize() != 10 {
		t.Errorf("BatchSize = %d", bm.BatchSize())
	}
	if got, want := bm.GrandMean(), 47.0; got != want {
		t.Errorf("GrandMean = %v, want %v", got, want)
	}
	if bm.String() == "" {
		t.Error("String empty")
	}
}

func TestBatchMeansTooFewBatches(t *testing.T) {
	bm := NewBatchMeans(100)
	for i := 0; i < 150; i++ {
		bm.Add(1)
	}
	if _, err := bm.MeanCI(0.9); err != ErrTooFewBatches {
		t.Errorf("expected ErrTooFewBatches, got %v", err)
	}
}

func TestBatchMeansCIContainsTrueMean(t *testing.T) {
	// iid uniform(0,1) samples: true mean 0.5. With the paper's protocol
	// (20 batches of 1000) the CI should be tight and almost surely contain
	// the truth at this seed.
	r := rand.New(rand.NewPCG(1, 2))
	bm := NewBatchMeans(1000)
	for i := 0; i < 20000; i++ {
		bm.Add(r.Float64())
	}
	ci, err := bm.MeanCI(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(0.5) {
		t.Errorf("CI %v misses true mean 0.5", ci)
	}
	if ci.Relative() > 0.01 {
		t.Errorf("paper protocol should reach <=1%% relative width on uniform, got %v", ci.Relative())
	}
}

func TestBatchMeansCIWidthShrinks(t *testing.T) {
	gen := func(n int) CI {
		r := rand.New(rand.NewPCG(7, 9))
		bm := NewBatchMeans(n / 20)
		for i := 0; i < n; i++ {
			bm.Add(r.NormFloat64())
		}
		ci, err := bm.MeanCI(0.9)
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	small := gen(2000)
	big := gen(200000)
	// Half-width should shrink roughly like 1/sqrt(n); require at least 4x
	// for a 100x sample increase.
	if big.HalfWidth*4 > small.HalfWidth {
		t.Errorf("half-width did not shrink: %v -> %v", small.HalfWidth, big.HalfWidth)
	}
}

func TestNewBatchMeansPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("batch size 0 should panic")
		}
	}()
	NewBatchMeans(0)
}

// TestRunToPrecisionReachesTarget: the paper's stopping rule (add batches
// until the CI's relative half-width is at most rel, after a minimum number
// of batches) reaches its target on a low-variance stream, and the CI it
// stops at covers the true mean.
func TestRunToPrecisionReachesTarget(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	const batchSize, minBatches, level, rel = 100, 5, 0.90, 0.01
	bm := NewBatchMeans(batchSize)
	var ci CI
	for met := false; !met; {
		if bm.N() >= 1_000_000 {
			t.Fatal("precision target should be reachable")
		}
		for i := 0; i < batchSize; i++ {
			bm.Add(10 + r.Float64()) // mean 10.5, tiny variance
		}
		if bm.Batches() < minBatches {
			continue
		}
		var err error
		if ci, err = bm.MeanCI(level); err != nil {
			t.Fatal(err)
		}
		met = ci.Relative() <= rel
	}
	if !ci.Contains(10.5) {
		t.Errorf("CI %v misses 10.5", ci)
	}
	if bm.Batches() < minBatches {
		t.Errorf("minBatches not honoured: %d", bm.Batches())
	}
	if ci.Relative() > rel {
		t.Errorf("relative width %v above target", ci.Relative())
	}
}
