package stats

import (
	"errors"
	"fmt"
	"math"
)

// BatchMeans implements the batch-means output-analysis method the paper
// uses (reference [4], Kobayashi 1978): the observation stream is split into
// fixed-size consecutive batches, each batch mean is treated as one
// (approximately independent) sample, and a Student-t interval is formed
// over the batch means. The paper runs 20 batches of 1000 samples and
// requires a relative 90% CI half-width of at most 1%.
type BatchMeans struct {
	batchSize int
	cur       Summary   // accumulates the in-progress batch
	means     []float64 // completed batch means
	all       Summary   // grand summary over every observation
}

// NewBatchMeans creates a collector with the given batch size.
func NewBatchMeans(batchSize int) *BatchMeans {
	if batchSize < 1 {
		panic("stats: batch size must be >= 1")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add appends one observation, closing a batch when it fills.
func (b *BatchMeans) Add(x float64) {
	b.all.Add(x)
	b.cur.Add(x)
	if int(b.cur.N()) == b.batchSize {
		b.means = append(b.means, b.cur.Mean())
		b.cur = Summary{}
	}
}

// Batches is the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.means) }

// BatchSize is the configured batch size.
func (b *BatchMeans) BatchSize() int { return b.batchSize }

// N is the total number of observations, including any partial batch.
func (b *BatchMeans) N() int64 { return b.all.N() }

// GrandMean is the mean over all observations.
func (b *BatchMeans) GrandMean() float64 { return b.all.Mean() }

// ErrTooFewBatches is returned when a CI is requested before at least two
// batches have completed.
var ErrTooFewBatches = errors.New("stats: need at least 2 completed batches")

// MeanCI forms the batch-means confidence interval at the given level.
// Only completed batches participate; the partial batch is excluded so the
// batch means are identically distributed.
func (b *BatchMeans) MeanCI(level float64) (CI, error) {
	k := len(b.means)
	if k < 2 {
		return CI{}, ErrTooFewBatches
	}
	var s Summary
	s.AddAll(b.means)
	t := TQuantile(0.5+level/2, float64(k-1))
	return CI{Mean: s.Mean(), HalfWidth: t * s.StdDev() / math.Sqrt(float64(k)), Level: level}, nil
}

func (b *BatchMeans) String() string {
	return fmt.Sprintf("batches=%d size=%d grand-mean=%.6g", len(b.means), b.batchSize, b.GrandMean())
}
