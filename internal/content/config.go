package content

import "fmt"

// Config calibrates the synthetic universe. DefaultConfig reproduces every
// statistic the paper quotes about the eDonkey trace.
type Config struct {
	NumPeers int // peers in the observed universe (paper: 37,000)
	NumDocs  int // distinct documents (paper: 923,000)

	AvgCopies      float64 // mean copies per document (paper: ≈1.28)
	SingleCopyFrac float64 // fraction of documents with exactly one copy (paper: 0.89)
	FreeRiderFrac  float64 // fraction of peers sharing nothing (Saroiu et al. [25]: ≈25%)

	MinInterests int // sharer target interest classes, lower bound
	MaxInterests int // sharer target interest classes, upper bound
	MinKeywords  int // keywords per document, lower bound
	MaxKeywords  int // keywords per document, upper bound

	VocabPerClass int     // distinct keywords per semantic class
	ClassSkew     float64 // Zipf exponent of class popularity (Fig. 2 shape)
	KeywordSkew   float64 // Zipf exponent of keyword usage within a class
	CapacitySigma float64 // lognormal σ of per-peer shared-document counts

	Seed uint64
}

// DefaultConfig returns the full-scale universe matching the eDonkey trace
// statistics quoted in §IV-B and §V-A.
func DefaultConfig() Config {
	return Config{
		NumPeers:       37000,
		NumDocs:        923000,
		AvgCopies:      1.28,
		SingleCopyFrac: 0.89,
		FreeRiderFrac:  0.25,
		MinInterests:   1,
		MaxInterests:   4,
		MinKeywords:    2,
		MaxKeywords:    6,
		VocabPerClass:  4000,
		ClassSkew:      0.8,
		KeywordSkew:    1.05,
		CapacitySigma:  1.0,
		Seed:           1,
	}
}

// Scaled returns the configuration shrunk by factor f (0 < f ≤ 1) in peers
// and documents; all distributional knobs are preserved so the universe
// keeps its statistical shape.
func (c Config) Scaled(f float64) Config {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("content: scale factor %v out of (0,1]", f))
	}
	c.NumPeers = max(10, int(float64(c.NumPeers)*f))
	c.NumDocs = max(20, int(float64(c.NumDocs)*f))
	return c
}

// SmallConfig returns a 1/5-scale universe for tests and scaled benches.
func SmallConfig() Config { return DefaultConfig().Scaled(0.2) }

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumPeers <= 0 || c.NumDocs <= 0:
		return fmt.Errorf("content: need positive peers/docs, got %d/%d", c.NumPeers, c.NumDocs)
	case c.AvgCopies < 1:
		return fmt.Errorf("content: AvgCopies %v < 1", c.AvgCopies)
	case c.SingleCopyFrac < 0 || c.SingleCopyFrac > 1:
		return fmt.Errorf("content: SingleCopyFrac %v out of [0,1]", c.SingleCopyFrac)
	case c.FreeRiderFrac < 0 || c.FreeRiderFrac >= 1:
		return fmt.Errorf("content: FreeRiderFrac %v out of [0,1)", c.FreeRiderFrac)
	case c.MinInterests < 1 || c.MaxInterests < c.MinInterests || c.MaxInterests > NumClasses:
		return fmt.Errorf("content: interest bounds [%d,%d] invalid", c.MinInterests, c.MaxInterests)
	case c.MinKeywords < 1 || c.MaxKeywords < c.MinKeywords:
		return fmt.Errorf("content: keyword bounds [%d,%d] invalid", c.MinKeywords, c.MaxKeywords)
	case c.MaxKeywords > 255:
		// Document.kwLen is a uint8: a longer list would be truncated.
		return fmt.Errorf("content: MaxKeywords %d exceeds 255", c.MaxKeywords)
	case c.VocabPerClass < c.MaxKeywords:
		return fmt.Errorf("content: vocabulary %d smaller than MaxKeywords %d", c.VocabPerClass, c.MaxKeywords)
	case c.ClassSkew < 0 || c.KeywordSkew < 0:
		return fmt.Errorf("content: negative skew")
	case c.CapacitySigma < 0:
		return fmt.Errorf("content: negative CapacitySigma")
	}
	// The copy distribution must be feasible: mean ≥ contribution of the
	// single-copy mass.
	if c.AvgCopies < c.SingleCopyFrac+2*(1-c.SingleCopyFrac) && c.SingleCopyFrac < 1 {
		return fmt.Errorf("content: AvgCopies %v infeasible with SingleCopyFrac %v", c.AvgCopies, c.SingleCopyFrac)
	}
	return nil
}
