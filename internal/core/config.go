package core

import "fmt"

// DeliveryKind selects the ad-forwarding algorithm, giving the three ASAP
// schemes the paper examines: ASAP(FLD), ASAP(RW) and ASAP(GSA).
type DeliveryKind uint8

const (
	// FLD floods ads with a TTL.
	FLD DeliveryKind = iota
	// RW forwards ads along random walks under a message budget.
	RW
	// GSAKind seeds one walker per neighbour under a shared budget.
	GSAKind
)

// String returns the paper's scheme suffix.
func (d DeliveryKind) String() string {
	switch d {
	case FLD:
		return "fld"
	case RW:
		return "rw"
	case GSAKind:
		return "gsa"
	default:
		return "invalid"
	}
}

// DeliveryByScheme inverts Scheme.Name: "asap-rw" → RW.
func DeliveryByScheme(name string) (DeliveryKind, bool) {
	for d := range GSAKind + 1 {
		if name == "asap-"+d.String() {
			return d, true
		}
	}
	return 0, false
}

// Config parameterises an ASAP scheme. Defaults follow §IV-A where the
// paper pins a value and are stated assumptions elsewhere (the paper gives
// no refresh period or cache capacity; DESIGN.md D4/D6 ablate them).
type Config struct {
	// Delivery is the ad-forwarding algorithm.
	Delivery DeliveryKind
	// FloodTTL bounds FLD ad floods (paper: 6, same as query flooding).
	FloodTTL int
	// Walkers is the RW walker count (paper: 5).
	Walkers int
	// BudgetUnit is M₀: one ad delivery under RW/GSA may send at most
	// |topics|·M₀ messages (paper: 3,000).
	BudgetUnit int
	// UpdateBudgetDiv reduces the budget of post-warm-up deliveries
	// (patch ads, refresh ads, and full ads published mid-run) to
	// |topics|·M₀/UpdateBudgetDiv. The initial distribution invests the
	// full budget to seed caches; updates only need to re-touch them.
	// This calibration is what keeps full ads a single-digit share of ad
	// traffic (Fig. 7) and ASAP(RW)'s load under the paper's ceiling
	// (DESIGN.md §2).
	UpdateBudgetDiv int
	// AdsRequestHops is h, the radius of the neighbour ads request
	// (paper default: 1).
	AdsRequestHops int
	// MaxConfirms caps how many matching ad sources one search confirms
	// in parallel.
	MaxConfirms int
	// MinResults is how many positive confirmations satisfy a search.
	// Table I continues to the neighbour ads request "if more responses
	// needed": with MinResults > 1 a search that confirmed fewer sources
	// than this runs phase 2 even though it already has an answer.
	MinResults int
	// BiasedDelivery makes budgeted ad walks prefer forwarding to
	// neighbours whose interests intersect the ad's topics, steering ads
	// toward their "potential consumers" (§III-A) at equal budget. Off by
	// default (the paper's walks are uniform).
	BiasedDelivery bool
	// CacheCapacity bounds each node's ads cache (FIFO eviction).
	CacheCapacity int
	// RefreshPeriodSec is how often a node re-advertises liveness with a
	// refresh ad; 0 disables refreshing.
	RefreshPeriodSec int
	// StaleFactor expires cached ads not seen for
	// StaleFactor×RefreshPeriodSec seconds (lazy eviction during scans).
	StaleFactor int
	// MaxAdsPerReply caps the ads returned in one ads-request reply.
	MaxAdsPerReply int
	// RetryAttempts is how many times a search contact (confirmation, ads
	// request) is attempted before the requester gives up, when a fault
	// plane can drop messages; 0 and 1 both mean a single attempt. On a
	// reliable network (no plane, or loss rate 0) exactly one attempt is
	// made regardless, which keeps the zero-loss replay byte-identical to
	// the paper's model.
	RetryAttempts int
	// RetryTimeoutMS is the extra wait beyond the contact's round-trip
	// time before a lost request or reply is retried.
	RetryTimeoutMS int
	// VariableFilters switches content filters from the paper's chosen
	// fixed geometry (m = 11,542) to the variable-length alternative it
	// describes: each node picks the smallest pool length covering its
	// keyword set (§III-B; DESIGN.md D1). Patch ads across a length
	// change fall back to a full ad.
	VariableFilters bool
	// Seed drives delivery-walk randomness.
	Seed uint64
}

// DefaultConfig returns the paper's parameters for the given delivery
// algorithm at full (10,000-node) scale.
func DefaultConfig(d DeliveryKind) Config {
	return Config{
		Delivery:         d,
		FloodTTL:         6,
		Walkers:          5,
		BudgetUnit:       3000,
		UpdateBudgetDiv:  12,
		AdsRequestHops:   1,
		MaxConfirms:      5,
		MinResults:       1,
		CacheCapacity:    2000,
		RefreshPeriodSec: 300,
		StaleFactor:      12,
		MaxAdsPerReply:   64,
		RetryAttempts:    2,
		RetryTimeoutMS:   200,
		Seed:             1,
	}
}

// Scaled shrinks the size-dependent knobs (delivery budget, cache
// capacity) by factor f for reduced-scale experiments, keeping the
// algorithmic parameters intact. The paper's M₀ = 3,000 is calibrated to a
// 10,000-node overlay; a budget that floods a small test overlay many
// times over would make every variant degenerate to "everyone caches
// everything".
func (c Config) Scaled(f float64) Config {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("core: scale factor %v out of (0,1]", f))
	}
	c.BudgetUnit = max(50, int(float64(c.BudgetUnit)*f))
	c.CacheCapacity = max(50, int(float64(c.CacheCapacity)*f))
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Delivery > GSAKind:
		return fmt.Errorf("core: unknown delivery kind %d", c.Delivery)
	case c.FloodTTL < 1:
		return fmt.Errorf("core: FloodTTL %d < 1", c.FloodTTL)
	case c.Walkers < 1:
		return fmt.Errorf("core: Walkers %d < 1", c.Walkers)
	case c.BudgetUnit < 1:
		return fmt.Errorf("core: BudgetUnit %d < 1", c.BudgetUnit)
	case c.UpdateBudgetDiv < 1:
		return fmt.Errorf("core: UpdateBudgetDiv %d < 1", c.UpdateBudgetDiv)
	case c.AdsRequestHops < 0:
		return fmt.Errorf("core: AdsRequestHops %d < 0", c.AdsRequestHops)
	case c.MaxConfirms < 1:
		return fmt.Errorf("core: MaxConfirms %d < 1", c.MaxConfirms)
	case c.MinResults < 1 || c.MinResults > c.MaxConfirms:
		return fmt.Errorf("core: MinResults %d out of [1, MaxConfirms=%d]", c.MinResults, c.MaxConfirms)
	case c.CacheCapacity < 1 || c.CacheCapacity > maxCacheCapacity:
		return fmt.Errorf("core: CacheCapacity %d out of [1, %d]", c.CacheCapacity, maxCacheCapacity)
	case c.RefreshPeriodSec < 0:
		return fmt.Errorf("core: RefreshPeriodSec %d < 0", c.RefreshPeriodSec)
	case c.RefreshPeriodSec > 0 && c.StaleFactor < 1:
		return fmt.Errorf("core: StaleFactor %d < 1 with refreshing enabled", c.StaleFactor)
	case c.MaxAdsPerReply < 1:
		return fmt.Errorf("core: MaxAdsPerReply %d < 1", c.MaxAdsPerReply)
	case c.RetryAttempts < 0:
		return fmt.Errorf("core: RetryAttempts %d < 0", c.RetryAttempts)
	case c.RetryTimeoutMS < 0:
		return fmt.Errorf("core: RetryTimeoutMS %d < 0", c.RetryTimeoutMS)
	}
	return nil
}
