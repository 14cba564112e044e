package netmodel

import "fmt"

// Config describes a transit-stub universe. All latencies are in
// milliseconds.
type Config struct {
	TransitDomains        int // top-level domains, fully connected pairwise
	TransitPerDomain      int // transit nodes per transit domain
	StubDomainsPerTransit int // stub domains attached to each transit node
	StubPerDomain         int // stub nodes per stub domain

	PIntraTransit float64 // edge probability between transit nodes in a domain
	PIntraStub    float64 // edge probability between stub nodes in a domain

	LatInterTransit int // ms, link between transit nodes in different domains
	LatIntraTransit int // ms, link between transit nodes in one domain
	LatTransitStub  int // ms, uplink from a stub domain's gateway to its transit node
	LatIntraStub    int // ms, link between stub nodes in one domain

	Seed uint64
}

// DefaultConfig returns the paper's exact GT-ITM parameters: 51,984
// physical nodes with 50/20/5/2 ms latencies.
func DefaultConfig() Config {
	return Config{
		TransitDomains:        9,
		TransitPerDomain:      16,
		StubDomainsPerTransit: 9,
		StubPerDomain:         40,
		PIntraTransit:         0.6,
		PIntraStub:            0.4,
		LatInterTransit:       50,
		LatIntraTransit:       20,
		LatTransitStub:        5,
		LatIntraStub:          2,
		Seed:                  1,
	}
}

// SmallConfig returns a reduced universe (~2,600 physical nodes) with the
// same latency constants, for tests and the scaled benchmark preset.
func SmallConfig() Config {
	c := DefaultConfig()
	c.TransitDomains = 4
	c.TransitPerDomain = 8
	c.StubDomainsPerTransit = 4
	c.StubPerDomain = 20
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains <= 0 || c.TransitPerDomain <= 0:
		return fmt.Errorf("netmodel: need positive transit domain geometry, got %d×%d", c.TransitDomains, c.TransitPerDomain)
	case c.StubDomainsPerTransit < 0 || c.StubPerDomain <= 0:
		return fmt.Errorf("netmodel: need positive stub geometry, got %d×%d", c.StubDomainsPerTransit, c.StubPerDomain)
	case c.StubPerDomain > 255:
		// Hop counts are uint8 with 0xFF meaning "unreached": a path
		// through 256 or more nodes would wrap.
		return fmt.Errorf("netmodel: StubPerDomain %d exceeds the 255-node hop matrix", c.StubPerDomain)
	case c.PIntraTransit < 0 || c.PIntraTransit > 1:
		return fmt.Errorf("netmodel: PIntraTransit %v out of [0,1]", c.PIntraTransit)
	case c.PIntraStub < 0 || c.PIntraStub > 1:
		return fmt.Errorf("netmodel: PIntraStub %v out of [0,1]", c.PIntraStub)
	case c.LatInterTransit < 0 || c.LatIntraTransit < 0 || c.LatTransitStub < 0 || c.LatIntraStub < 0:
		return fmt.Errorf("netmodel: negative latency")
	}
	return nil
}

// NumTransit returns the number of transit nodes the configuration yields.
func (c Config) NumTransit() int { return c.TransitDomains * c.TransitPerDomain }

// NumStub returns the number of stub nodes the configuration yields.
func (c Config) NumStub() int {
	return c.NumTransit() * c.StubDomainsPerTransit * c.StubPerDomain
}

// TotalNodes returns the total number of physical nodes.
func (c Config) TotalNodes() int { return c.NumTransit() + c.NumStub() }
