// Package faults is the simulator's deterministic fault-injection plane.
//
// A Plane decides, per message, whether the network drops it and how much
// extra latency it suffers. Decisions are pure functions of the plane's
// seed and the message's identity — (stream key, sequence number, source,
// destination, class) — hashed through a PCG output permutation, so a
// replay makes exactly the same decisions regardless of worker count or
// scheduling. Stream keys derive from event identity (Key). The sequence
// number completes a message's name where key and edge do not — a leg, a
// walker's step — so a flooded copy (at most one per directed edge) or a
// walker's message, baseline or ASAP delivery, is decided independently of
// the order messages are handled in. ASAP's query messages number
// themselves with a counter local to one query, so a verdict depends on
// that query alone, never on the queries replayed before it. A Plane holds
// no state a decision writes, so the one writer that replays a run and
// any number of readers may share it.
//
// A nil *Plane is valid everywhere and behaves as a perfectly reliable
// network, which keeps the zero-loss hot path to a single nil check.
package faults

import (
	"fmt"

	"asap/internal/metrics"
	"asap/internal/overlay"
)

// Config parameterises a fault plane.
type Config struct {
	// Seed drives every drop and jitter decision. Two planes with the
	// same Config make identical decisions.
	Seed uint64
	// LossRate is the independent per-message drop probability in [0, 1).
	LossRate float64
	// JitterMS adds a per-message uniform extra latency in [0, JitterMS]
	// milliseconds; 0 disables jitter.
	JitterMS int
	// GracefulLeave makes departing nodes announce themselves (schemes
	// send goodbye messages over the still-lossy links) instead of
	// crashing silently.
	GracefulLeave bool
}

// Plane is a seeded, replay-stable fault injector. The zero value and the
// nil pointer are both inert (no drops, no jitter, crash-style leaves).
type Plane struct {
	seed     uint64
	loss     float64
	jitterMS int64
	graceful bool
	// group, when non-nil, partitions the overlay: group[n] is node n's
	// partition group, and messages between different groups are dropped.
	// Partition membership is a pure table lookup — it consumes no hash
	// stream and never feeds into Drop's (key, seq, src, dst, class)
	// hashing, so engaging or healing a partition cannot perturb the
	// outcome of any loss-stream decision (Drop is stateless: the same
	// message identity hashes to the same verdict with or without a
	// partition engaged). Mutated only between replay batches on the
	// runner goroutine.
	group []int8
}

// New builds a plane from cfg. It panics on an out-of-range loss rate —
// fault configuration is static experiment setup, like core.Config.
func New(cfg Config) *Plane {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		panic(fmt.Sprintf("faults: LossRate %v out of [0,1)", cfg.LossRate))
	}
	if cfg.JitterMS < 0 {
		panic(fmt.Sprintf("faults: JitterMS %d < 0", cfg.JitterMS))
	}
	return &Plane{
		seed:     cfg.Seed,
		loss:     cfg.LossRate,
		jitterMS: int64(cfg.JitterMS),
		graceful: cfg.GracefulLeave,
	}
}

// LossRate returns the configured per-message drop probability.
func (p *Plane) LossRate() float64 {
	if p == nil {
		return 0
	}
	return p.loss
}

// Active reports whether the plane can actually drop messages. Retry
// machinery keys off this so a zero-loss plane replays byte-identically
// to no plane at all. An engaged partition counts: cross-group messages
// are dropped, so retry/timeout semantics must be live while it holds.
func (p *Plane) Active() bool { return p != nil && (p.loss > 0 || p.group != nil) }

// SetPartition installs (or, with nil, heals) a partition grouping.
// group[n] is node n's partition group; messages whose source and
// destination land in different groups are dropped unconditionally.
// The slice is retained, not copied. Callers must serialise SetPartition
// against message delivery — the scenario director applies it between
// replay batches on the runner goroutine.
func (p *Plane) SetPartition(group []int8) { p.group = group }

// PartitionEngaged reports whether a partition grouping is installed.
func (p *Plane) PartitionEngaged() bool { return p != nil && p.group != nil }

// Partitioned reports whether src and dst are currently in different
// partition groups. Nodes outside the group table (never the case for
// groupings sized to the overlay) default to group 0.
func (p *Plane) Partitioned(src, dst overlay.NodeID) bool {
	if p == nil || p.group == nil {
		return false
	}
	var gs, gd int8
	if int(src) < len(p.group) {
		gs = p.group[src]
	}
	if int(dst) < len(p.group) {
		gd = p.group[dst]
	}
	return gs != gd
}

// GracefulLeave reports whether departing nodes say goodbye.
func (p *Plane) GracefulLeave() bool { return p != nil && p.graceful }

// Drop reports whether the message identified by (key, seq, src, dst,
// class) is lost in transit.
func (p *Plane) Drop(c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) bool {
	if p == nil || p.loss == 0 {
		return false
	}
	h := p.hash(c, src, dst, key, seq)
	// Top 53 bits → uniform in [0,1); a strict compare keeps the decision
	// an exact function of the hash with no rounding surprises.
	return float64(h>>11)*(1.0/(1<<53)) < p.loss
}

// Jitter returns the message's extra one-way latency in milliseconds,
// uniform over [0, JitterMS]. It reuses the message identity with a
// distinct tweak so jitter and drop outcomes are decorrelated.
func (p *Plane) Jitter(c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) int64 {
	if p == nil || p.jitterMS == 0 {
		return 0
	}
	h := pcg64(p.hash(c, src, dst, key, seq) + 0x9e3779b97f4a7c15)
	return int64(h % uint64(p.jitterMS+1))
}

// hash mixes the plane seed with the full message identity through three
// PCG rounds. Every input bit reaches every output bit; adjacent seq
// values (the common case within one query) land in unrelated cells.
func (p *Plane) hash(c metrics.MsgClass, src, dst overlay.NodeID, key uint64, seq uint32) uint64 {
	h := pcg64(p.seed ^ key)
	h = pcg64(h ^ uint64(uint32(src)) ^ uint64(uint32(dst))<<32)
	return pcg64(h ^ uint64(seq)<<8 ^ uint64(c))
}

// pcg64 is one PCG step: an LCG state advance followed by the RXS-M-XS
// output permutation (the 64-bit PCG variant).
func pcg64(state uint64) uint64 {
	state = state*6364136223846793005 + 1442695040888963407
	word := ((state >> ((state >> 59) + 5)) ^ state) * 12605985483714917081
	return (word >> 43) ^ word
}

// Key derives a message-stream key from an event identity — typically the
// (time, node) pair of the query or delivery the stream belongs to. The
// splitmix64 finalizer decorrelates nearby times and node IDs.
func Key(t int64, node overlay.NodeID) uint64 {
	x := uint64(t)<<20 ^ uint64(uint32(node))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fold mixes an extra discriminator (e.g. an ad version and delivery
// kind) into a stream key, for events not unique in (time, node) alone.
func Fold(key, extra uint64) uint64 { return pcg64(key ^ extra) }
