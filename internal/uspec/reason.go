package uspec

import (
	"fmt"
	"sync/atomic"

	"tricheck/internal/isa"
)

// Reason is a compact, lazily rendered edge reason: the axiom that demanded
// a µhb edge, encoded as a code instead of a string so that the verdict
// path (skeleton and closure construction, cycle checking) never formats
// or allocates diagnostics. Reasons resolve to the exact strings the
// original eager builder produced, but only on the Explain/DOT paths.
//
// Layout: bits 0–7 hold the base code; for fence reasons bits 8–9/10–11
// hold the predecessor/successor access classes, bits 12–13 the
// cumulativity level, and bits 14–15 the ordered access pair (RR/RW/WW/WR).
type Reason uint32

// Base reason codes, one per axiom label of the builder.
const (
	rPoFetch Reason = iota
	rInOrderExecute
	rInOrderCommit
	rPath
	rAmoReadBeforeWrite
	rCacheGetM
	rCacheInvOrForward
	rSbDrain
	rPpoRR
	rPpoRRSameAddr
	rPpoRW
	rPpoWR
	rAmoNotBuffered
	rSbSameAddrDrain
	rPpoWW
	rSbFifoSameAddr
	rDepAddr
	rDepData
	rDepCtrl
	rWs
	rRfForward
	rRf
	rFr
	rAmoAqR
	rAmoAqW
	rAmoAqVis
	rAmoRlLoadR
	rAmoRlLoadW
	rAmoRlR
	rAmoRlW
	rRelSyncR
	rRelSyncW
	rRelSyncCum
	rScOrder
	rFence // parameterized; never used bare
)

var reasonNames = [...]string{
	rPoFetch:            "po-fetch",
	rInOrderExecute:     "in-order-execute",
	rInOrderCommit:      "in-order-commit",
	rPath:               "path",
	rAmoReadBeforeWrite: "amo-read-before-write",
	rCacheGetM:          "cache-getM",
	rCacheInvOrForward:  "cache-inv-or-forward",
	rSbDrain:            "sb-drain",
	rPpoRR:              "ppo-RR",
	rPpoRRSameAddr:      "ppo-RR-same-addr",
	rPpoRW:              "ppo-RW",
	rPpoWR:              "ppo-WR",
	rAmoNotBuffered:     "amo-not-buffered",
	rSbSameAddrDrain:    "sb-same-addr-drain",
	rPpoWW:              "ppo-WW",
	rSbFifoSameAddr:     "sb-fifo-same-addr",
	rDepAddr:            "dep-addr",
	rDepData:            "dep-data",
	rDepCtrl:            "dep-ctrl",
	rWs:                 "ws",
	rRfForward:          "rf-forward",
	rRf:                 "rf",
	rFr:                 "fr",
	rAmoAqR:             "amo-aq-R",
	rAmoAqW:             "amo-aq-W",
	rAmoAqVis:           "amo-aq-vis",
	rAmoRlLoadR:         "amo-rl-load-R",
	rAmoRlLoadW:         "amo-rl-load-W",
	rAmoRlR:             "amo-rl-R",
	rAmoRlW:             "amo-rl-W",
	rRelSyncR:           "rel-sync-R",
	rRelSyncW:           "rel-sync-W",
	rRelSyncCum:         "rel-sync-cum",
	rScOrder:            "sc-order",
	rFence:              "fence",
}

// Fence-reason pair suffixes (bits 14–15).
const (
	fenceRR Reason = iota << 14
	fenceRW
	fenceWW
	fenceWR
)

var fencePairNames = [4]string{"RR", "RW", "WW", "WR"}

// fenceReason encodes a fence instruction's reason base; OR in one of the
// fence?? pair constants to select the ordered access pair.
func fenceReason(ins *isa.Instr) Reason {
	return rFence |
		Reason(ins.Pred&3)<<8 |
		Reason(ins.Succ&3)<<10 |
		Reason(ins.Cum&3)<<12
}

// diagFormats counts every diagnostic string rendered (reasons and node
// labels). The verdict path must never format diagnostics; the regression
// test in reason_test.go pins that by watching this counter across a full
// evaluation.
var diagFormats atomic.Uint64

// DiagnosticFormats returns the number of diagnostic strings (edge
// reasons, node labels) formatted so far, process-wide. Exposed for tests
// asserting the verdict path performs zero diagnostic formatting.
func DiagnosticFormats() uint64 { return diagFormats.Load() }

// String renders the reason exactly as the eager builder used to. Only
// Explain/DOT materialization calls it.
func (r Reason) String() string {
	diagFormats.Add(1)
	base := r & 0xff
	if base != rFence {
		if int(base) < len(reasonNames) {
			return reasonNames[base]
		}
		return fmt.Sprintf("reason(%d)", uint32(r))
	}
	pred := isa.Class(r >> 8 & 3)
	succ := isa.Class(r >> 10 & 3)
	cum := isa.Cumulativity(r >> 12 & 3)
	pair := fencePairNames[r>>14&3]
	return fmt.Sprintf("fence[%s,%s;%s]-%s", pred, succ, cum, pair)
}
