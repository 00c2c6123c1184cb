package opsim

import (
	"fmt"
	"os"
	"sync/atomic"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// This file is the operational backend's enumeration driver: it maps a
// µspec configuration to the simulator that implements the same machine
// operationally, or rejects it with a typed capability error. The
// mapping is content-based (relaxation bits, not model names), so a
// custom spec with a supported profile enumerates exactly like the
// builtin it aliases.
//
// Supported profiles:
//
//	profile                          machine
//	no relaxations                   SC (write-through, in-order)
//	relax WR                         WR (FIFO store buffer, no forwarding)
//	relax WR + forwarding            TSO (forwarding store buffer)
//	relax WR + forwarding + nMCA     nWR (per-core visibility), riscv-curr only
//
// Everything else — relaxed W→W or R→R (out-of-order structures the
// in-order simulators cannot express) and cache-protocol visibility —
// is a CapabilityError.

// CapabilityError reports a µspec configuration the operational backend
// cannot enumerate. Frontends surface it as a validation error for
// backend=opsim and as a skip note for backend=both.
type CapabilityError struct {
	// Model is the configuration's display name ("nMM/riscv-curr").
	Model string
	// Reason says which relaxation is out of the simulators' reach.
	Reason string
}

func (e *CapabilityError) Error() string {
	return fmt.Sprintf("opsim: %s: %s", e.Model, e.Reason)
}

// Enumerator is one operational machine bound to a compiled program:
// outcome enumeration plus interleaving-witness extraction.
type Enumerator interface {
	// Outcomes returns every reachable final state, in the same
	// canonical form as the axiomatic side. It explores one order of
	// each set of independent steps, so its StateCount is that of the
	// reduced search (see search).
	Outcomes() map[mem.Outcome]bool
	// Trace searches for an interleaving reaching the target outcome and
	// returns it as human-readable actions, or nil if unreachable.
	Trace(target mem.Outcome) []string
	// StateCount reports distinct machine configurations Outcomes
	// explored.
	StateCount() int
}

// MiswireEnv, when set in the environment, deliberately miswires the
// driver (see SetMiswired) — the subprocess form of the test hook behind
// the divergence-path e2e tests.
const MiswireEnv = "TRICHECK_OPSIM_MISWIRE"

// miswire reroutes the SC profile to the TSO machine when enabled, so a
// store-buffering outcome becomes operationally reachable on a config
// whose axiomatic side forbids it — a guaranteed, harmless divergence
// for exercising the backend=both cross-check path end to end.
var miswire atomic.Bool

func init() { miswire.Store(os.Getenv(MiswireEnv) != "") }

// SetMiswired toggles the deliberate driver miswiring (test hook; see
// MiswireEnv for the subprocess form).
func SetMiswired(on bool) { miswire.Store(on) }

// Supports reports whether the operational backend can enumerate the
// given µspec configuration; the error, when non-nil, is a
// *CapabilityError naming the unsupported relaxation.
func Supports(cfg uspec.Config) error {
	unsupported := func(reason string) error {
		return &CapabilityError{Model: cfg.Name + "/" + cfg.Variant.String(), Reason: reason}
	}
	switch {
	case cfg.CacheProtocol:
		return unsupported("cache-protocol store visibility is not modelled operationally")
	case cfg.RelaxWW:
		return unsupported("relaxed W→W needs a non-FIFO store buffer the simulators do not model")
	case cfg.RelaxRR:
		return unsupported("relaxed R→R needs out-of-order load execution; the simulators are in-order")
	case cfg.NMCA && cfg.Variant != uspec.Curr:
		return unsupported("nMCA store-atomicity annotations are modelled for riscv-curr only")
	}
	return nil
}

// ForConfig maps a supported µspec configuration to its operational
// machine over a compiled program. Unsupported configurations return a
// *CapabilityError (the same decision Supports makes).
func ForConfig(cfg uspec.Config, p *isa.Program) (Enumerator, error) {
	if err := Supports(cfg); err != nil {
		return nil, err
	}
	switch {
	case cfg.NMCA:
		return NewNMCA(p), nil
	case cfg.RelaxWR && cfg.Forwarding:
		return NewTSO(p), nil
	case cfg.RelaxWR:
		return New(p), nil
	default:
		if miswire.Load() {
			// Deliberately the wrong machine: TSO reaches store-buffering
			// outcomes an SC config forbids axiomatically.
			return NewTSO(p), nil
		}
		return NewSC(p), nil
	}
}
