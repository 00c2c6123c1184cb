package server

import (
	"fmt"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/corpus"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// This file is the one place a /v1/verify request body is validated and
// resolved into a sweep. The request's fields constrain each other:
//
//	litmus / suite / family   exactly one selects the tests
//	suite                     "paper" or "all"
//	family                    a known shape name (mp, sb, wrc, ...)
//	isa                       "base", "base+a" or "both" (default both)
//	variant                   "curr", "ours" or "both" (default both);
//	                          mutually exclusive with models — an inline
//	                          spec carries its own variant directive
//	models                    each entry a valid µspec spec; display
//	                          names must be unique
//	backend                   "uhb" (default), "opsim" or "both"; under
//	                          "opsim" every resolved model must be within
//	                          the simulators' capability (under "both" an
//	                          unsupported model degrades to a per-stack
//	                          skip note instead)
//
// Every violation is reported as a *BadRequestError carrying an
// api.ErrorResponse that names the offending field(s), so clients can
// point at the exact input instead of parsing prose.

// BadRequestError is a 400 with a structured body.
type BadRequestError struct {
	Resp api.ErrorResponse
}

func (e *BadRequestError) Error() string { return e.Resp.Error }

// badField builds a single-field BadRequestError.
func badField(field, format string, args ...any) *BadRequestError {
	msg := fmt.Sprintf(format, args...)
	return &BadRequestError{Resp: api.ErrorResponse{
		Error:  msg,
		Fields: []api.FieldError{{Field: field, Message: msg}},
	}}
}

// badFields builds a BadRequestError naming several mutually-conflicting
// fields with one shared message.
func badFields(fields []string, format string, args ...any) *BadRequestError {
	msg := fmt.Sprintf(format, args...)
	e := &BadRequestError{Resp: api.ErrorResponse{Error: msg}}
	for _, f := range fields {
		e.Resp.Fields = append(e.Resp.Fields, api.FieldError{Field: f, Message: msg})
	}
	return e
}

// resolve validates a request against the constraint matrix above and
// returns the sweep's tests, stacks and backend. Any error is a
// *BadRequestError.
func resolve(req *api.VerifyRequest) ([]*litmus.Test, []core.Stack, core.Backend, error) {
	backend, err := core.ParseBackend(req.Backend)
	if err != nil {
		return nil, nil, 0, badField("backend", "%v", err)
	}
	tests, rerr := resolveTests(req)
	if rerr != nil {
		return nil, nil, 0, rerr
	}
	stacks, rerr := resolveStacks(req)
	if rerr != nil {
		return nil, nil, 0, rerr
	}
	if backend == core.BackendOpsim {
		if err := core.ValidateBackendStacks(backend, stacks); err != nil {
			return nil, nil, 0, badField("backend", "backend \"opsim\": %v (use backend \"both\" to cross-check where possible)", err)
		}
	}
	return tests, stacks, backend, nil
}

// resolveTests applies the litmus/suite/family selector rules.
func resolveTests(req *api.VerifyRequest) ([]*litmus.Test, *BadRequestError) {
	var set []string
	if len(req.Litmus) > 0 {
		set = append(set, "litmus")
	}
	if req.Suite != "" {
		set = append(set, "suite")
	}
	if req.Family != "" {
		set = append(set, "family")
	}
	if len(set) == 0 {
		return nil, badFields([]string{"litmus", "suite", "family"}, "exactly one of litmus, suite or family must be set")
	}
	if len(set) > 1 {
		return nil, badFields(set, "exactly one of litmus, suite or family must be set")
	}
	switch set[0] {
	case "litmus":
		tests, err := corpus.ParseStrings(req.Litmus)
		if err != nil {
			return nil, badField("litmus", "%v", err)
		}
		return tests, nil
	case "suite":
		switch req.Suite {
		case "paper":
			return litmus.PaperSuite(), nil
		case "all":
			var tests []*litmus.Test
			for _, shape := range litmus.AllShapes() {
				tests = append(tests, shape.Generate()...)
			}
			return tests, nil
		}
		return nil, badField("suite", "unknown suite %q (want paper or all)", req.Suite)
	default:
		shape := litmus.ShapeByName(req.Family)
		if shape == nil {
			return nil, badField("family", "unknown family %q", req.Family)
		}
		return shape.Generate(), nil
	}
}

// resolveStacks applies the isa/variant/models selector rules.
func resolveStacks(req *api.VerifyRequest) ([]core.Stack, *BadRequestError) {
	isa := req.ISA
	if isa == "" {
		isa = "both"
	}
	switch isa {
	case "base", "base+a", "both":
	default:
		return nil, badField("isa", "unknown ISA flavour %q (want base, base+a or both)", req.ISA)
	}
	if len(req.Models) > 0 {
		if req.Variant != "" {
			return nil, badFields([]string{"models", "variant"},
				"variant selects builtin models; inline model specs carry their own variant — drop one of the two")
		}
		models := make([]*uspec.Model, 0, len(req.Models))
		for i, src := range req.Models {
			s, perr := uspec.ParseSpec(src)
			if perr != nil {
				return nil, badField(fmt.Sprintf("models[%d]", i), "%v", perr)
			}
			models = append(models, uspec.New(*s))
		}
		stacks, err := core.SelectStacksModels(isa, models)
		if err != nil {
			return nil, badField("models", "%v", err)
		}
		return stacks, nil
	}
	variant := req.Variant
	if variant == "" {
		variant = "both"
	}
	switch variant {
	case "curr", "ours", "both":
	default:
		return nil, badField("variant", "unknown MCM version %q (want curr, ours or both)", req.Variant)
	}
	stacks, err := core.SelectStacks(isa, variant)
	if err != nil {
		return nil, badField("variant", "%v", err)
	}
	return stacks, nil
}

// opsimSkipNote extracts the per-stack capability skip note from a
// backend=both sweep's results (empty when the stack was cross-checked
// or the sweep ran a single backend). The note is config-level, so the
// first result speaks for the stack.
func opsimSkipNote(sr *core.SuiteResult) string {
	if len(sr.Results) == 0 || sr.Results[0].Opsim == nil {
		return ""
	}
	return sr.Results[0].Opsim.Skipped
}
