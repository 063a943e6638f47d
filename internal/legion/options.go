package legion

import (
	"distal/internal/sim"
)

// Option is a functional modifier of Options. The Run/Simulate/SimulateOpts
// trio of earlier API revisions is consolidated into a single construction
// path: NewOptions(params, mods...) builds the struct every execution
// entrypoint consumes.
type Option func(*Options)

// NewOptions builds execution options from a cost model plus modifiers.
func NewOptions(params sim.Params, mods ...Option) Options {
	o := Options{Params: params}
	for _, m := range mods {
		m(&o)
	}
	return o
}

// WithParams replaces the cost model NewOptions was seeded with.
func WithParams(p sim.Params) Option {
	return func(o *Options) { o.Params = p }
}

// WithSynchronous disables communication/computation overlap.
func WithSynchronous() Option { return func(o *Options) { o.Synchronous = true } }

// WithOwnerOnly restricts copy sources to persistent owner instances.
func WithOwnerOnly() Option { return func(o *Options) { o.OwnerOnly = true } }

// WithTransientWindow sets how many transient instances per (region, leaf)
// stay live for reuse.
func WithTransientWindow(n int) Option { return func(o *Options) { o.TransientWindow = n } }

// WithRealWorkers bounds the worker pool for Real-mode leaf kernels. Zero
// (the default) uses min(GOMAXPROCS, 16); 1 runs kernels serially. Results
// and simulated metrics are identical at any setting.
func WithRealWorkers(n int) Option { return func(o *Options) { o.RealWorkers = n } }

// WithTrace records every copy for inspection.
func WithTrace() Option { return func(o *Options) { o.Trace = true } }
