package dsmsim

import (
	"context"

	"dsmsim/internal/core"
)

// Start is the single entrypoint for individual runs: it applies the
// functional options to a copy of cfg, validates it, builds the machine
// and executes app to completion (or ctx cancellation):
//
//	res, err := dsmsim.Start(ctx, cfg, app,
//	    dsmsim.WithVerify(),
//	    dsmsim.WithFaults(plan),
//	    dsmsim.WithTrace(os.Stderr))
//
// By default the run is unverified; WithVerify() re-checks the final
// shared image against the sequential reference. The run-setting options
// (WithFaults, WithLimit, WithSampleEvery, WithShareProfile,
// WithCritPath, WithWhatIf, WithTrace, WithTraceJSON) write the
// corresponding Config fields, so they take precedence over cfg; an
// option given a zero value leaves cfg's field as it is.
func Start(ctx context.Context, cfg Config, app App, opts ...Option) (*Result, error) {
	c := collect(cfg, opts)
	m, err := NewMachine(c.Config)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(ctx, app)
	if err != nil {
		return nil, err
	}
	if c.verifyOr(false) {
		if err := core.Verify(app, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StartApp is Start for a bundled application selected by name and size.
func StartApp(ctx context.Context, cfg Config, name string, size SizeClass, opts ...Option) (*Result, error) {
	app, err := NewApp(name, size)
	if err != nil {
		return nil, err
	}
	return Start(ctx, cfg, app, opts...)
}
