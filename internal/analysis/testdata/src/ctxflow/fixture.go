// Package ctxfixture exercises the ctxflow analyzer: library code must
// not manufacture contexts or drop an in-scope one.
package ctxfixture

import "context"

// Checker is a stand-in for the engine facade.
type Checker struct{}

// SolveContext is the canonical ctx-taking entry point.
func (c *Checker) SolveContext(ctx context.Context, n int) error {
	_ = ctx
	_ = n
	return nil
}

// Solve is the ctx-free variant. A deprecation notice earns no exemption:
// filling in a context here still severs the chain.
//
// Deprecated: use SolveContext.
func (c *Checker) Solve(n int) error {
	return c.SolveContext(context.Background(), n) // want "severs the caller's cancellation chain"
}

// RunContext is the package-level ctx-taking variant.
func RunContext(ctx context.Context, n int) error {
	_ = ctx
	_ = n
	return nil
}

// Run is the ctx-free variant callers without a context use.
//
// Deprecated: use RunContext.
func Run(n int) error {
	return RunContext(context.Background(), n) // want "severs the caller's cancellation chain"
}

func Manufactured() context.Context {
	return context.Background() // want "severs the caller's cancellation chain"
}

func ManufacturedTODO() context.Context {
	return context.TODO() // want "severs the caller's cancellation chain"
}

// Guarded fills a documented nil and keeps the caller's context
// otherwise: the sanctioned shape.
func Guarded(ctx context.Context, c *Checker) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.SolveContext(ctx, 1)
}

func DroppedMethod(ctx context.Context, c *Checker) error {
	_ = ctx
	return c.Solve(1) // want "drops the in-scope ctx"
}

func DroppedFunc(ctx context.Context) error {
	_ = ctx
	return Run(1) // want "drops the in-scope ctx"
}

// NoCtxInScope has no context parameter, so calling the ctx-free variant
// is fine.
func NoCtxInScope(c *Checker) error {
	return c.Solve(1)
}

func Suppressed() context.Context {
	return context.Background() //xic:ignore ctxflow fixture documents deliberate background use
}
