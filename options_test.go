package dsmsim

import (
	"context"
	"errors"
	"testing"
)

// badApp completes a run but always fails verification, so Start's error
// shows whether it verified.
type badApp struct{}

func (badApp) Info() AppInfo        { return AppInfo{Name: "bad", HeapBytes: 4096} }
func (badApp) Setup(h *Heap)        {}
func (badApp) Run(c *Ctx)           {}
func (badApp) Verify(h *Heap) error { return errors.New("wrong image") }

// TestVerifyPolicy pins the documented verification policy of the public
// paths: Start verifies only under WithVerify(); Sweep follows WithVerify
// when given and verifies at Small size only otherwise, and its engine
// honours the resolved value exactly (internal/sweep's
// TestEngineVerifyHonoured). The harness policy is pinned in its package.
func TestVerifyPolicy(t *testing.T) {
	settings := []struct {
		name string
		opts []Option
	}{{"unset", nil}, {"true", []Option{WithVerify()}}, {"false", []Option{WithVerify(false)}}}
	cfg := Config{Nodes: 2, BlockSize: 64, Protocol: SC}
	for _, set := range settings {
		for _, size := range []SizeClass{Small, Paper} {
			_, err := Start(context.Background(), cfg, badApp{}, set.opts...)
			if got, want := err != nil, set.name == "true"; got != want {
				t.Errorf("Start verify=%s size=%v: err = %v", set.name, size, err)
			}
			c := collect(Config{}, set.opts)
			want := set.name == "true" || (set.name == "unset" && size == Small)
			if got := c.sweepOptions(size).Verify; got != want {
				t.Errorf("Sweep verify=%s size=%v: verify = %v, want %v", set.name, size, got, want)
			}
		}
	}
}
