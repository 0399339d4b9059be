package xmltree

import (
	"sync"
	"testing"

	"xic/internal/dtd"
)

// TestFrozenValidatorConcurrent checks that a validator serves concurrent
// Validate calls correctly; run with -race it also proves the compiled
// automata are read without synchronization safely.
func TestFrozenValidatorConcurrent(t *testing.T) {
	d := dtd.Teachers()
	v := NewValidator(d)
	if v.Automaton("teacher") == nil {
		t.Fatal("Automaton(teacher) = nil")
	}
	if v.Automaton("nosuch") != nil {
		t.Fatal("Automaton(nosuch) != nil")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := v.Validate(Figure1()); err != nil {
					t.Errorf("Validate: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
