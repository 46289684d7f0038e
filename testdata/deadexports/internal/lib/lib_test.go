package lib

import "testing"

// References from test files do not keep an export alive.
func TestDead(t *testing.T) {
	if Dead(3) != 0 {
		t.Fatal("Dead")
	}
	Thing{}.Unused(2)
}
