// Package lib is the dead-export guard's fixture: one dead and one live
// export of each kind the guard checks.
package lib

// Live is called from cmd/app.
func Live() int { return helper() }

// Dead is referenced only by its own recursion and from a test.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// Thing is named by cmd/app.
type Thing struct{}

// Used is called through a selector in cmd/app.
func (Thing) Used() {}

// Unused is called only by its own recursion and from a test.
func (t Thing) Unused(n int) {
	if n > 0 {
		t.Unused(n - 1)
	}
}

func helper() int { return 1 }
